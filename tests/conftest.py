import csv
import random
import sys
from datetime import date
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sanctionflow import (EventSet, FlowNetwork, InfluenceNetwork,
                          SanctionEvent)

FIXTURES = Path(__file__).parent / "fixtures"


def csv_data_rows(path):
    """Rows of a .csv artifact after its '#' preamble and header, read as
    RFC 4180 by the csv module."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    while lines and (not lines[0].strip() or lines[0].startswith("#")):
        lines.pop(0)
    return list(csv.reader(lines[1:-1]))


def ev(issuer, list_id, entity, day, category=None):
    return SanctionEvent(issuer=issuer, list_id=list_id, entity_id=entity,
                         date=date.fromisoformat(day), category=category)


def make_network(edges, level="institution", nodes=None):
    adjacency = {(a, b): c for a, b, c in edges}
    if nodes is None:
        nodes = sorted({v for a, b, _ in edges for v in (a, b)})
    return InfluenceNetwork(level=level, nodes=tuple(nodes),
                            adjacency=adjacency)


def make_flow(pairs, nodes=None, mode="unit"):
    if nodes is None:
        nodes = sorted({v for a, b in pairs for v in (a, b)})
    order = {v: i for i, v in enumerate(nodes)}
    canon = {}
    for (a, b), (f, w) in pairs.items():
        if order[a] < order[b]:
            canon[(a, b)] = (float(f), float(w))
        else:
            canon[(b, a)] = (-float(f), float(w))
    return FlowNetwork(nodes=tuple(nodes), pairs=canon, weight_mode=mode)


def random_flow(rng: random.Random, n, edge_prob=0.3, zero_flow_prob=0.1):
    nodes = tuple(f"N{i:03d}" for i in range(n))
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                f = 0.0 if rng.random() < zero_flow_prob else float(
                    rng.randint(-3, 3))
                w = rng.uniform(1e-3, 1.0)
                pairs[(nodes[i], nodes[j])] = (f, w)
    return FlowNetwork(nodes=nodes, pairs=pairs, weight_mode="unit")


@pytest.fixture
def feed_forward_triangle():
    return make_network([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])


@pytest.fixture
def three_cycle():
    return make_network([("A", "B", 1), ("B", "C", 1), ("C", "A", 1)])


@pytest.fixture
def two_triangles():
    edges = [(f"N{a}", f"N{b}", 1)
             for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]]
    return make_network(edges, level="list")


@pytest.fixture
def bridged_triangles(two_triangles):
    adjacency = dict(two_triangles.adjacency)
    adjacency[("N2", "N3")] = 1
    return InfluenceNetwork(level="list", nodes=two_triangles.nodes,
                            adjacency=adjacency)


@pytest.fixture
def small_events():
    return EventSet.from_events([
        ev("EU", "EU-TERR-1", "ACME", "2010-03-05"),
        ev("EU", "EU-TERR-1", "GLOBO", "2010-04-01"),
        ev("US", "US-SDN-1", "ACME", "2010-06-01"),
        ev("US", "US-SDN-1", "GLOBO", "2010-04-01"),
        ev("JP", "JP-N-1", "ACME", "2011-01-01"),
    ])
