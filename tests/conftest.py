import csv
import functools
import random
import sys
import tracemalloc
from datetime import date
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sanctionflow import (EventSet, FlowNetwork, HodgeDecomposition,
                          InfluenceNetwork, PotentialVector, SanctionEvent)
from sanctionflow.events import Column

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


def make_events(rows):
    """The EventSet of ``ev(...)`` rows: each field coded into a column in
    order of first appearance (no category codes -1), through
    ``EventSet.from_columns``."""
    rows = list(rows)
    columns = []
    for field in ("issuer", "list_id", "entity_id", "category"):
        index = {}
        codes = [-1 if value is None else index.setdefault(value, len(index))
                 for value in (getattr(row, field) for row in rows)]
        columns.append(Column(tuple(index), codes))
    return EventSet.from_columns(*columns,
                                 [row.date.toordinal() for row in rows])


def events_150k() -> EventSet:
    """150k events shaped like the benchmark's lists_m: 40 issuers with 5
    lists each, 20k entities and an optional category."""
    n = 150_000
    rng = np.random.default_rng(1)
    issuer = rng.integers(0, 40, n)
    return EventSet.from_columns(
        Column(tuple(f"ISS{i:03d}" for i in range(40)), issuer),
        Column(tuple(f"ISS{i:03d}-L{k}" for i in range(40) for k in range(5)),
               issuer * 5 + rng.integers(0, 5, n)),
        Column(tuple(f"ENT{i:05d}" for i in range(20_000)),
               rng.integers(0, 20_000, n)),
        Column(("a", "b"), rng.integers(-1, 2, n)),
        733_000 + rng.integers(0, 365, n))


@functools.lru_cache(maxsize=1)
def network_108k():
    """A network of 108k edges: 1200 components of 10 nodes, each node
    influencing every other of its component, with counts 1..9."""
    size, comps = 10, 1200
    base = np.repeat(np.arange(comps) * size, size * size)
    a, b = np.tile(np.divmod(np.arange(size * size), size), comps)
    keep = a != b
    src, dst = (base + a)[keep], (base + b)[keep]
    return InfluenceNetwork(
        "institution", tuple(f"inst{k:06d}" for k in range(size * comps)),
        src, dst, 1 + (7 * src + dst) % 9)


def drained(pieces):
    """The total length of a writer's text pieces, asked for one by one."""
    return sum(map(len, pieces))


def traced_peak(call):
    """``call()``'s result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def make_network(edges, level="institution", nodes=None):
    """The network of (src, dst, count) name triples; nodes default to the
    edges' endpoints in name order."""
    if nodes is None:
        nodes = sorted({v for a, b, _ in edges for v in (a, b)})
    index = {v: i for i, v in enumerate(nodes)}
    rows = sorted((index[a], index[b], c) for a, b, c in edges)
    src, dst, count = (np.array([r[k] for r in rows], np.int64)
                       for k in range(3))
    return InfluenceNetwork(level, tuple(nodes), src, dst, count)


def by_node(nodes, *values):
    """{node name: value} of an array of per-node values in node order; a
    tuple of values per node when several arrays are given."""
    columns = [np.asarray(v).tolist() for v in values]
    return dict(zip(nodes, columns[0] if len(columns) == 1 else zip(*columns)))


def in_node_order(nodes, mapping):
    """The array of ``mapping``'s value for each of ``nodes``, in order."""
    return np.array([mapping[v] for v in nodes])


def make_potentials(nodes, phi):
    """The potentials {node: phi} over ``nodes``, all in one component."""
    return PotentialVector(in_node_order(nodes, phi).astype(float),
                           np.zeros(len(nodes), np.intp))


def network_fields(net):
    """What makes two networks equal: level, nodes and named edge counts."""
    return net.level, net.nodes, net.adjacency


def make_flow(pairs, nodes=None, mode="unit"):
    """The flow network of {(a, b): (F_ab, w)}; a pair listed against node
    order is stored turned round, with its flow negated."""
    if nodes is None:
        nodes = sorted({v for a, b in pairs for v in (a, b)})
    index = {v: i for i, v in enumerate(nodes)}
    rows = sorted((index[a], index[b], float(f), float(w))
                  if index[a] < index[b] else
                  (index[b], index[a], -float(f), float(w))
                  for (a, b), (f, w) in pairs.items())
    lo, hi = (np.array([r[k] for r in rows], np.int64) for k in range(2))
    F, w = (np.array([r[k] for r in rows], float) for k in range(2, 4))
    return FlowNetwork(tuple(nodes), lo, hi, F, w, mode)


def by_pair(flow, *values):
    """{(a, b): value} per array of ``values`` aligned with the flow's
    pairs, a before b in node order."""
    keys = [(flow.nodes[i], flow.nodes[j])
            for i, j in zip(flow.lo.tolist(), flow.hi.tolist())]
    return [dict(zip(keys, v.tolist())) for v in values]


def pairs_of(flow):
    """{(a, b): (F_ab, w)}, a before b in node order."""
    F, w = by_pair(flow, flow.F, flow.w)
    return {key: (F[key], w[key]) for key in F}


def split_of(decomp):
    """The gradient and the circular part as {(a, b): value} dicts."""
    return by_pair(decomp.flow, decomp.gradient, decomp.circular)


def make_decomposition(phi, flow=None, gradient=None, circular=None):
    """A decomposition with the potentials {node: phi} and the given parts
    of ``flow``'s pairs (by default no pairs over the potentials' nodes),
    each given as {(a, b): value}."""
    if flow is None:
        flow = make_flow({}, nodes=list(phi))
    keys = list(pairs_of(flow))
    parts = [np.array([part[k] for k in keys], float)
             for part in (gradient or {}, circular or {})]
    return HodgeDecomposition(make_potentials(flow.nodes, phi), flow, *parts,
                              0.0, 0.0, 0.0)


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
    return make_flow(pairs, nodes)


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
    edges = [(*key, c) for key, c in two_triangles.adjacency.items()]
    return make_network([*edges, ("N2", "N3", 1)], level="list",
                        nodes=two_triangles.nodes)


@pytest.fixture
def small_events():
    return make_events([
        ev("EU", "EU-TERR-1", "ACME", "2010-03-05"),
        ev("EU", "EU-TERR-1", "GLOBO", "2010-04-01"),
        ev("US", "US-SDN-1", "ACME", "2010-06-01"),
        ev("US", "US-SDN-1", "GLOBO", "2010-04-01"),
        ev("JP", "JP-N-1", "ACME", "2011-01-01"),
    ])
