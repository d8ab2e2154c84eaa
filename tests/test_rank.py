import random

import pytest

from sanctionflow import (PipelineError, pagerank,
                          read_ranks, write_ranks)
from conftest import by_node, make_network
from oracles import dense_pagerank_oracle


def test_symmetric_two_nodes():
    net = make_network([("A", "B", 1), ("B", "A", 1)])
    scores = by_node(net.nodes, pagerank(net).scores)
    assert scores["A"] == pytest.approx(0.5, abs=1e-10)
    assert scores["B"] == pytest.approx(0.5, abs=1e-10)


def test_cycle_is_uniform(three_cycle):
    pr = pagerank(three_cycle)
    for v in by_node(three_cycle.nodes, pr.scores).values():
        assert v == pytest.approx(1 / 3, abs=1e-10)


def test_star_with_dangling_hub():
    net = make_network([("A", "B", 1), ("C", "B", 1)])
    scores = by_node(net.nodes, pagerank(net, damping=0.85).scores)
    assert scores["A"] == pytest.approx(0.2128, abs=1e-3)
    assert scores["B"] == pytest.approx(0.5745, abs=1e-3)
    assert scores["C"] == pytest.approx(0.2128, abs=1e-3)


def test_scores_sum_to_one():
    rng = random.Random(2)
    for trial in range(10):
        n = rng.randint(2, 15)
        edges = [(f"N{i}", f"N{j}", rng.randint(1, 4))
                 for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.3]
        net = make_network(edges, nodes=[f"N{i}" for i in range(n)])
        scores = by_node(net.nodes, pagerank(net).scores)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v > 0 for v in scores.values())


def test_matches_dense_oracle():
    rng = random.Random(6)
    for trial in range(15):
        n = rng.randint(2, 10)
        edges = [(f"N{i}", f"N{j}", rng.randint(1, 5))
                 for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.35]
        net = make_network(edges, nodes=[f"N{i}" for i in range(n)])
        scores = by_node(net.nodes, pagerank(net, tol=1e-14).scores)
        oracle = dense_pagerank_oracle(net)
        for node in net.nodes:
            assert scores[node] == pytest.approx(oracle[node], abs=1e-8)


def test_fixed_point_property():
    net = make_network([("A", "B", 2), ("B", "C", 1), ("C", "A", 3),
                        ("A", "C", 1)])
    pr = pagerank(net, tol=1e-13)
    d = pr.damping
    scores = by_node(net.nodes, pr.scores)
    out = {"A": 3.0, "B": 1.0, "C": 3.0}
    nxt = {}
    for v in net.nodes:
        nxt[v] = (1 - d) / 3
    for (a, b), c in net.adjacency.items():
        nxt[b] += d * scores[a] * c / out[a]
    for v in net.nodes:
        assert nxt[v] == pytest.approx(scores[v], abs=1e-12)


def test_invalid_parameters():
    net = make_network([("A", "B", 1)])
    with pytest.raises(PipelineError):
        pagerank(net, damping=1.0)
    with pytest.raises(PipelineError):
        pagerank(net, tol=0.0)
    with pytest.raises(PipelineError):
        pagerank(make_network([], level="list", nodes=()))


def test_rank_round_trip():
    net = make_network([("A", "B", 1), ("C", "B", 1)])
    pr = pagerank(net)
    text = "".join(write_ranks(pr, net.nodes))
    back = read_ranks(text, net.nodes)
    assert by_node(net.nodes, back) == by_node(net.nodes, pr.scores)
