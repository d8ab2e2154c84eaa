import random

import pytest

from sanctionflow import (PipelineError, louvain,
                          modularity, read_partition, write_partition)
from conftest import (by_node, in_node_order, make_network, network_108k,
                      traced_peak)
from oracles import (best_partition_bruteforce, louvain_reference,
                     modularity_oracle)


def test_two_triangles_partition_value(two_triangles):
    assignment = {f"N{i}": 0 if i < 3 else 1 for i in range(6)}
    labels = in_node_order(two_triangles.nodes, assignment)
    assert modularity(two_triangles, labels) == pytest.approx(0.5)


def test_single_community_is_one_minus_resolution(two_triangles):
    assignment = [0] * len(two_triangles.nodes)
    assert modularity(two_triangles, assignment, 1.0) == pytest.approx(0.0)
    assert modularity(two_triangles, assignment, 0.7) == pytest.approx(0.3)


def test_bridged_triangles_value(bridged_triangles):
    assignment = {f"N{i}": 0 if i < 3 else 1 for i in range(6)}
    labels = in_node_order(bridged_triangles.nodes, assignment)
    assert modularity(bridged_triangles, labels) == pytest.approx(5 / 14)


def test_modularity_matches_oracle_random():
    rng = random.Random(4)
    for trial in range(10):
        n = rng.randint(2, 7)
        edges = [(f"N{i}", f"N{j}", rng.randint(1, 3))
                 for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.5]
        if not edges:
            continue
        net = make_network(edges, nodes=[f"N{i}" for i in range(n)])
        assignment = {f"N{i}": rng.randint(0, 2) for i in range(n)}
        labels = in_node_order(net.nodes, assignment)
        assert modularity(net, labels, 1.3) == pytest.approx(
            modularity_oracle(net, assignment, 1.3), abs=1e-12)


def test_zero_weight_network_errors():
    net = make_network([], level="list", nodes=("A",))
    with pytest.raises(PipelineError):
        modularity(net, [0])
    with pytest.raises(PipelineError):
        louvain(net)


def test_louvain_two_triangles(two_triangles):
    part = louvain(two_triangles, seed=1)
    assert part.modularity == pytest.approx(0.5)
    assert len(set(part.assignment.values())) == 2
    assert {part.assignment[f"N{i}"] for i in range(3)} != \
        {part.assignment[f"N{i}"] for i in range(3, 6)}


def test_louvain_bridged_triangles(bridged_triangles):
    part = louvain(bridged_triangles, seed=1)
    assert part.modularity == pytest.approx(5 / 14)


def test_louvain_matches_recomputation(bridged_triangles):
    part = louvain(bridged_triangles, seed=3)
    assert part.modularity == pytest.approx(
        modularity(bridged_triangles,
                   in_node_order(bridged_triangles.nodes, part.assignment),
                   part.resolution),
        abs=1e-12)


def test_louvain_deterministic(two_triangles):
    a = louvain(two_triangles, seed=5)
    b = louvain(two_triangles, seed=5)
    assert a == b


def test_louvain_passes_non_decreasing():
    rng = random.Random(8)
    for trial in range(5):
        n = rng.randint(4, 12)
        edges = [(f"N{i}", f"N{j}", rng.randint(1, 4))
                 for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.3]
        if not edges:
            continue
        net = make_network(edges, nodes=[f"N{i}" for i in range(n)])
        part = louvain(net, seed=trial)
        qs = part.pass_modularity
        assert all(qs[k] <= qs[k + 1] + 1e-12 for k in range(len(qs) - 1))


def test_louvain_attains_bruteforce_optimum_small():
    rng = random.Random(17)
    for trial in range(8):
        n = rng.randint(3, 7)
        edges = [(f"N{i}", f"N{j}", rng.randint(1, 3))
                 for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.45]
        if not edges:
            continue
        net = make_network(edges, nodes=[f"N{i}" for i in range(n)])
        best_q, _ = best_partition_bruteforce(net)
        attained = max(louvain(net, seed=s).modularity for s in range(5))
        assert attained == pytest.approx(best_q, abs=1e-9)


def random_hierarchy(rng):
    """30-120 nodes in groups of 3-6, grouped again by 2-4; an ordered pair
    is an edge with probability 0.5 within a group, 0.06 within a
    super-group and 0.008 otherwise, with a count of 1-5."""
    n = rng.randint(30, 120)
    nodes = [f"N{i:03d}" for i in range(n)]
    small = rng.randint(3, 6)
    big = small * rng.randint(2, 4)
    edges = []
    for i in range(n):
        for j in range(n):
            p = (0.5 if i // small == j // small else
                 0.06 if i // big == j // big else 0.008)
            if i != j and rng.random() < p:
                edges.append((nodes[i], nodes[j], rng.randint(1, 5)))
    return make_network(edges, nodes=nodes)


def test_louvain_matches_the_reference_exactly():
    rng = random.Random(11)
    for trial in range(40):
        net = random_hierarchy(rng)
        resolution = rng.choice([0.5, 1.0, 1.6])
        seed = rng.randrange(1000)
        want = louvain_reference(net, resolution, seed)
        assert len(want.pass_modularity) >= 3  # two aggregations at least
        # assignment, Q and Q per level, all compared exactly
        assert louvain(net, resolution, seed) == want


def _disconnected_communities(net, assignment):
    """The communities whose nodes the network's links, taken undirected,
    do not join into one piece."""
    parent = {v: v for v in net.nodes}

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, j in zip(net.view.lo.tolist(), net.view.hi.tolist()):
        a, b = net.nodes[i], net.nodes[j]
        if assignment[a] == assignment[b]:
            parent[root(a)] = root(b)
    pieces = {}
    for v in net.nodes:
        pieces.setdefault(assignment[v], set()).add(root(v))
    return sorted(c for c, roots in pieces.items() if len(roots) > 1)


def test_every_louvain_community_is_connected():
    apart = make_network([("a", "b", 1), ("c", "d", 1)])
    assert _disconnected_communities(apart, dict.fromkeys(apart.nodes, 0)) == [0]
    rng = random.Random(5)
    for trial in range(40):
        net = random_hierarchy(rng)
        resolution = rng.choice([0.5, 1.0, 1.6])
        part = louvain(net, resolution, seed=trial)
        assert _disconnected_communities(net, part.assignment) == []


def test_louvain_never_below_single_community(two_triangles):
    part = louvain(two_triangles, resolution=2.5, seed=0)
    single = modularity(two_triangles, [0] * len(two_triangles.nodes), 2.5)
    assert part.modularity >= single - 1e-12


def test_permuting_labels_permutes_assignment(bridged_triangles):
    mapping = {f"N{i}": f"M{(i * 5) % 7}" for i in range(6)}
    renamed = make_network(
        [(mapping[a], mapping[b], c)
         for (a, b), c in bridged_triangles.adjacency.items()],
        level="list",
        nodes=sorted(mapping[n] for n in bridged_triangles.nodes))
    p1 = louvain(bridged_triangles, seed=2)
    p2 = louvain(renamed, seed=2)
    groups1 = {}
    for n, c in p1.assignment.items():
        groups1.setdefault(c, set()).add(mapping[n])
    groups2 = {}
    for n, c in p2.assignment.items():
        groups2.setdefault(c, set()).add(n)
    assert sorted(map(sorted, groups1.values())) == \
        sorted(map(sorted, groups2.values()))


def test_partition_round_trip(two_triangles):
    part = louvain(two_triangles, seed=1)
    text = "".join(write_partition(part))
    back = read_partition(text, two_triangles.nodes)
    assert by_node(two_triangles.nodes, back) == part.assignment
    assert f"{part.modularity:.17g}" in text


def test_louvain_memory_is_bounded():
    net = network_108k()
    net.view  # built once per network, and not louvain's own
    partition, peak = traced_peak(lambda: louvain(net))
    assert len(set(partition.assignment.values())) == 1200
    # 18.0 MiB traced with a (neighbour, weight) tuple per entry; 10.6 MiB
    # with shared ints and floats in two lists per node
    assert peak < 14 * 2 ** 20
