import math
import random
import time

import numpy as np
import pytest

from sanctionflow import (PipelineError, SynthConfig,
                          build_institution_network, export_graph, layout,
                          louvain, pagerank, potential_table, read_ranks,
                          scatter_data, solve, symmetrize, synth_generate,
                          write_potential_table, write_scatter)
from sanctionflow.hodge import read_node_table
from sanctionflow.report import (_BLOCK_CELLS, _EPS, _STALL_STEPS, _STALL_TOL,
                                 LayoutResult, _apply_jitter, _energy_kernel)
from sanctionflow.table import preamble
from conftest import (by_node, drained, in_node_order, make_decomposition,
                      make_network, make_potentials, network_108k,
                      network_fields, traced_peak)
from oracles import (brute_force_jitter, dense_layout_energy_oracle,
                     export_graph_reference, json_graph_reference,
                     layout_reference)

# nodes at which one row block is exactly square: BLOCK_SIDE rows of
# BLOCK_SIDE cells
BLOCK_SIDE = math.isqrt(_BLOCK_CELLS)


def potentials_for(net, mode="unit"):
    return solve(symmetrize(net, mode)).potentials


def layout_positions(net, result):
    """{node: (x, y)} of a layout of ``net``."""
    return by_node(net.nodes, result.x, result.y)


def test_single_node_at_origin():
    net = make_network([], nodes=("A",))
    result = layout(net, make_potentials(net.nodes, {"A": 0.0}), seed=1)
    assert layout_positions(net, result) == {"A": (0.0, 0.0)}


def test_y_is_exactly_the_potential(feed_forward_triangle):
    pv = potentials_for(feed_forward_triangle)
    result = layout(feed_forward_triangle, pv, seed=3)
    phi = by_node(feed_forward_triangle.nodes, pv.phi)
    placed = layout_positions(feed_forward_triangle, result)
    for node, (_, y) in placed.items():
        assert y == phi[node]


def test_unconnected_equal_potential_nodes_separate():
    net = make_network([], nodes=("A", "B"))
    pv = make_potentials(net.nodes, {"A": 0.0, "B": 0.0})
    result = layout(net, pv, seed=2, min_sep=1e-3)
    (xa, _), (xb, _) = layout_positions(net, result).values()
    assert abs(xa - xb) >= 1e-3


def test_energy_history_non_increasing(two_triangles):
    pv = potentials_for(two_triangles, mode="mean")
    result = layout(two_triangles, pv, seed=4)
    hist = result.energy_history
    assert len(hist) >= 2
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))


def ring_with_chords(n, chord_every=5):
    """n nodes on a ring, plus a chord a third of the way round from every
    chord_every-th node; potentials cycle through 17 levels, so many tie."""
    names = [f"N{i:05d}" for i in range(n)]
    edges = {(names[i], names[(i + 1) % n]): 1 for i in range(n)}
    for i in range(0, n, chord_every):
        edges[(names[i], names[(i + n // 3) % n])] = 1 + i % 3
    net = make_network([(*key, c) for key, c in edges.items()], nodes=names)
    pv = make_potentials(names, {v: 0.1 * (i % 17)
                                 for i, v in enumerate(names)})
    return net, pv


def layout_problem(n, seed, edges_per_node=3, coincident=0):
    """Random x, y and a random edge set for the layout energy. The first
    `coincident` nodes are copied exactly onto the next ones, and the next
    one after those sits a tenth of _EPS off its neighbour in x."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.normal(size=n)
    if coincident:
        x[coincident:2 * coincident] = x[:coincident]
        y[coincident:2 * coincident] = y[:coincident]
        x[2 * coincident] = x[0] + 0.1 * _EPS
        y[2 * coincident] = y[0]
    a = rng.integers(0, n, edges_per_node * n)
    b = rng.integers(0, n, edges_per_node * n)
    keep = a != b
    keys = np.unique(np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep])
    rows, cols = np.divmod(keys, n)
    wgt = rng.integers(1, 5, len(rows)).astype(float)
    return x, y, rows, cols, wgt


def assert_matches_oracle(x, y, rows, cols, wgt):
    energy, grad = _energy_kernel(y, rows, cols, wgt)(x)
    want_energy, want_grad = dense_layout_energy_oracle(x, y, rows, cols, wgt)
    assert energy == pytest.approx(want_energy, rel=1e-12, abs=0.0)
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()


@pytest.mark.parametrize("n", [2, BLOCK_SIDE - 1, BLOCK_SIDE, BLOCK_SIDE + 1,
                               3 * BLOCK_SIDE + 5])
def test_energy_kernel_matches_dense_oracle(n):
    assert_matches_oracle(*layout_problem(n, seed=n))


def test_energy_kernel_without_edges():
    x, y, rows, cols, wgt = layout_problem(BLOCK_SIDE + 1, seed=1,
                                           edges_per_node=0)
    assert len(rows) == 0
    assert_matches_oracle(x, y, rows, cols, wgt)


@pytest.mark.parametrize("n", [12, 2 * BLOCK_SIDE + 3])
def test_energy_kernel_clamps_coincident_points(n):
    x, y, rows, cols, wgt = layout_problem(n, seed=n, coincident=5)
    # edges between coincident nodes take the clamp too
    rows = np.concatenate([rows, [0, 1]])
    cols = np.concatenate([cols, [5, 10]])
    wgt = np.concatenate([wgt, [2.0, 3.0]])
    order = np.lexsort((cols, rows))
    assert_matches_oracle(x, y, rows[order], cols[order], wgt[order])


def test_energy_kernel_gradient_matches_central_differences():
    n = BLOCK_SIDE + 1
    _, _, rows, cols, wgt = layout_problem(n, seed=2)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, n)
    y = np.arange(n, dtype=float)  # well separated: the energy is smooth
    energy_and_grad = _energy_kernel(y, rows, cols, wgt)
    _, grad = energy_and_grad(x)
    tol = 1e-6 * max(1.0, np.abs(grad).max())
    h = 1e-4
    for i in rng.choice(n, 10, replace=False):
        step = np.zeros(n)
        step[i] = h
        ahead, behind = energy_and_grad(x + step), energy_and_grad(x - step)
        assert (ahead[0] - behind[0]) / (2 * h) == pytest.approx(grad[i],
                                                                 abs=tol)


def test_multi_block_layout_descends_with_y_at_the_potential():
    net, pv = ring_with_chords(3 * BLOCK_SIDE)
    result = layout(net, pv, seed=5, max_steps=40)
    hist = result.energy_history
    assert len(hist) == 41
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))
    phi = by_node(net.nodes, pv.phi)
    placed = layout_positions(net, result)
    assert all(y == phi[v] for v, (_, y) in placed.items())


def synth_institutions(n_issuers, n_entities):
    """The institution network of a seed-1 synth run (copy-prob 0.9) and
    its mean-mode potentials, as the CLI pipeline makes them."""
    events = synth_generate(SynthConfig(n_issuers, n_entities,
                                        copy_prob=0.9), seed=1)
    net = build_institution_network(events)
    return net, potentials_for(net, "mean")


@pytest.mark.parametrize("n_issuers, n_entities", [(100, 2000), (500, 5000)])
def test_layout_ends_no_higher_than_the_reference_descent(n_issuers,
                                                          n_entities):
    # the pinned 100-node network and the issuers_500 benchmark network
    net, pv = synth_institutions(n_issuers, n_entities)
    assert len(net.nodes) == n_issuers
    result = layout(net, pv, seed=0)
    reference = layout_reference(net, pv, seed=0)
    assert result.energy_history[-1] <= reference.energy_history[-1]
    assert np.array_equal(result.y, reference.y)


def test_layout_stops_at_a_stalled_energy_before_max_steps():
    net, pv = synth_institutions(100, 2000)
    hist = layout(net, pv, seed=0, max_steps=200).energy_history
    assert len(hist) - 1 < 200
    k = _STALL_STEPS
    assert hist[-1 - k] - hist[-1] <= _STALL_TOL * abs(hist[-1])
    assert all(hist[i - k] - hist[i] > _STALL_TOL * abs(hist[i])
               for i in range(k, len(hist) - 1))


def test_tied_ring_layout_never_increases_at_full_max_steps():
    # 17 potential levels make many exact ties, where L-BFGS trials fail
    # and the descent falls back to gradient steps
    net, pv = ring_with_chords(3 * BLOCK_SIDE)
    hist = layout(net, pv, seed=5).energy_history
    assert len(hist) > 41
    assert all(hist[i + 1] <= hist[i] for i in range(len(hist) - 1))


def test_layout_sums_both_directions_into_one_pair_weight():
    net = make_network([("A", "B", 2), ("B", "A", 3), ("B", "C", 1),
                        ("D", "A", 4)], nodes=("A", "B", "C", "D", "E"))
    phi = {"A": 0.5, "B": 0.0, "C": -1.0, "D": 0.5, "E": 2.0}
    result = layout(net, make_potentials(net.nodes, phi), seed=7, max_steps=0)
    rng = random.Random(7)
    x = np.array([rng.uniform(-1.0, 1.0) for _ in range(5)])
    y = in_node_order(net.nodes, phi)
    want, _ = dense_layout_energy_oracle(x, y, np.array([0, 0, 1]),
                                         np.array([1, 3, 2]),
                                         np.array([5.0, 4.0, 1.0]))
    assert result.energy_history == pytest.approx((want,), rel=1e-12)


def test_layout_memory_is_bounded():
    import tracemalloc
    net, pv = ring_with_chords(3000)
    tracemalloc.start()
    try:
        layout(net, pv, seed=1, max_steps=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def random_network(n_nodes, n_links, seed):
    rng = random.Random(seed)
    nodes = [f"N{i:05d}" for i in range(n_nodes)]
    adjacency = {}
    while len(adjacency) < n_links:
        a, b = rng.sample(nodes, 2)
        adjacency[(a, b)] = rng.randint(1, 9)
    return make_network([(*key, c) for key, c in adjacency.items()],
                        nodes=nodes)


def test_json_graph_memory_is_bounded():
    net = random_network(2000, 20_000, seed=3)
    d = solve(symmetrize(net, "mean"))
    communities = np.arange(len(net.nodes)) % 7
    rng = random.Random(4)
    lay = LayoutResult(np.array([rng.uniform(-1, 1) for _ in net.nodes]),
                       d.potentials.phi)
    size, peak = traced_peak(lambda: drained(export_graph(
        net, decomp=d, communities=communities, layout_result=lay,
        format="json_graph")))
    assert size > 3.5 * 2**20
    # no copy of the document is held, only a chunk of its links at a
    # time: 3.4 MiB traced, against 11.2 MiB for the joined document
    assert peak < 4 * 2**20


@pytest.mark.parametrize("fmt, bound", [
    # traced peaks, whole document -> pieces: 42.2 -> 4.3, 43.4 -> 4.8 and
    # 63.6 -> 6.2 MiB, for 8.1, 10.3 and 20.4 MiB documents
    ("edge_table", 7), ("dot", 7), ("json_graph", 9)])
def test_export_memory_is_bounded(fmt, bound):
    net = network_108k()
    d = solve(symmetrize(net, "mean"))
    n = len(net.nodes)
    inputs = dict(decomp=d, communities=np.arange(n) % 7, format=fmt,
                  layout_result=LayoutResult(np.linspace(-1, 1, n),
                                             d.potentials.phi))
    size, peak = traced_peak(lambda: drained(export_graph(net, **inputs)))
    assert size == len("".join(export_graph(net, **inputs)))
    assert peak < bound * 2**20


def test_layout_deterministic(feed_forward_triangle):
    pv = potentials_for(feed_forward_triangle)
    a = layout(feed_forward_triangle, pv, seed=9)
    b = layout(feed_forward_triangle, pv, seed=9)
    assert layout_positions(feed_forward_triangle, a) == \
        layout_positions(feed_forward_triangle, b)
    assert a.energy_history == b.energy_history


def apply_jitter(points, nodes, jitter, min_sep, rng):
    """``_apply_jitter`` of {node: (x, y)}, with the nodes in the order
    of ``nodes``."""
    x, y = (np.array([points[v][k] for v in nodes]) for k in (0, 1))
    return by_node(nodes, x, _apply_jitter(nodes, x, y, jitter, min_sep, rng))


def test_jitter_bounded_and_targeted():
    points = {"A": (0.0, 0.0), "B": (0.0, 0.0), "C": (9.0, 5.0)}
    out = apply_jitter(points, ["A", "B", "C"], jitter=0.01, min_sep=1e-3,
                       rng=random.Random(1))
    # A and B coincide exactly; C is far from both
    for node in ("A", "B"):
        assert abs(out[node][1] - points[node][1]) <= 0.01
    assert out["A"][1] != out["B"][1]
    assert out["C"] == (9.0, 5.0)


def clustered_positions(n, rng, spacing):
    """n nodes on a coarse grid of pitch spacing, so that many share x, y or
    both exactly, and a few sit a fraction of spacing off a grid point."""
    out = {}
    for k in range(n):
        x = spacing * rng.randrange(12)
        y = spacing * rng.randrange(8)
        if rng.random() < 0.2:
            x += spacing * rng.choice((0.25, 0.5, 0.999, 1e-9))
        out[f"V{k:03d}"] = (x, y)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_jitter_matches_brute_force(seed):
    rng = random.Random(seed)
    positions = clustered_positions(300, rng, spacing=1e-3)
    nodes = sorted(positions, key=lambda v: rng.random())
    expected = brute_force_jitter(positions, nodes, 4e-4, 1e-3,
                                  random.Random(seed))
    got = apply_jitter(positions, nodes, 4e-4, 1e-3, random.Random(seed))
    assert got == expected
    moved = sum(got[v] != positions[v] for v in positions)
    assert 0 < moved < len(positions)


def test_jitter_of_20k_points_is_fast():
    rng = random.Random(3)
    positions = {f"V{k:05d}": (rng.random(), rng.random())
                 for k in range(20_000)}
    for k in range(0, 200, 2):  # 100 exact pairs
        positions[f"V{k + 1:05d}"] = positions[f"V{k:05d}"]
    start = time.perf_counter()
    out = apply_jitter(positions, list(positions), 1e-3, 1e-6,
                       random.Random(1))
    assert time.perf_counter() - start < 2.0
    # the first of each pair is jittered off the second, which then has room
    moved = {v for v in positions if out[v] != positions[v]}
    assert moved == {f"V{k:05d}" for k in range(0, 200, 2)}


def test_zero_jitter_leaves_y_exact_even_with_overlaps():
    net = make_network([], nodes=("A", "B"))
    pv = make_potentials(net.nodes, {"A": 0.0, "B": 0.0})
    result = layout(net, pv, seed=3, jitter=0.0)
    assert all(y == 0.0 for _, y in layout_positions(net, result).values())


@pytest.mark.parametrize("jitter", [math.nan, math.inf, -1.0])
def test_jitter_must_be_finite_and_non_negative(feed_forward_triangle, jitter):
    pv = potentials_for(feed_forward_triangle)
    with pytest.raises(PipelineError, match="jitter"):
        layout(feed_forward_triangle, pv, jitter=jitter)


def test_potentials_missing_a_node_are_refused(feed_forward_triangle):
    text = "node,component,potential\nA,0,0.0\n"
    with pytest.raises(PipelineError, match=r"node\(s\) \['B', 'C'\]"):
        read_node_table(text, feed_forward_triangle)


def test_potential_table_sorted(feed_forward_triangle):
    d = solve(symmetrize(feed_forward_triangle, "unit"))
    rows = potential_table(d, highlight={"C"})
    assert [r.node for r in rows] == ["A", "B", "C"]
    assert [r.rank for r in rows] == [1, 2, 3]
    assert rows[2].highlighted
    text = "".join(write_potential_table(rows))
    assert "1,A,0.667," in text
    assert "3,C,-0.667,*" in text


def test_potential_table_tie_broken_by_name():
    d = solve(symmetrize(make_network([("B", "A", 1), ("B", "C", 1)]), "unit"))
    rows = potential_table(d)
    names = [r.node for r in rows if abs(r.potential - rows[-1].potential) < 1e-9]
    assert names == sorted(names)


def test_potential_table_ranks_by_the_printed_value():
    # b and a both print 0.123, d and c print 0.000 and -0.000: each pair
    # ties, so a potential moving below the printed precision keeps the rows
    phi = {"b": 0.1234, "a": 0.12339, "d": 1e-5, "c": -1e-5}
    text = "".join(write_potential_table(potential_table(
        make_decomposition(phi))))
    assert text.splitlines()[1:] == ["1,a,0.123,", "2,b,0.123,",
                                     "3,c,-0.000,", "4,d,0.000,"]


def test_scatter_constant_column_flag():
    data = scatter_data(("A", "B"), np.array([0.5, 0.5]),
                        np.array([0.5, -0.5]))
    assert data.constant_column
    assert data.correlation == 0.0
    assert "constant_column" in "".join(write_scatter(data))


def test_scatter_identical_vectors():
    values = np.array([0.2, 0.3, 0.5])
    data = scatter_data(("A", "B", "C"), values, values)
    assert data.correlation == pytest.approx(1.0)


def test_scatter_pagerank_of_other_nodes_is_refused():
    with pytest.raises(PipelineError, match="line 2: column 'node'"):
        read_ranks("node,pagerank\nA,1.0\n", ("B",))


def test_scatter_composed_from_modules(feed_forward_triangle):
    d = solve(symmetrize(feed_forward_triangle, "unit"))
    pr = pagerank(feed_forward_triangle)
    data = scatter_data(feed_forward_triangle.nodes, pr.scores,
                        d.potentials.phi)
    assert len(data.rows) == 3
    assert not data.constant_column


def test_export_dot_minimal():
    net = make_network([("A", "B", 1)])
    doc = "".join(export_graph(net, format="dot"))
    assert doc.startswith("digraph")
    assert '"A" -> "B"' in doc
    assert 'weight="1"' in doc


def edge_table_network(doc):
    """The bare network of an edge_table export: its level marker, node
    lines of 5 fields and edge lines of 7."""
    lines = doc.splitlines()
    level = next(l.split("\t")[1] for l in lines if l.startswith("# level\t"))
    rows = [l.split("\t") for l in lines if l and not l.startswith("#")]
    return make_network([(r[0], r[1], int(r[2])) for r in rows if len(r) == 7],
                        level, [r[0] for r in rows if len(r) == 5])


def communities_of(net, seed):
    """Louvain's community label of each node of ``net``, in node order."""
    return in_node_order(net.nodes, louvain(net, seed=seed).assignment)


def test_edge_table_round_trip(feed_forward_triangle):
    d = solve(symmetrize(feed_forward_triangle, "unit"))
    communities = communities_of(feed_forward_triangle, seed=0)
    pv = d.potentials
    lay = layout(feed_forward_triangle, pv, seed=0)
    doc = "".join(export_graph(feed_forward_triangle, decomp=d,
                               communities=communities, layout_result=lay,
                               format="edge_table"))
    assert network_fields(edge_table_network(doc)) == \
        network_fields(feed_forward_triangle)
    # bare export round-trips too
    bare = "".join(export_graph(feed_forward_triangle,
                                format="edge_table"))
    assert network_fields(edge_table_network(bare)) == \
        network_fields(feed_forward_triangle)


def test_json_graph_attributes(feed_forward_triangle):
    import json
    d = solve(symmetrize(feed_forward_triangle, "unit"))
    doc = "".join(export_graph(
        feed_forward_triangle, decomp=d,
        communities=communities_of(feed_forward_triangle, 0),
        format="json_graph"))
    obj = json.loads(doc)
    assert {n["id"] for n in obj["nodes"]} == {"A", "B", "C"}
    for n in obj["nodes"]:
        assert "potential" in n and "community" in n
    assert len(obj["links"]) == 3
    for link in obj["links"]:
        assert math.isclose(link["F"], link["F_grad"] + link["F_circ"])


# a quote, a backslash, control characters, non-ASCII, a line separator
# and an astral character, which json writes as a surrogate pair
_JSON_IDS = ['a"b', "back\\slash", "nul\x00", "bell\x07\x1f\x7f", "line\nfeed",
             "Zürich", "\u2028", "smile\U0001F600", "plain"]


def awkward_network():
    ids = _JSON_IDS
    edges = [(ids[k], ids[(k + 1) % len(ids)], k + 1) for k in range(len(ids))]
    edges += [(ids[2], ids[0], 4), (ids[5], ids[1], 2), (ids[8], ids[3], 7)]
    return make_network(edges, level="li\"st\u00e9",
                        nodes=[*ids[::2], *ids[1::2]])


@pytest.mark.parametrize("with_decomp", [False, True])
@pytest.mark.parametrize("with_partition", [False, True])
@pytest.mark.parametrize("with_layout", [False, True])
def test_json_graph_matches_the_reference(with_decomp, with_partition,
                                          with_layout):
    net = awkward_network()
    d = solve(symmetrize(net, "mean"))
    inputs = dict(
        decomp=d if with_decomp else None,
        communities=communities_of(net, 0) if with_partition else None,
        layout_result=(layout(net, d.potentials, seed=0) if with_layout
                       else None))
    doc = "".join(export_graph(net, format="json_graph", **inputs))
    assert doc == json_graph_reference(net, **inputs)


@pytest.mark.parametrize("net", [
    make_network([], nodes=["A", "B\u00e9"]),
    make_network([], nodes=["solo"]),
    make_network([], nodes=[]),
], ids=["no links", "single node", "empty"])
def test_json_graph_without_links_matches_the_reference(net):
    n = len(net.nodes)
    d = make_decomposition({v: 0.0 for v in net.nodes})
    lay = LayoutResult(np.zeros(n), np.zeros(n))
    for inputs in ({}, dict(decomp=d, communities=np.zeros(n, int),
                            layout_result=lay)):
        doc = "".join(export_graph(net, format="json_graph", **inputs))
        assert doc == json_graph_reference(net, **inputs)


def test_json_graph_spells_floats_as_json_does():
    values = [-0.0, 0.0, 1e308, -1.7976931348623157e308, 5e-324, -2.5e-310,
              1e16, 1e-7, 0.1, 1 / 3, math.inf, -math.inf, math.nan]
    ids = [f"v{k:02d}" for k in range(len(values))]
    net = make_network([(ids[k], ids[k + 1], k + 1)
                        for k in range(len(ids) - 1)]
                       + [(ids[-1], ids[0], 3), (ids[4], ids[2], 1)],
                       nodes=ids)
    rot = values[5:] + values[:5]
    keys = [*zip(ids, ids[1:]), (ids[0], ids[-1]), (ids[2], ids[4])]
    d = make_decomposition(
        dict(zip(ids, values)), symmetrize(net, "mean"),
        dict(zip(keys, [*rot, 2.5])), dict(zip(keys, [*values[::-1], -0.5])))
    lay = LayoutResult(np.array(values[::-1]), np.array(rot))
    communities = np.arange(len(ids))
    with np.errstate(over="ignore"):  # F = F_grad + F_circ may overflow
        doc = "".join(export_graph(net, decomp=d, communities=communities,
                                   layout_result=lay, format="json_graph"))
    assert doc == json_graph_reference(net, decomp=d, communities=communities,
                                       layout_result=lay)
    assert "NaN" in doc and "-Infinity" in doc and "-0.0" in doc


def export_inputs(name):
    """A network and its decomposition, communities and layout: a synthetic
    network, a hand-written one with awkward identifiers and an isolated
    node, or one with no edges."""
    if name == "synth":
        net = build_institution_network(synth_generate(
            SynthConfig(n_issuers=10, n_entities=150, copy_prob=0.8), 5))
    elif name == "awkward":
        ids = ['q"uote', "back\\slash", "com,ma", "-", "Zürich", "Ωmega",
               "plain", "alone"]
        net = make_network([(ids[0], ids[1], 3), (ids[1], ids[2], 1),
                            (ids[2], ids[0], 2), (ids[3], ids[4], 5),
                            (ids[4], ids[3], 1), (ids[5], ids[6], 4),
                            (ids[6], ids[1], 2)], level="list, \"é\"",
                           nodes=ids[::-1])
    else:
        net = make_network([], nodes=["B\u00e9", "-", "A"])
    n = len(net.nodes)
    if net.src.size:
        d = solve(symmetrize(net, "mean"))
        return net, d, communities_of(net, 0), layout(net, d.potentials,
                                                      seed=0)
    return (net, make_decomposition({v: 0.25 * k for k, v
                                     in enumerate(net.nodes)}),
            np.arange(n) % 2, LayoutResult(np.linspace(-1, 1, n), np.ones(n)))


@pytest.mark.parametrize("with_decomp", [False, True])
@pytest.mark.parametrize("with_partition", [False, True])
@pytest.mark.parametrize("with_layout", [False, True])
@pytest.mark.parametrize("fmt", ["edge_table", "dot", "json_graph"])
@pytest.mark.parametrize("name", ["synth", "awkward", "no edges"])
def test_export_matches_the_reference(name, fmt, with_layout, with_partition,
                                      with_decomp):
    net, d, communities, lay = export_inputs(name)
    header = ("sanctionflow test", "report --x=1")
    inputs = dict(decomp=d if with_decomp else None,
                  communities=communities if with_partition else None,
                  layout_result=lay if with_layout else None, format=fmt)
    # the provenance lines lead only an edge table
    lead = preamble(header) if fmt == "edge_table" else ""
    assert lead + "".join(export_graph(net, **inputs)) == \
        export_graph_reference(net, **inputs, header=header)


@pytest.mark.parametrize("other", [
    make_network([("A", "B", 1), ("B", "C", 1)]),
    make_network([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)],
                 nodes=["A", "C", "B"]),
], ids=["other pairs", "other node order"])
def test_export_refuses_the_decomposition_of_another_network(
        feed_forward_triangle, other):
    d = solve(symmetrize(other, "unit"))
    for fmt in ("edge_table", "dot", "json_graph"):
        with pytest.raises(PipelineError, match="not the network's"):
            export_graph(feed_forward_triangle, decomp=d, format=fmt)


def test_unknown_format_errors(feed_forward_triangle):
    with pytest.raises(PipelineError):
        export_graph(feed_forward_triangle, format="gexf")

