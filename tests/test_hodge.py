import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sanctionflow import (ConvergenceError, PipelineError,
                          assemble_laplacian, decompose, hodge, solve,
                          solve_potentials, symmetrize)
from sanctionflow.netbuild import FlowNetwork
from conftest import (by_node, make_flow, make_network, pairs_of, random_flow,
                      split_of, traced_peak)
from oracles import (components_reference, dense_potential_oracle,
                     oracle_ratios, solve_potentials_reference)

TOL = 1e-10


def solve_net(net, mode="unit"):
    flow = symmetrize(net, mode)
    return flow, solve(flow)


def test_assemble_two_nodes():
    flow = make_flow({("A", "B"): (1, 1)})
    system = assemble_laplacian(flow)
    rows, cols, w = system.weights
    assert (rows.tolist(), cols.tolist(), w.tolist()) == ([0], [1], [1.0])
    assert list(system.rhs) == [1.0, -1.0]
    assert system.components == ((0, 1),)


def test_assemble_triangle_diagonal():
    flow = make_flow({("A", "B"): (1, 1), ("B", "C"): (1, 1),
                      ("A", "C"): (1, 1)})
    rows, cols, w = assemble_laplacian(flow).weights
    assert list(zip(rows.tolist(), cols.tolist(), w.tolist())) == [
        (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]


def test_assemble_disconnected_components():
    flow = make_flow({("A", "B"): (1, 1), ("C", "D"): (1, 1)})
    system = assemble_laplacian(flow)
    assert system.components == ((0, 1), (2, 3))


def test_a_solve_reads_the_labels_and_never_builds_components(monkeypatch):
    flow = make_flow({("A", "B"): (1, 1), ("C", "D"): (2, 1)})
    system = assemble_laplacian(flow)
    assert solve_potentials(system, TOL).component is system.label
    assert "components" not in vars(system)
    systems = []
    monkeypatch.setattr(hodge, "assemble_laplacian", lambda flow: systems.append(
        assemble_laplacian(flow)) or systems[-1])
    assert solve(flow).potentials.component.tolist() == [0, 0, 1, 1]
    assert len(systems) == 1 and "components" not in vars(systems[0])


def test_two_node_potentials():
    flow = make_flow({("A", "B"): (1, 1)})
    phi = by_node(flow.nodes, solve_potentials(assemble_laplacian(flow),
                                               TOL).phi)
    assert phi["A"] == pytest.approx(0.5, abs=1e-12)
    assert phi["B"] == pytest.approx(-0.5, abs=1e-12)


def test_cycle_has_zero_potentials(three_cycle):
    _, d = solve_net(three_cycle)
    assert all(abs(v) < 1e-12 for v in d.potentials.phi.tolist())
    assert d.gradient_ratio == pytest.approx(0.0, abs=TOL)
    assert d.loop_ratio == pytest.approx(1.0, abs=TOL)


def test_feed_forward_triangle(feed_forward_triangle):
    flow, d = solve_net(feed_forward_triangle)
    gradient, circular = split_of(d)
    phi = by_node(flow.nodes, d.potentials.phi)
    assert phi["A"] == pytest.approx(2 / 3, abs=TOL)
    assert phi["B"] == pytest.approx(0.0, abs=TOL)
    assert phi["C"] == pytest.approx(-2 / 3, abs=TOL)
    assert gradient[("A", "B")] == pytest.approx(2 / 3, abs=TOL)
    assert gradient[("B", "C")] == pytest.approx(2 / 3, abs=TOL)
    assert gradient[("A", "C")] == pytest.approx(4 / 3, abs=TOL)
    assert circular[("A", "B")] == pytest.approx(1 / 3, abs=TOL)
    assert circular[("A", "C")] == pytest.approx(-1 / 3, abs=TOL)
    assert d.gradient_ratio == pytest.approx(8 / 9, abs=TOL)
    assert d.loop_ratio == pytest.approx(1 / 9, abs=TOL)


def test_two_node_flow_is_pure_gradient():
    flow = make_flow({("A", "B"): (1, 1)})
    d = solve(flow)
    gradient, circular = split_of(d)
    assert gradient[("A", "B")] == pytest.approx(1.0, abs=TOL)
    assert circular[("A", "B")] == pytest.approx(0.0, abs=TOL)
    assert d.gradient_ratio == pytest.approx(1.0, abs=TOL)


def test_path_graph_is_pure_gradient():
    net = make_network([("A", "B", 1), ("B", "C", 1)])
    _, d = solve_net(net)
    assert d.loop_ratio == pytest.approx(0.0, abs=TOL)


def test_all_zero_flow_ratios_error():
    flow = make_flow({("A", "B"): (0, 1)})
    with pytest.raises(PipelineError, match="undefined"):
        solve(flow)


def test_node_table_of_other_nodes_is_refused():
    net = make_network([("A", "B", 1)])
    other = make_flow({("A", "C"): (1, 1)})
    text = "".join(hodge.write_node_table(solve(other)))
    own = "".join(hodge.write_node_table(solve(symmetrize(net, "unit"))))
    assert by_node(net.nodes, hodge.read_node_table(own, net).phi) == {
        "A": 0.5, "B": -0.5}
    with pytest.raises(PipelineError, match="line 3: column 'node'"):
        hodge.read_node_table(text, net)


def test_node_table_components_must_be_the_solved_labels():
    # components numbered by their first node in node order: {D, E} is 0,
    # {A, B, C} is 1 and the isolated Z is 2
    net = make_network([("C", "A", 1), ("B", "C", 2), ("E", "D", 1)],
                       nodes=("E", "C", "Z", "A", "D", "B"))
    decomp = solve(symmetrize(net, "mean"))
    text = "".join(hodge.write_node_table(decomp))
    read = hodge.read_node_table(text, net)
    assert by_node(net.nodes, read.component) == {
        "A": 1, "B": 1, "C": 1, "D": 0, "E": 0, "Z": 2}
    assert np.array_equal(read.phi, decomp.potentials.phi)
    lines = text.split("\n")
    at = next(k for k, line in enumerate(lines) if line.startswith("Z,"))
    lines[at] = lines[at].replace("Z,2,", "Z,1,")
    with pytest.raises(PipelineError,
                       match=f"line {at + 1}: column 'component'"):
        hodge.read_node_table("\n".join(lines), net)


def test_isolated_nodes_get_zero_potential():
    flow = make_flow({("A", "B"): (1.0, 1.0)}, nodes=("A", "B", "Z"))
    pv = solve_potentials(assemble_laplacian(flow), TOL)
    phi, component = (by_node(flow.nodes, v) for v in (pv.phi, pv.component))
    assert phi["Z"] == 0.0
    assert component["Z"] != component["A"]


def test_mean_zero_per_component():
    rng = random.Random(0)
    for trial in range(10):
        flow = random_flow(rng, 30)
        pv = solve_potentials(assemble_laplacian(flow), TOL)
        by_comp = {}
        phi = by_node(flow.nodes, pv.phi)
        for node, c in by_node(flow.nodes, pv.component).items():
            by_comp.setdefault(c, []).append(phi[node])
        for vals in by_comp.values():
            assert abs(sum(vals) / len(vals)) < 1e-10


def test_matches_dense_oracle_random():
    rng = random.Random(42)
    for trial in range(25):
        flow = random_flow(rng, rng.randint(2, 40))
        if not len(flow.lo):
            continue
        pv = solve_potentials(assemble_laplacian(flow), TOL)
        oracle = dense_potential_oracle(flow)
        phi = by_node(flow.nodes, pv.phi)
        for node in flow.nodes:
            assert phi[node] == pytest.approx(oracle[node], abs=1e-9)


def test_decomposition_identities_random():
    rng = random.Random(7)
    for trial in range(20):
        flow = random_flow(rng, rng.randint(3, 60))
        pairs = pairs_of(flow)
        total = sum(f * f for f, _ in pairs.values())
        if total == 0:
            continue
        d = solve(flow)
        gradient, circular = split_of(d)
        # additivity to machine precision (1 ulp slack for the re-sum)
        for key, (f, w) in pairs.items():
            total = gradient[key] + circular[key]
            assert abs(total - f) <= 2 * np.spacing(max(1.0, abs(f)))
        # ratio normalization
        assert d.gradient_ratio + d.loop_ratio == pytest.approx(1.0, abs=1e-10)
        # orthogonality in the weighted inner product
        inner = sum(gradient[k] * circular[k] / w
                    for k, (_, w) in pairs.items())
        norm = sum(f * f / w for f, w in pairs.values())
        assert abs(inner) <= 1e-8 * norm
        # divergence-free circulation
        div = {n: 0.0 for n in flow.nodes}
        fmax = 0.0
        for (a, b), (f, w) in pairs.items():
            div[a] += circular[(a, b)]
            div[b] -= circular[(a, b)]
        system = assemble_laplacian(flow)
        fmax = max(abs(x) for x in system.rhs) or 1.0
        assert max(abs(v) for v in div.values()) <= 1e-8 * fmax


def test_scale_covariance():
    rng = random.Random(3)
    flow = random_flow(rng, 20)
    c = 3.7
    scaled = make_flow({k: (c * f, w) for k, (f, w) in pairs_of(flow).items()},
                       flow.nodes, flow.weight_mode)
    d1 = solve(flow)
    d2 = solve(scaled)
    phi1, phi2 = (by_node(flow.nodes, d.potentials.phi) for d in (d1, d2))
    for node in flow.nodes:
        assert phi2[node] == pytest.approx(c * phi1[node], rel=1e-9,
                                           abs=1e-12)
    assert d2.gradient_ratio == pytest.approx(d1.gradient_ratio, abs=1e-9)
    assert d2.loop_ratio == pytest.approx(d1.loop_ratio, abs=1e-9)


def test_tree_support_is_loop_free():
    rng = random.Random(9)
    for trial in range(10):
        n = rng.randint(2, 30)
        nodes = tuple(f"N{i}" for i in range(n))
        pairs = {}
        for i in range(1, n):
            parent = rng.randrange(i)
            f = rng.randint(-3, 3) or 1
            pairs[(nodes[parent], nodes[i])] = (float(f), rng.uniform(0.1, 2))
        d = solve(make_flow(pairs, nodes, "unit"))
        assert d.loop_ratio <= 1e-10


def test_balanced_circulation_is_gradient_free():
    # flow around a cycle of random length with equal magnitude everywhere
    rng = random.Random(11)
    for trial in range(5):
        n = rng.randint(3, 12)
        nodes = tuple(f"N{i}" for i in range(n))
        mag = rng.uniform(0.5, 2.0)
        pairs = {}
        for i in range(n):
            a, b = nodes[i], nodes[(i + 1) % n]
            key = (a, b) if i + 1 < n or n == 1 else (b, a)
            sign = 1.0 if key == (a, b) else -1.0
            pairs[key] = (sign * mag, 1.0)
        d = solve(make_flow(pairs, nodes, "unit"))
        assert d.gradient_ratio <= 1e-10


def test_large_component_uses_cg_and_matches_oracle():
    rng = random.Random(123)
    flow = random_flow(rng, 150, edge_prob=0.08)
    pv = solve_potentials(assemble_laplacian(flow), TOL)
    oracle = dense_potential_oracle(flow)
    phi = by_node(flow.nodes, pv.phi)
    for node in flow.nodes:
        assert phi[node] == pytest.approx(oracle[node], abs=1e-8)


def test_residual_norm_is_small(feed_forward_triangle):
    _, d = solve_net(feed_forward_triangle)
    assert d.residual_norm < 1e-12


def test_many_two_node_components_solve_quickly():
    # 16k disjoint pairs: the per-component work must not rescan every pair
    n_pairs = 16_000
    nodes = tuple(f"P{k:05d}{end}" for k in range(n_pairs) for end in "ab")
    pairs = {(f"P{k:05d}a", f"P{k:05d}b"): (float(k % 5 - 2), 1.0 + k % 3)
             for k in range(n_pairs)}
    system = assemble_laplacian(make_flow(pairs, nodes, "unit"))
    assert len(system.components) == n_pairs
    start = time.perf_counter()
    pv = solve_potentials(system, TOL)
    assert time.perf_counter() - start < 3.0
    phi = by_node(nodes, pv.phi)
    for (a, b), (f, w) in pairs.items():
        assert phi[a] == pytest.approx(f / (2 * w), abs=1e-12)
        assert phi[b] == pytest.approx(-f / (2 * w), abs=1e-12)


def test_weighted_path_is_solved_exactly():
    # weights from 1 to 1e6 along a 5000-node path; flows scale with the
    # weights (|F| <= w), as symmetrize's mean mode gives (|F| <= 2w)
    n = 5000
    w = np.logspace(0, 6, n - 1)
    u = np.random.default_rng(5).uniform(-1.0, 1.0, n - 1)
    nodes = tuple(f"N{i:04d}" for i in range(n))
    pairs = {(nodes[i], nodes[i + 1]): (float(u[i] * w[i]), float(w[i]))
             for i in range(n - 1)}
    flow = make_flow(pairs, nodes, "mean")
    start = time.perf_counter()
    pv = solve_potentials(assemble_laplacian(flow), TOL)
    assert time.perf_counter() - start < 3.0
    d = decompose(flow, pv)
    assert d.loop_ratio <= 1e-10
    phi = by_node(nodes, pv.phi)
    for i in range(n - 1):
        f, wi = pairs[(nodes[i], nodes[i + 1])]
        assert phi[nodes[i]] - phi[nodes[i + 1]] == pytest.approx(
            f / wi, abs=1e-9)



def test_small_flows_on_large_weights_are_solved_without_raising():
    # flows in [-1, 1] on a 5000-node path with weights from 1 to 1e6:
    # the rounding of phi alone, times weights near 1e6, leaves
    # max|L phi - f| near 1e-9, far above tol * max|f|, although
    # leaf elimination solves the path exactly
    n = 5000
    w = np.logspace(0, 6, n - 1)
    u = np.random.default_rng(5).uniform(-1.0, 1.0, n - 1)
    nodes = tuple(f"N{i:04d}" for i in range(n))
    pairs = {(nodes[i], nodes[i + 1]): (float(u[i]), float(w[i]))
             for i in range(n - 1)}
    flow = make_flow(pairs, nodes, "mean")
    pv = solve_potentials(assemble_laplacian(flow), TOL)
    assert decompose(flow, pv).loop_ratio <= 1e-10
    phi = by_node(nodes, pv.phi)
    for i in range(n - 1):
        f, wi = pairs[(nodes[i], nodes[i + 1])]
        assert phi[nodes[i]] - phi[nodes[i + 1]] == pytest.approx(
            f / wi, abs=1e-9)


def test_solution_beyond_the_backward_error_bound_raises(monkeypatch):
    flow = make_flow({("A", "B"): (1, 1), ("B", "C"): (2, 1)})
    monkeypatch.setattr(hodge, "_solve_stack",
                        lambda lap, rhs, cids: np.zeros_like(rhs))
    with pytest.raises(ConvergenceError):
        solve_potentials(assemble_laplacian(flow), TOL)


def test_singular_component_in_a_stack_is_named():
    # five 2-node components solved as one stack; only component 3's
    # counts make its (L + J/2) singular in float64
    edges = [(f"C{c}a", f"C{c}b", 2 ** 53 if c == 3 else 2)
             for c in range(5)]
    edges += [(f"C{c}b", f"C{c}a", 5 if c == 3 else 1) for c in range(5)]
    system = assemble_laplacian(symmetrize(make_network(edges), "mean"))
    assert [len(comp) for comp in system.components] == [2] * 5
    with pytest.raises(ConvergenceError,
                       match=r"^component 3 \(2 nodes\) is numerically "
                             "singular"):
        solve_potentials(system, TOL)


@st.composite
def pair_sets(draw):
    n = draw(st.integers(0, 40))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=0 if n == 0 else 80))
    lo, hi = (np.array([p[k] for p in pairs], np.int64) for k in range(2))
    return n, lo, hi


@settings(max_examples=300, deadline=None)
@given(pair_sets())
def test_components_match_the_union_find(case):
    # any pair set: n = 0, isolated nodes, repeated, reversed and self pairs
    n, lo, hi = case
    assert np.array_equal(hodge._components(n, lo, hi),
                          components_reference(n, lo, hi))


def test_components_of_a_permuted_path_match_the_union_find():
    # a path whose nodes are numbered at random needs the most jump rounds
    n = 5000
    path = np.random.default_rng(3).permutation(n)
    lo, hi = np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])
    label = hodge._components(n, lo, hi)
    assert np.array_equal(label, components_reference(n, lo, hi))
    assert not label.any()


def _component_flow(rng, sizes, chords):
    """A flow of one random tree plus up to ``chords`` extra pairs per
    component of each size, its nodes numbered at random so that the
    components' pairs interleave in (lo, hi) order, with fractional flows
    and weights."""
    n = sum(sizes)
    perm = rng.permutation(n)
    pairs, start = set(), 0
    for size in sizes:
        ids = perm[start:start + size].tolist()
        start += size
        for k in range(1, size):
            pairs.add((ids[int(rng.integers(k))], ids[k]))
        for _ in range(chords if size > 2 else 0):
            a, b = rng.choice(size, 2, replace=False).tolist()
            pairs.add((ids[a], ids[b]))
    keys = sorted({(min(p), max(p)) for p in pairs})
    lo, hi = (np.array([k[j] for k in keys], np.int64) for j in range(2))
    return FlowNetwork(tuple(f"N{i:06d}" for i in range(n)), lo, hi,
                       rng.uniform(-3.0, 3.0, len(keys)),
                       rng.uniform(1e-3, 2.0, len(keys)), "mean")


def _assert_solves_match_the_reference(flow):
    system = assemble_laplacian(flow)
    label = components_reference(len(flow.nodes), flow.lo, flow.hi)
    assert system.components == tuple(
        tuple(np.flatnonzero(label == c).tolist())
        for c in range(label.max(initial=-1) + 1))
    pv, ref = solve_potentials(system, TOL), solve_potentials_reference(
        system, TOL)
    assert np.array_equal(pv.phi, ref.phi)
    assert np.array_equal(pv.component, ref.component)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, hodge.DENSE_LIMIT + 8), min_size=1,
                max_size=8),
       st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
def test_stacked_solves_match_the_per_component_reference(sizes, chords, seed):
    _assert_solves_match_the_reference(
        _component_flow(np.random.default_rng(seed), sizes, chords))


def test_stacks_split_at_the_batch_cap_match_the_reference():
    # 150 components of 3 nodes and 70 of 5 fill several capped stacks
    rng = np.random.default_rng(11)
    sizes = [3] * 150 + [5] * 70 + [1] * 5 + [2, 64, 65, 90]
    _assert_solves_match_the_reference(
        _component_flow(rng, rng.permutation(sizes).tolist(), 3))


def test_stacked_solve_memory_is_bounded():
    # 2000 components of 64 nodes, each a random tree plus 8 chords; one
    # stack of every component would hold 2000 64 x 64 matrices (62.5 MiB)
    flow = _component_flow(np.random.default_rng(8), [64] * 2000, 8)
    assert len(flow.lo) > 140_000
    system = assemble_laplacian(flow)
    pv, peak = traced_peak(lambda: solve_potentials(system, TOL))
    assert decompose(flow, pv).residual_norm < 1e-9
    # 10.3 MiB when each component was solved alone
    assert peak < 16 * 2 ** 20

def _cyclic_core_with_trees(rng, core=100):
    """A ring with chords (every core node has degree >= 2), plus chains
    of 1-5 nodes hanging off it and leaves hanging off the chains."""
    pairs = {}

    def add(a, b):
        pairs[(a, b)] = (float(rng.randint(-3, 3)), rng.uniform(1e-3, 1.0))

    ring = [f"C{i:03d}" for i in range(core)]
    for i in range(core):
        add(ring[i], ring[(i + 1) % core])
    for _ in range(core // 2):
        a, b = rng.sample(ring, 2)
        if (b, a) not in pairs:
            add(a, b)
    for t in range(40):
        prev = rng.choice(ring)
        for k in range(rng.randint(1, 5)):
            node = f"T{t:02d}-{k}"
            add(prev, node)
            if rng.random() < 0.3:
                add(node, f"T{t:02d}-{k}-leaf")
            prev = node
    return make_flow(pairs)


def test_leaf_elimination_and_core_pcg_match_dense_oracle():
    rng = random.Random(2011)
    for trial in range(3):
        flow = _cyclic_core_with_trees(rng)
        assert len(flow.nodes) > 2 * hodge.DENSE_LIMIT
        pv = solve_potentials(assemble_laplacian(flow), TOL)
        oracle = dense_potential_oracle(flow)
        phi = by_node(flow.nodes, pv.phi)
        for node in flow.nodes:
            assert phi[node] == pytest.approx(oracle[node], abs=1e-8)


def test_large_tree_matches_dense_oracle():
    # a pure tree reduces to a one-node core and is solved exactly
    rng = random.Random(4)
    n = 300
    nodes = [f"N{i:03d}" for i in range(n)]
    pairs = {(nodes[rng.randrange(i)], nodes[i]):
             (float(rng.randint(-3, 3)), rng.uniform(1e-3, 1.0))
             for i in range(1, n)}
    flow = make_flow(pairs, nodes=nodes)
    pv = solve_potentials(assemble_laplacian(flow), TOL)
    oracle = dense_potential_oracle(flow)
    phi = by_node(flow.nodes, pv.phi)
    for node in flow.nodes:
        assert phi[node] == pytest.approx(oracle[node], abs=1e-8)
    assert decompose(flow, pv).loop_ratio <= 1e-10


def test_unreachable_tolerance_names_the_component():
    rng = random.Random(123)
    flow = random_flow(rng, 150, edge_prob=0.08)
    system = assemble_laplacian(flow)
    assert len(system.components) == 1
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as info:
        solve_potentials(system, 1e-300)
    assert time.perf_counter() - start < 5.0
    message = str(info.value)
    assert re.search(r"component 0 \(150 nodes, core of 150 after leaf "
                     r"elimination, \d+ iterations\)", message), message
    assert "achieved residual" in message
    assert info.value.residual > 0.0


def test_unreachable_tolerance_reports_the_best_iterate():
    # PCG stops once its residual stagnates, instead of drifting on until
    # a breakdown, and reports the residual of the best iterate it saw
    rng = random.Random(123)
    flow = random_flow(rng, 150, edge_prob=0.08)
    with pytest.raises(ConvergenceError) as info:
        solve_potentials(assemble_laplacian(flow), 1e-300)
    assert info.value.residual < 1e-10


def test_decompose_residual_without_reassembly(monkeypatch):
    rng = random.Random(21)
    flow = random_flow(rng, 40)
    pv = solve_potentials(assemble_laplacian(flow), TOL)
    idx = {node: k for k, node in enumerate(flow.nodes)}
    lap = np.zeros((len(idx), len(idx)))
    rhs = np.zeros(len(idx))
    for (a, b), (f, w) in pairs_of(flow).items():
        i, j = idx[a], idx[b]
        lap[[i, j], [i, j]] += w
        lap[i, j] -= w
        lap[j, i] -= w
        rhs[i] += f
        rhs[j] -= f
    expected = float(np.abs(lap @ pv.phi - rhs).max())

    def fail(_flow):
        raise AssertionError("decompose re-assembled the Laplacian")

    monkeypatch.setattr(hodge, "assemble_laplacian", fail)
    d = decompose(flow, pv)
    assert d.residual_norm == pytest.approx(expected, abs=1e-13)
    assert d.residual_norm < 1e-9
