"""Acceptance suite. Each test covers one release criterion at its stated
tolerance and prints one PASS line when it holds (run with -s to see them).
"""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau

import sanctionflow
from sanctionflow import (SynthConfig, assemble_laplacian,
                          build_institution_network, build_list_network,
                          louvain, modularity, pagerank, solve,
                          solve_potentials, symmetrize, synth_generate)
from conftest import (FIXTURES, by_node, ev, in_node_order, make_events,
                      make_flow, make_network, pairs_of, random_flow, split_of)
from oracles import (best_partition_bruteforce, brute_force_counts,
                     connected_edge_subsets, dense_pagerank_oracle,
                     dense_potential_oracle, oracle_ratios)


def ok(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_criterion_1_decomposition_identities():
    rng = random.Random(1001)
    start = time.time()
    checked = 0
    while checked < 200:
        flow = random_flow(rng, rng.randint(2, 200), edge_prob=0.1)
        pairs = pairs_of(flow)
        if not any(f != 0.0 for f, _ in pairs.values()):
            continue
        checked += 1
        d = solve(flow)
        gradient, circular = split_of(d)
        norm = sum(f * f / w for f, w in pairs.values())
        for key, (f, w) in pairs.items():
            total = gradient[key] + circular[key]
            assert abs(total - f) <= 2 * np.spacing(max(1.0, abs(f)))
        assert abs(d.gradient_ratio + d.loop_ratio - 1.0) <= 1e-10
        inner = sum(gradient[k] * circular[k] / w
                    for k, (_, w) in pairs.items())
        assert abs(inner) <= 1e-8 * norm
        div = {v: 0.0 for v in flow.nodes}
        for (a, b), fc in circular.items():
            div[a] += fc
            div[b] -= fc
        fmax = max(abs(x) for x in assemble_laplacian(flow).rhs) or 1.0
        assert max(abs(v) for v in div.values()) <= 1e-8 * fmax
    elapsed = time.time() - start
    assert elapsed < 60.0
    ok(1, f"identities hold on 200 random flow networks ({elapsed:.1f}s)")


def _flow_from_edges(n, edges, flows):
    nodes = tuple(f"N{i}" for i in range(n))
    pairs = {(nodes[i], nodes[j]): (float(f), 1.0)
             for (i, j), f in zip(edges, flows)}
    return make_flow(pairs, nodes, "unit")


def _check_against_oracle(flow):
    pv = solve_potentials(assemble_laplacian(flow), 1e-10)
    oracle = dense_potential_oracle(flow)
    phi = by_node(flow.nodes, pv.phi)
    for node in flow.nodes:
        assert abs(phi[node] - oracle[node]) <= 1e-9
    if any(f != 0.0 for f, _ in pairs_of(flow).values()):
        d = solve(flow)
        og, ol = oracle_ratios(flow, oracle)
        assert abs(d.gradient_ratio - og) <= 1e-9
        assert abs(d.loop_ratio - ol) <= 1e-9


def test_criterion_2_oracle_equivalence_exhaustive():
    start = time.time()
    rng = random.Random(2002)
    checked = 0
    for n in range(2, 7):
        for edges in connected_edge_subsets(n):
            if n <= 4:
                # every integer flow assignment in {-2..2}
                for flows in itertools.product(range(-2, 3), repeat=len(edges)):
                    _check_against_oracle(_flow_from_edges(n, edges, flows))
                    checked += 1
            else:
                draws = 3 if n == 5 else 1
                for _ in range(draws):
                    flows = [rng.randint(-2, 2) for _ in edges]
                    _check_against_oracle(_flow_from_edges(n, edges, flows))
                    checked += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    ok(2, f"potentials/ratios match the dense pseudoinverse oracle on "
          f"{checked} connected instances, n <= 6 ({elapsed:.1f}s)")


def test_criterion_3_closed_form_fixtures():
    ffw = make_network([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])
    d = solve(symmetrize(ffw, "unit"))
    phi = by_node(ffw.nodes, d.potentials.phi)
    assert abs(phi["A"] - 2 / 3) <= 1e-10
    assert abs(phi["B"]) <= 1e-10
    assert abs(phi["C"] + 2 / 3) <= 1e-10
    assert abs(d.gradient_ratio - 8 / 9) <= 1e-10
    assert abs(d.loop_ratio - 1 / 9) <= 1e-10

    cyc = make_network([("A", "B", 1), ("B", "C", 1), ("C", "A", 1)])
    dc = solve(symmetrize(cyc, "unit"))
    assert abs(dc.gradient_ratio) <= 1e-10
    assert abs(dc.loop_ratio - 1.0) <= 1e-10

    rng = random.Random(33)
    for trial in range(20):
        n = rng.randint(2, 40)
        nodes = tuple(f"N{i}" for i in range(n))
        pairs = {}
        for i in range(1, n):
            p = rng.randrange(i)
            pairs[(nodes[p], nodes[i])] = (float(rng.randint(-3, 3) or 2),
                                           rng.uniform(0.1, 2.0))
        dt = solve(make_flow(pairs, nodes, "unit"))
        assert dt.loop_ratio <= 1e-10
    ok(3, "feed-forward triangle, 3-cycle, and tree-support fixtures match "
          "their closed forms")


def test_criterion_4_zero_mean_convention():
    rng = random.Random(44)
    for trial in range(50):
        flow = random_flow(rng, rng.randint(2, 100), edge_prob=0.08)
        pv = solve_potentials(assemble_laplacian(flow), 1e-10)
        sums = {}
        phi = by_node(flow.nodes, pv.phi)
        for node, c in by_node(flow.nodes, pv.component).items():
            sums.setdefault(c, []).append(phi[node])
        for vals in sums.values():
            assert abs(sum(vals)) / len(vals) <= 1e-10
    ok(4, "every connected component has mean potential 0 within 1e-10")


def test_criterion_5_network_construction_brute_force():
    rng = random.Random(55)
    for trial in range(60):
        raw = []
        for _ in range(rng.randint(0, 50)):
            iss = rng.choice(["P", "Q", "R", "S", "T"])
            raw.append(ev(iss, f"{iss}-L{rng.randint(0, 2)}",
                          f"e{rng.randint(0, 5)}",
                          f"2010-01-{rng.randint(1, 15):02d}"))
        events = make_events(raw)
        assert dict(build_list_network(events).adjacency) == \
            brute_force_counts(events, "list")
        assert dict(build_institution_network(events).adjacency) == \
            brute_force_counts(events, "institution")
    # same-date tie rule
    tie = make_events([ev("A", "A-L", "e", "2010-01-01"),
                       ev("B", "B-L", "e", "2010-01-01")])
    assert build_list_network(tie).adjacency == {}
    assert build_institution_network(tie).adjacency == {}
    ok(5, "edge counts match the brute-force double loop; same-date pairs "
          "contribute nothing")


def test_criterion_6_community_detection():
    corpus = []
    tri2 = [(f"N{a}", f"N{b}", 1)
            for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]]
    corpus.append(("two triangles", make_network(tri2, level="list"), 0.5))
    bridged = tri2 + [("N2", "N3", 1)]
    corpus.append(("bridged triangles", make_network(bridged, level="list"),
                   5 / 14))
    rng = random.Random(66)
    for trial in range(6):
        n = rng.randint(4, 8)
        edges = [(f"N{i}", f"N{j}", rng.randint(1, 3))
                 for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.4]
        if edges:
            corpus.append((f"random-{trial}",
                           make_network(edges, nodes=[f"N{i}" for i in range(n)]),
                           None))
    for name, net, expected in corpus:
        best_q, _ = best_partition_bruteforce(net)
        if expected is not None:
            assert abs(best_q - expected) <= 1e-12
        results = [louvain(net, seed=s) for s in range(5)]
        attained = max(p.modularity for p in results)
        assert abs(attained - best_q) <= 1e-9, name
        for p in results:
            recomputed = modularity(
                net, in_node_order(net.nodes, p.assignment), p.resolution)
            assert abs(p.modularity - recomputed) <= 1e-12
    ok(6, "louvain attains the brute-force optimum (incl. Q=0.5 and Q=5/14) "
          "and returned Q matches recomputation")


def test_criterion_7_pagerank():
    star = make_network([("A", "B", 1), ("C", "B", 1)])
    scores = by_node(star.nodes, pagerank(star, damping=0.85).scores)
    assert abs(scores["A"] - 0.2128) <= 1e-3
    assert abs(scores["B"] - 0.5745) <= 1e-3
    assert abs(scores["C"] - 0.2128) <= 1e-3
    rng = random.Random(77)
    for trial in range(30):
        n = rng.randint(2, 10)
        edges = [(f"N{i}", f"N{j}", rng.randint(1, 5))
                 for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.35]
        net = make_network(edges, nodes=[f"N{i}" for i in range(n)])
        scores = by_node(net.nodes, pagerank(net, tol=1e-14).scores)
        assert abs(sum(scores.values()) - 1.0) <= 1e-12
        oracle = dense_pagerank_oracle(net)
        for node in net.nodes:
            assert abs(scores[node] - oracle[node]) <= 1e-8
    ok(7, "pagerank matches the dense eigenvector oracle and the dangling "
          "star fixture")


def test_criterion_8_planted_hierarchy_recovery():
    start = time.time()
    config = SynthConfig(n_issuers=6, n_entities=120, copy_prob=0.9)
    taus = []
    for seed in range(20):
        events = synth_generate(config, seed)
        net = build_institution_network(events)
        d = solve(symmetrize(net, "mean"))
        ranks = config.issuer_ranks()
        phi = by_node(net.nodes, d.potentials.phi)
        phis = [phi.get(f"ISS{i:03d}", 0.0)
                for i in range(config.n_issuers)]
        tau = kendalltau(phis, [-r for r in ranks]).statistic
        taus.append(tau)
    mean_tau = sum(taus) / len(taus)
    elapsed = time.time() - start
    assert mean_tau >= 0.8
    assert elapsed < 60.0
    ok(8, f"planted 6-issuer hierarchy recovered, mean Kendall tau "
          f"{mean_tau:.3f} over 20 seeds ({elapsed:.1f}s)")


def _run_pipeline(workdir, env):
    events_src = (FIXTURES / "events_small.csv").read_text()
    (workdir / "events.csv").write_text(events_src)
    stages = [
        ["ingest", "--events", "events.csv", "--out", "canonical.csv"],
        ["build", "--level", "institution", "--events", "canonical.csv",
         "--out", "net.tsv"],
        ["symmetrize", "--net", "net.tsv", "--mode", "mean",
         "--out", "flow.tsv"],
        ["decompose", "--net", "net.tsv", "--mode", "mean", "--tol", "1e-10",
         "--out", "hodge"],
        ["communities", "--net", "net.tsv", "--resolution", "1.0",
         "--seed", "1", "--out", "communities.csv"],
        ["pagerank", "--net", "net.tsv", "--out", "pagerank.csv"],
        ["layout", "--net", "net.tsv", "--potentials", "hodge/nodes.csv",
         "--seed", "2", "--out", "layout.csv"],
        ["report", "--net", "net.tsv", "--decomp", "hodge",
         "--pagerank", "pagerank.csv", "--partition", "communities.csv",
         "--layout", "layout.csv", "--graph-format", "json_graph",
         "--out", "report"],
    ]
    for argv in stages:
        proc = subprocess.run([sys.executable, "-m", "sanctionflow"] + argv,
                              cwd=workdir, env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
    outputs = {}
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name != "events.csv":
            outputs[str(path.relative_to(workdir))] = path.read_bytes()
    return outputs


def _child_pythonpath():
    # The stages run with cwd=workdir, where a relative entry such as
    # PYTHONPATH=src no longer resolves. Put the directory holding the
    # package this process imported first, so the children run the same code.
    package_root = str(Path(sanctionflow.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return os.pathsep.join([package_root] + ([inherited] if inherited else []))


def test_criterion_9_end_to_end_determinism(tmp_path):
    runs = []
    for label, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        workdir = tmp_path / label
        workdir.mkdir()
        env = dict(os.environ,
                   PYTHONPATH=_child_pythonpath(),
                   OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        runs.append(_run_pipeline(workdir, env))
    assert runs[0].keys() == runs[1].keys() == runs[2].keys()
    for name in runs[0]:
        assert runs[0][name] == runs[1][name] == runs[2][name], name
    ok(9, f"full pipeline byte-identical across repeated runs and thread "
          f"counts ({len(runs[0])} artifacts)")
