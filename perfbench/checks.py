#!/usr/bin/env python3
"""Independent checks of one pipeline run's artifacts.

Reads the files only (never imports sanctionflow) and recomputes what it
can from ``net.tsv``: the flow pairs, the potentials by a scipy.sparse
least-squares solve, PageRank stationarity and modularity.

Usage: python3 perfbench/checks.py RUN_DIR WORKLOAD OUT_JSON
Writes a JSON list of [stage, reason] for every failed check.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lsqr

from workloads import WORKLOADS, Workload

TOL = 1e-10           # decompose --tol default
DAMPING = 0.85        # pagerank --damping default
AGREE = 1e-6          # agreement with the independent solve


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]


class Net:
    """net.tsv parsed on its own: node order, counts, flow pairs."""

    def __init__(self, path: Path):
        self.nodes: list[str] = []
        self.adj: dict[tuple[str, str], int] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line or line.startswith("#"):
                continue
            f = line.split("\t")
            if len(f) == 1:
                self.nodes.append(f[0])
            else:
                self.adj[(f[0], f[1])] = int(f[2])
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.pairs: dict[tuple[str, str], tuple[float, float]] = {}
        for a, b in self.adj:
            i, j = (a, b) if self.index[a] < self.index[b] else (b, a)
            a_ij, a_ji = self.adj.get((i, j), 0), self.adj.get((j, i), 0)
            self.pairs[(i, j)] = (float(a_ij - a_ji), (a_ij + a_ji) / 2.0)


def reference_potentials(net: Net) -> tuple[np.ndarray, float]:
    """Minimum-norm weighted least squares: rows sqrt(w)(phi_i - phi_j)
    against F / sqrt(w). Returns (phi, gradient ratio)."""
    keys = list(net.pairs)
    i = np.array([net.index[a] for a, _ in keys])
    j = np.array([net.index[b] for _, b in keys])
    f = np.array([net.pairs[k][0] for k in keys])
    w = np.array([net.pairs[k][1] for k in keys])
    sw = np.sqrt(w)
    m = len(keys)
    a = sp.csr_matrix((np.concatenate([sw, -sw]),
                       (np.tile(np.arange(m), 2), np.concatenate([i, j]))),
                      shape=(m, len(net.nodes)))
    phi = lsqr(a, f / sw, atol=1e-15, btol=1e-15, iter_lim=50_000)[0]
    grad = w * (phi[i] - phi[j])
    return phi, float((grad ** 2 / w).sum() / (f ** 2 / w).sum())


def check_run(run: Path, workload: Workload) -> list[tuple[str, str]]:
    failures: list[tuple[str, str]] = []

    def expect(ok: bool, stage: str, why: str) -> None:
        if not ok:
            failures.append((stage, why))

    def covers(stage: str, path: Path, nodes) -> None:
        got = set(nodes)
        expect(got == want, stage, f"{path.name} covers {len(got & want)} of "
               f"{len(want)} nodes, plus {len(got - want)} unknown")

    earliest: dict[tuple[str, str], tuple[str, str]] = {}
    for issuer, list_id, entity, day, *_ in _rows(run.parent / "events.csv"):
        key = (list_id, entity)
        earliest[key] = min(earliest.get(key, (day, issuer)), (day, issuer))
    canonical = _rows(run / "canonical.csv")
    expect(sorted(earliest.items()) == sorted(((r[1], r[2]), (r[3], r[0]))
                                              for r in canonical),
           "ingest", "canonical.csv is not the earliest event per list entry")

    net = Net(run / "net.tsv")
    want = set(net.nodes)
    column = 0 if workload.level == "institution" else 1
    covers("build", run / "canonical.csv", (r[column] for r in canonical))

    flow = {}
    for line in (run / "flow.tsv").read_text(encoding="utf-8").splitlines():
        f = line.split("\t")
        if len(f) == 4 and not line.startswith("#"):
            flow[(f[0], f[1])] = (float(f[2]), float(f[3]))
    expect(flow == net.pairs, "symmetrize", "flow.tsv differs from net.tsv")

    hodge = run / "hodge"
    node_rows = _rows(hodge / "nodes.csv")
    covers("decompose", hodge / "nodes.csv", (r[0] for r in node_rows))
    potential = {r[0]: float(r[2]) for r in node_rows}
    pairs = _rows(hodge / "pairs.csv")
    expect({(r[0], r[1]) for r in pairs} == set(net.pairs), "decompose",
           "pairs.csv does not cover the flow pairs")
    (g, loop, residual), = [[float(x) for x in r]
                            for r in _rows(hodge / "summary.csv")]
    expect(abs(g + loop - 1.0) <= 1e-9, "decompose",
           f"gradient_ratio + loop_ratio = {g + loop!r}")
    f_out = np.zeros(len(net.nodes))
    for (a, b), (fl, _) in net.pairs.items():
        f_out[net.index[a]] += fl
        f_out[net.index[b]] -= fl
    bound = TOL * max(1.0, float(np.abs(f_out).max(initial=0.0)))
    expect(residual <= bound, "decompose",
           f"residual_norm {residual!r} above {bound!r}")
    phi_ref, g_ref = reference_potentials(net)
    expect(abs(g - g_ref) <= AGREE, "decompose",
           f"gradient_ratio {g!r}, independent solve {g_ref!r}")
    if set(potential) == want:
        phi = np.array([potential[v] for v in net.nodes])
        scale = max(1.0, float(np.abs(phi_ref).max(initial=0.0)))
        err = float(np.abs(phi - phi_ref).max(initial=0.0))
        expect(err <= AGREE * scale, "decompose",
               f"potentials differ from the independent solve by {err!r}")

    ranks = {r[0]: float(r[1]) for r in _rows(run / "pagerank.csv")}
    covers("pagerank", run / "pagerank.csv", ranks)
    if set(ranks) == want:
        v = np.array([ranks[n] for n in net.nodes])
        expect(abs(v.sum() - 1.0) <= 1e-9, "pagerank",
               f"scores sum to {v.sum()!r}")
        expect(float(np.abs(_power_step(net, v) - v).sum()) <= 1e-9,
               "pagerank", "scores are not stationary under one more step")

    comm_path = run / "communities.csv"
    assignment = {r[0]: int(r[1]) for r in _rows(comm_path)}
    covers("communities", comm_path, assignment)
    q_line = [l for l in comm_path.read_text().splitlines()
              if l.startswith("# Q\t")]
    expect(len(q_line) == 1, "communities", "communities.csv has no Q line")
    if set(assignment) == want and len(q_line) == 1:
        q = float(q_line[0].split("\t")[1])
        q_ref = _modularity(net, assignment)
        expect(abs(q - q_ref) <= 1e-9, "communities",
               f"Q {q!r}, recomputed {q_ref!r}")

    if workload.layout:
        pos = {r[0]: float(r[2]) for r in _rows(run / "layout.csv")}
        covers("layout", run / "layout.csv", pos)
        expect(all(pos.get(v) == potential.get(v) for v in want), "layout",
               "layout y differs from the potential")

    report = run / "report"
    covers("report", report / "potential_table.csv",
           (r[1] for r in _rows(report / "potential_table.csv")))
    covers("report", report / "scatter.csv",
           (r[0] for r in _rows(report / "scatter.csv")))
    covers("report", report / "graph", _graph_nodes(report,
                                                    workload.graph_format))
    return failures


def _power_step(net: Net, v: np.ndarray) -> np.ndarray:
    n = len(net.nodes)
    out = np.zeros(n)
    for (a, _), c in net.adj.items():
        out[net.index[a]] += c
    nxt = np.zeros(n)
    for (a, b), c in net.adj.items():
        nxt[net.index[b]] += c * v[net.index[a]] / out[net.index[a]]
    nxt = DAMPING * (nxt + v[out == 0].sum() / n) + (1.0 - DAMPING) / n
    return nxt / nxt.sum()


def _modularity(net: Net, assignment: dict[str, int]) -> float:
    strength = dict.fromkeys(net.nodes, 0.0)
    internal = 0.0
    total = 0.0
    for (a, b), c in net.adj.items():
        strength[a] += c
        strength[b] += c
        total += c
        if assignment[a] == assignment[b]:
            internal += 2.0 * c
    per: dict[int, float] = {}
    for v, s in strength.items():
        per[assignment[v]] = per.get(assignment[v], 0.0) + s
    return internal / (2 * total) - sum((s / (2 * total)) ** 2
                                        for s in per.values())


def _graph_nodes(report: Path, fmt: str) -> list[str]:
    if fmt == "json_graph":
        doc = json.loads((report / "graph.json").read_text(encoding="utf-8"))
        return [n["id"] for n in doc["nodes"]]
    if fmt == "dot":
        lines = (report / "graph.dot").read_text(encoding="utf-8").splitlines()
        return [json.loads(l.strip().split(" [")[0].rstrip(";"))
                for l in lines[1:-1] if " -> " not in l]
    lines = (report / "graph.tsv").read_text(encoding="utf-8").splitlines()
    return [l.split("\t")[0] for l in lines
            if not l.startswith("#") and l.count("\t") == 4]


def main() -> int:
    run, name, out = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
    out.write_text(json.dumps(check_run(run, WORKLOADS[name])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
