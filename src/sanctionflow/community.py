"""Modularity and Louvain-style community detection.

Directed influence counts are symmetrized (W = A + A^T) before scoring;
the resolution parameter scales the configuration-model null term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import PipelineError
from .netbuild import InfluenceNetwork
from .table import read_table, write_table


@dataclass(frozen=True)
class CommunityPartition:
    assignment: dict[str, int]
    modularity: float
    resolution: float
    seed: int
    pass_modularity: tuple[float, ...] = ()  # Q after each local-move pass


def modularity(net: InfluenceNetwork, assignment: Mapping[str, int],
               resolution: float = 1.0) -> float:
    """Newman modularity of a partition on the symmetrized graph."""
    if resolution <= 0:
        raise PipelineError("resolution must be positive")
    missing = [n for n in net.nodes if n not in assignment]
    if missing:
        raise PipelineError(f"assignment misses nodes: {missing[:5]}")
    v = net.view
    weight = v.fwd + v.back
    two_m = 2.0 * float(weight.sum())
    if two_m == 0.0:
        raise PipelineError("network has zero total weight; modularity undefined")
    # communities numbered in their order of first appearance over the nodes
    codes: dict[int, int] = {}
    comm = np.array([codes.setdefault(assignment[node], len(codes))
                     for node in net.nodes], dtype=np.intp)
    n, k = len(net.nodes), len(codes)
    strength = np.bincount(v.lo, weight, n) + np.bincount(v.hi, weight, n)
    same = comm[v.lo] == comm[v.hi]
    internal = np.bincount(comm[v.lo][same], 2.0 * weight[same], k).tolist()
    degree_sum = np.bincount(comm, strength, k).tolist()
    q = 0.0
    for c in range(k):
        q += internal[c] / two_m
        q -= resolution * (degree_sum[c] / two_m) ** 2
    return q


def _local_move(n, neighbors, self_w, strength, two_m, resolution, comm, rng):
    """Sweep nodes in shuffled order, moving each to its best community.

    Returns (number of passes, improved flag). Each full pass is
    non-decreasing in Q by construction (only strictly improving moves).
    """
    comm_total = {}
    for i in range(n):
        comm_total[comm[i]] = comm_total.get(comm[i], 0.0) + strength[i]
    order = list(range(n))
    improved = False
    moved = True
    passes = 0
    while moved:
        moved = False
        passes += 1
        rng.shuffle(order)
        for i in order:
            ci = comm[i]
            links = {}  # community -> weight of edges from i (excl. self-loop)
            for j, w in neighbors[i]:
                links[comm[j]] = links.get(comm[j], 0.0) + w
            comm_total[ci] -= strength[i]
            base = links.get(ci, 0.0) - resolution * strength[i] * comm_total[ci] / two_m
            best_c, best_gain = ci, 0.0
            for c in sorted(links):
                if c == ci:
                    continue
                gain = (links[c]
                        - resolution * strength[i] * comm_total[c] / two_m) - base
                if gain > best_gain + 1e-14:
                    best_c, best_gain = c, gain
            comm[i] = best_c
            comm_total[best_c] = comm_total.get(best_c, 0.0) + strength[i]
            if best_c != ci:
                moved = True
                improved = True
    return passes, improved


def louvain(net: InfluenceNetwork, resolution: float = 1.0,
            seed: int = 0) -> CommunityPartition:
    """Greedy modularity maximization with graph aggregation.

    Deterministic for a fixed (network, resolution, seed); the returned Q
    is recomputed from scratch and never below the single-community baseline.
    """
    if resolution <= 0:
        raise PipelineError("resolution must be positive")
    if not net.nodes:
        raise PipelineError("empty network")
    view = net.view
    weights = view.fwd + view.back
    two_m = 2.0 * float(weights.sum())
    if two_m == 0.0:
        raise PipelineError("network has zero total weight")
    rng = random.Random(seed)

    nodes = net.nodes
    n = len(nodes)
    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, w in zip(view.lo.tolist(), view.hi.tolist(), weights.tolist()):
        neighbors[a].append((b, w))
        neighbors[b].append((a, w))
    self_w = [0.0] * n
    membership = list(range(n))  # original node -> current super-node
    pass_q: list[float] = []

    while True:
        strength = [self_w[i] + sum(w for _, w in neighbors[i]) for i in range(n)]
        comm = list(range(n))
        _, improved = _local_move(n, neighbors, self_w, strength, two_m,
                                  resolution, comm, rng)
        relabel = {}
        for i in range(n):
            relabel.setdefault(comm[i], len(relabel))
        comm = [relabel[c] for c in comm]
        membership = [comm[membership[v]] for v in range(len(membership))]
        pass_q.append(modularity(net, dict(zip(nodes, membership)),
                                 resolution))
        if not improved or len(relabel) == n:
            break
        # aggregate communities into super-nodes
        n_new = len(relabel)
        new_self = [0.0] * n_new
        agg: dict[tuple[int, int], float] = {}
        for i in range(n):
            new_self[comm[i]] += self_w[i]
            for j, w in neighbors[i]:
                if i < j:
                    ci, cj = comm[i], comm[j]
                    if ci == cj:
                        new_self[ci] += 2.0 * w
                    else:
                        key = (min(ci, cj), max(ci, cj))
                        agg[key] = agg.get(key, 0.0) + w
        neighbors = [[] for _ in range(n_new)]
        for (ci, cj), w in agg.items():
            neighbors[ci].append((cj, w))
            neighbors[cj].append((ci, w))
        self_w = new_self
        n = n_new

    assignment = dict(zip(nodes, membership))
    relabel = {}
    for node in nodes:
        relabel.setdefault(assignment[node], len(relabel))
    assignment = {node: relabel[c] for node, c in assignment.items()}
    q = modularity(net, assignment, resolution)
    single = {node: 0 for node in nodes}
    q_single = modularity(net, single, resolution)
    if q < q_single:
        assignment, q = single, q_single
    return CommunityPartition(assignment=assignment, modularity=q,
                              resolution=resolution, seed=seed,
                              pass_modularity=tuple(pass_q))


def write_partition(partition: CommunityPartition,
                    header: Iterable[str] = ()) -> str:
    meta = (f"Q\t{partition.modularity:.17g}\tresolution\t"
            f"{partition.resolution:.17g}\tseed\t{partition.seed}")
    return write_table([*header, meta], ("node", "community"),
                       sorted(partition.assignment.items()))


def read_partition(text: str) -> dict[str, int]:
    return dict(read_table(text, ("node", "community"), (str, int)))
