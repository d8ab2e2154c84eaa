"""Modularity and Louvain-style community detection.

Directed influence counts are symmetrized (W = A + A^T) before scoring;
the resolution parameter scales the configuration-model null term.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import PipelineError
from .netbuild import InfluenceNetwork
from .table import read_node_columns, write_node_columns


@dataclass(frozen=True)
class CommunityPartition:
    assignment: dict[str, int]
    modularity: float
    resolution: float
    seed: int
    pass_modularity: tuple[float, ...] = ()  # Q after each local-move pass


def modularity(net: InfluenceNetwork, labels: np.ndarray,
               resolution: float = 1.0) -> float:
    """Newman modularity of per-node community labels, in node order."""
    if not 0.0 < resolution < np.inf:
        raise PipelineError("resolution must be positive and finite")
    v = net.view
    weight = v.fwd + v.back
    two_m = 2.0 * float(weight.sum())
    if two_m == 0.0:
        raise PipelineError("network has zero total weight; modularity undefined")
    # communities numbered in their order of first appearance over the nodes
    comm = _first_appearance(labels)
    n, k = len(net.nodes), int(comm.max()) + 1
    strength = np.bincount(v.lo, weight, n) + np.bincount(v.hi, weight, n)
    same = comm[v.lo] == comm[v.hi]
    internal = np.bincount(comm[v.lo][same], 2.0 * weight[same], k).tolist()
    degree_sum = np.bincount(comm, strength, k).tolist()
    q = 0.0
    for c in range(k):
        q += internal[c] / two_m
        q -= resolution * (degree_sum[c] / two_m) ** 2
    return q


def _neighbors(n, lo, hi, w):
    """Per node of one level's pairs (lo, hi, w), its neighbours and the
    weights to them, as two lists in neighbour order. The lists share one
    int per node and one float per distinct weight, so an entry takes 16
    bytes; a (neighbour, weight) tuple per entry took about 120."""
    ends = np.concatenate([lo, hi])
    others = np.concatenate([hi, lo])
    order = np.argsort(ends * n + others)
    bounds = np.cumsum(np.bincount(ends, minlength=n)).tolist()
    values, which = np.unique(np.tile(w, 2)[order], return_inverse=True)
    ids = np.array(range(n), object)[others[order]].tolist()
    weights = np.array(values.tolist(), object)[which].tolist()
    return [(ids[a:b], weights[a:b]) for a, b in zip([0, *bounds], bounds)]


def _first_appearance(labels):
    """The labels renumbered 0, 1, ... in their order of first appearance."""
    _, first, inverse = np.unique(labels, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse]


def _local_move(neighbors, strength, two_m, resolution, comm, rng):
    """Sweep nodes in shuffled order, moving each to its best community.

    Returns whether any node moved. Each full pass is non-decreasing in Q
    by construction (only strictly improving moves).
    """
    comm_total = {}
    for c, s in zip(comm, strength):
        comm_total[c] = comm_total.get(c, 0.0) + s
    order = list(range(len(comm)))
    improved = False
    moved = True
    while moved:
        moved = False
        rng.shuffle(order)
        for i in order:
            ci = comm[i]
            links = {}  # community -> weight of edges from i (excl. self-loop)
            for j, w in zip(*neighbors[i]):
                links[c] = links.get(c := comm[j], 0.0) + w
            comm_total[ci] -= strength[i]
            # resolution * strength[i] is the first product of each gain's
            # resolution * strength[i] * comm_total[c], so no float changes
            pull = resolution * strength[i]
            base = links.get(ci, 0.0) - pull * comm_total[ci] / two_m
            best_c, best_gain = ci, 0.0
            for c in sorted(links):
                if c == ci:
                    continue
                gain = (links[c] - pull * comm_total[c] / two_m) - base
                if gain > best_gain + 1e-14:
                    best_c, best_gain = c, gain
            comm[i] = best_c
            comm_total[best_c] = comm_total.get(best_c, 0.0) + strength[i]
            if best_c != ci:
                moved = True
                improved = True
    return improved


def louvain(net: InfluenceNetwork, resolution: float = 1.0,
            seed: int = 0) -> CommunityPartition:
    """Greedy modularity maximization with graph aggregation.

    Deterministic for a fixed (network, resolution, seed); the returned Q
    is scored from scratch and never below the single-community baseline.
    Each level is pair arrays (lo, hi, w) over its super-nodes plus their
    self-weights; every weight is a sum of integer counts, so each float
    sum is exact in any order.
    """
    if not 0.0 < resolution < np.inf:
        raise PipelineError("resolution must be positive and finite")
    if not net.nodes:
        raise PipelineError("empty network")
    view = net.view
    lo, hi, w = view.lo, view.hi, view.fwd + view.back
    two_m = 2.0 * float(w.sum())
    if two_m == 0.0:
        raise PipelineError("network has zero total weight")
    rng = random.Random(seed)

    n = len(net.nodes)
    self_w = np.zeros(n)
    # original node -> current super-node. Each level numbers its
    # communities by first appearance over its super-nodes, so this stays
    # numbered by first appearance over the nodes and needs no final relabel.
    membership = np.arange(n)
    pass_q: list[float] = []

    while True:
        strength = self_w + np.bincount(lo, w, n) + np.bincount(hi, w, n)
        comm = list(range(n))
        improved = _local_move(_neighbors(n, lo, hi, w), strength.tolist(),
                               two_m, resolution, comm, rng)
        comm = _first_appearance(comm)
        membership = comm[membership]
        pass_q.append(modularity(net, membership, resolution))
        k = int(comm.max()) + 1
        if not improved or k == n:
            break
        # aggregate communities into super-nodes
        c_lo, c_hi = comm[lo], comm[hi]
        same = c_lo == c_hi
        self_w = (np.bincount(comm, self_w, k)
                  + np.bincount(c_lo[same], 2.0 * w[same], k))
        keys, pair = np.unique(np.minimum(c_lo, c_hi)[~same] * k
                               + np.maximum(c_lo, c_hi)[~same],
                               return_inverse=True)
        w = np.bincount(pair, w[~same], len(keys))
        lo, hi = np.divmod(keys, k)
        n = k

    q = pass_q[-1]
    single = np.zeros_like(membership)
    q_single = modularity(net, single, resolution)
    if q < q_single:
        membership, q = single, q_single
    return CommunityPartition(dict(zip(net.nodes, membership.tolist())), q,
                              resolution, seed, tuple(pass_q))


def write_partition(partition: CommunityPartition) -> Iterator[str]:
    meta = (f"Q\t{partition.modularity:.17g}\tresolution\t"
            f"{partition.resolution:.17g}\tseed\t{partition.seed}")
    labels = partition.assignment
    return write_node_columns([meta], ("node", "community"), tuple(labels),
                              np.array(list(labels.values()), np.int64))


def read_partition(text: str | Iterable[str],
                   nodes: tuple[str, ...]) -> np.ndarray:
    """The labels of a ``write_partition`` table, in ``nodes`` order."""
    return read_node_columns(text, nodes, ("node", "community"), (int,))[0]
