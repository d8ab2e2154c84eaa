"""PageRank by power iteration on the weighted influence network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConvergenceError, PipelineError
from .netbuild import InfluenceNetwork
from .table import read_table, write_table

MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class RankVector:
    scores: dict[str, float]
    damping: float
    iterations_used: int


def pagerank(net: InfluenceNetwork, damping: float = 0.85,
             tol: float = 1e-12) -> RankVector:
    """Power iteration with out-strength-normalized weights.

    Dangling nodes redistribute their mass uniformly; teleport is uniform.
    Converged when the L1 change between iterations drops below tol.
    """
    if not net.nodes:
        raise PipelineError("empty network")
    if not 0.0 < damping < 1.0:
        raise PipelineError("damping must lie strictly between 0 and 1")
    if not tol > 0:
        raise PipelineError("tolerance must be positive")
    n = len(net.nodes)
    src, dst, wgt = net.src, net.dst, net.count.astype(float)
    out_strength = np.bincount(src, wgt, n)
    dangling = out_strength == 0.0
    safe_out = np.where(dangling, 1.0, out_strength)

    v = np.full(n, 1.0 / n)
    for iteration in range(1, MAX_ITERATIONS + 1):
        contrib = v / safe_out
        nxt = np.bincount(dst, wgt * contrib[src], n)
        nxt = damping * (nxt + v[dangling].sum() / n) + (1.0 - damping) / n
        nxt /= nxt.sum()
        delta = float(np.abs(nxt - v).sum())
        v = nxt
        if delta <= tol:
            return RankVector(scores=dict(zip(net.nodes, v.tolist())),
                              damping=damping, iterations_used=iteration)
    raise ConvergenceError("pagerank hit the iteration cap", residual=delta)


def write_ranks(rank: RankVector, header: Iterable[str] = ()) -> str:
    return write_table(header, ("node", "pagerank"),
                       ((node, f"{rank.scores[node]:.17g}")
                        for node in sorted(rank.scores)))


def read_ranks(text: str) -> RankVector:
    scores = dict(read_table(text, ("node", "pagerank"), (str, float)))
    return RankVector(scores=scores, damping=0.85, iterations_used=0)
