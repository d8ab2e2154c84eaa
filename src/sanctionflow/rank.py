"""PageRank by power iteration on the weighted influence network."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import ConvergenceError, PipelineError
from .netbuild import InfluenceNetwork
from .table import read_node_columns, write_node_columns

MAX_ITERATIONS = 10_000


@dataclass(frozen=True, eq=False)
class RankVector:
    scores: np.ndarray  # in the network's node order
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
    if not 0.0 < tol < np.inf:
        raise PipelineError("tolerance must be positive and finite")
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
            return RankVector(scores=v, damping=damping,
                              iterations_used=iteration)
    raise ConvergenceError("pagerank hit the iteration cap", residual=delta)


def write_ranks(rank: RankVector, nodes: tuple[str, ...]) -> Iterator[str]:
    return write_node_columns((), ("node", "pagerank"), nodes, rank.scores)


def read_ranks(text: str | Iterable[str],
               nodes: tuple[str, ...]) -> np.ndarray:
    """The PageRank scores of a ``write_ranks`` table, in ``nodes`` order."""
    return read_node_columns(text, nodes, ("node", "pagerank"), (float,))[0]
