"""Presentation artifacts: potential-fixed layouts, ranked tables, scatter
data, and graph exports (edge table / dot / json).

Layout convention: y is the node's potential (optionally jittered to break
exact overlaps); x minimizes a LinLog-style energy (distance attraction,
log-distance repulsion, weak quadratic gravity) by L-BFGS from a seeded
start, accepting no trial that raises the energy. It stops at a vanishing
gradient, a stalled energy, _MAX_STEPS accepted steps or an underflowed step.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import PipelineError
from .hodge import HodgeDecomposition, PotentialVector, _net_out
from .netbuild import InfluenceNetwork, _check_node_ids, symmetrize
from .table import (Column, _cells, _rows, name_order, read_node_columns,
                    write_columns, write_node_columns)

_EPS = 1e-9
_GRAVITY = 0.01
# cells in one row block of the layout's all-pairs term
_BLOCK_CELLS = 1 << 16
# the descent stops once max|grad| < _GRAD_TOL, or once the energy fell by
# at most _STALL_TOL * |energy| over the last _STALL_STEPS accepted steps
_GRAD_TOL, _STALL_TOL, _STALL_STEPS = 1e-12, 1e-7, 5
_LBFGS_PAIRS = 10  # curvature pairs kept by L-BFGS
_MAX_STEPS = 200  # accepted descent steps at most
_MIN_SEP = 1e-6  # jitter moves a node within this distance of another
_LAYOUT = ("node", "x", "y")  # the header of layout.csv


@dataclass(frozen=True, eq=False)
class LayoutResult:
    x: np.ndarray  # per node, in the network's node order
    y: np.ndarray
    energy_history: tuple[float, ...] = ()


def _energy_kernel(y, rows, cols, wgt):
    """energy_and_grad(x) of the layout energy with y fixed:
    _GRAVITY * sum x_i^2, minus sum over node pairs i < j of log d_ij, plus
    sum over edges of w_e * d_e, each distance clamped below at _EPS.

    The pairs are walked in blocks of whole rows, through three buffers of
    at most _BLOCK_CELLS cells (one row when n is larger) made once here,
    so memory is O(n) at any node count.
    """
    n = len(y)
    block = max(1, min(n, _BLOCK_CELLS // n))
    buffers = [np.empty((block, n)) for _ in range(3)]
    eps2 = _EPS * _EPS
    dy_edge2 = np.square(y[rows] - y[cols])
    edge = np.empty((3, len(rows)))  # the edge terms, reused as in hodge._pcg

    def energy_and_grad(x):
        energy = _GRAVITY * float(x @ x)
        grad = 2.0 * _GRAVITY * x
        log_sum = 0.0
        for start in range(0, n, block):
            stop = min(start + block, n)
            dx, d2, tmp = (buf[:stop - start] for buf in buffers)
            np.subtract(x[start:stop, None], x, out=dx)
            np.subtract(y[start:stop, None], y, out=d2)
            np.square(d2, out=d2)
            np.square(dx, out=tmp)
            np.add(d2, tmp, out=d2)
            np.maximum(d2, eps2, out=d2)
            # a node's own cell: log 1 = 0, and dx = 0 there
            d2.flat[start::n + 1] = 1.0
            np.log(d2, out=tmp)
            log_sum += float(tmp.sum())
            np.divide(dx, d2, out=tmp)
            grad[start:stop] -= tmp.sum(axis=1)
        # full rows count each pair twice, and log d = log(d^2) / 2
        energy -= 0.25 * log_sum
        dx_edge, d_edge, tmp = edge
        np.subtract(x.take(rows, out=dx_edge, mode="clip"),
                    x.take(cols, out=tmp, mode="clip"), out=dx_edge)
        np.add(np.square(dx_edge, out=d_edge), dy_edge2, out=d_edge)
        np.maximum(np.sqrt(d_edge, out=d_edge), _EPS, out=d_edge)
        energy += float(np.multiply(wgt, d_edge, out=tmp).sum())
        pull = np.divide(np.multiply(wgt, dx_edge, out=tmp), d_edge, out=tmp)
        grad += _net_out(rows, cols, pull, n)
        return energy, grad

    return energy_and_grad


def layout(net: InfluenceNetwork, potentials: PotentialVector, seed: int = 0,
           jitter: float = 0.0) -> LayoutResult:
    """1-D LinLog descent on x by L-BFGS, with y fixed at the potential."""
    if not 0.0 <= jitter < np.inf:
        raise PipelineError("jitter must be finite and non-negative")
    n = len(net.nodes)
    y = potentials.phi
    rng = random.Random(seed)
    if n < 2:
        return LayoutResult(x=np.zeros(n), y=y)
    x = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])

    v = net.view
    energy_and_grad = _energy_kernel(y, v.lo, v.hi, v.weight)

    energy, grad = energy_and_grad(x)
    history = [energy]
    step = 0.1
    pairs = deque(maxlen=_LBFGS_PAIRS)  # (s, dg) with s.dg > 0, oldest first
    while len(history) <= _MAX_STEPS and np.abs(grad).max() >= _GRAD_TOL and (
            len(history) <= _STALL_STEPS or history[-1 - _STALL_STEPS]
            - energy > _STALL_TOL * abs(energy)):
        # one L-BFGS trial at unit step; else a backtracking gradient step
        direction = _lbfgs_direction(grad, pairs) if pairs else grad
        accepted = False
        if float(grad @ direction) < 0.0:
            trial = x + direction
            e_trial, g_trial = energy_and_grad(trial)
            accepted = e_trial <= energy
        while not accepted and step > 1e-14:
            pairs.clear()
            trial = x - step * grad
            e_trial, g_trial = energy_and_grad(trial)
            accepted = e_trial <= energy
            step *= 1.5 if accepted else 0.5
        if not accepted:
            break
        s, dg = trial - x, g_trial - grad
        if float(s @ dg) > 0.0:
            pairs.append((s, dg))
        x, energy, grad = trial, e_trial, g_trial
        history.append(energy)

    if jitter > 0.0:
        y = _apply_jitter(net.nodes, x, y, jitter, _MIN_SEP, rng)
    return LayoutResult(x=x, y=y, energy_history=tuple(history))


def _lbfgs_direction(grad, pairs):
    """-H grad by the two-loop recursion, H0 = s.dg / dg.dg of the newest
    pair (Nocedal & Wright, Numerical Optimization, 2006, Alg. 7.4)."""
    q = -grad
    alphas = []
    for s, dg in reversed(pairs):
        alphas.append(float(s @ q) / float(s @ dg))
        q -= alphas[-1] * dg
    s, dg = pairs[-1]
    q *= float(s @ dg) / float(dg @ dg)
    for (s, dg), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - float(dg @ q) / float(s @ dg)) * s
    return q


def _apply_jitter(nodes, x, y, jitter, min_sep, rng):
    """y perturbed (bounded by jitter) only for nodes overlapping another.

    Nodes are visited in name order, each tested against the current,
    already jittered, positions. Jitter never moves x, and a node within
    min_sep of v lies within min_sep of it in x, so only the nodes whose x
    falls in [xv - min_sep, xv + min_sep] (found by bisection) are tested.
    """
    x, y = x.tolist(), y.tolist()
    ordered = name_order(nodes)
    by_x = sorted(ordered, key=x.__getitem__)
    xs = [x[v] for v in by_x]
    for v in ordered:
        xv, yv = x[v], y[v]
        near = by_x[bisect_left(xs, xv - min_sep):
                    bisect_right(xs, xv + min_sep)]
        crowded = any(
            u != v and math.hypot(x[u] - xv, y[u] - yv) < min_sep
            for u in near)
        if crowded:
            y[v] = yv + rng.uniform(-jitter, jitter)
    return np.array(y)


def write_layout(result: LayoutResult, nodes: Sequence[str]) -> Iterator[str]:
    return write_node_columns((), _LAYOUT, nodes, result.x, result.y)


def read_layout(text: str | Iterable[str],
                nodes: Sequence[str]) -> LayoutResult:
    """The positions of a ``write_layout`` file over ``nodes``."""
    return LayoutResult(*read_node_columns(text, nodes, _LAYOUT, (float,) * 2))


class TableRow(NamedTuple):
    rank: int
    node: str
    potential: float
    highlighted: bool
    printed: str  # the potential as the table writes it


def potential_table(decomp: HodgeDecomposition,
                    highlight: Iterable[str] = ()) -> list[TableRow]:
    """Rows ranked by descending printed potential, ties broken by node, so
    a potential moving below the printed precision keeps its row's place
    (-0.000 and 0.000 tie). A highlight name that is not a node is an error."""
    marked, nodes = set(highlight), decomp.flow.nodes
    unknown = sorted(marked.difference(nodes))
    if unknown:
        raise PipelineError(f"highlight names unknown node(s): {unknown[:5]}")
    phi = decomp.potentials.phi.tolist()
    printed = list(map("{:.3f}".format, phi))
    by_name = np.array(name_order(nodes), np.int64)
    at = by_name[np.argsort(-np.array(printed, float)[by_name], kind="stable")].tolist()
    names = list(map(nodes.__getitem__, at))
    return list(map(TableRow, range(1, len(at) + 1), names,
                    map(phi.__getitem__, at), map(marked.__contains__, names),
                    map(printed.__getitem__, at)))


def write_potential_table(rows: list[TableRow]) -> Iterator[str]:
    rank, node, _, highlighted, printed = zip(*rows) if rows else ((),) * 5
    return write_columns((), ("rank", "name", "potential", "highlighted"), (
        rank, _cells(node), printed, ["*" if h else "" for h in highlighted]))


@dataclass(frozen=True)
class ScatterData:
    rows: list[tuple[str, float, float]]  # node, pagerank, potential
    correlation: float
    constant_column: bool


def scatter_data(nodes: tuple[str, ...], pagerank: np.ndarray,
                 potential: np.ndarray) -> ScatterData:
    """Per-node (pagerank, potential) pairs, in the order of the node
    names, with a Pearson summary."""
    order = name_order(nodes)
    xs, ys = pagerank[order], potential[order]
    rows = list(zip(map(nodes.__getitem__, order), xs.tolist(), ys.tolist()))
    constant = bool(len(rows) < 2 or np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0)
    corr = 0.0 if constant else float(np.corrcoef(xs, ys)[0, 1])
    return ScatterData(rows=rows, correlation=corr, constant_column=constant)


def write_scatter(data: ScatterData) -> Iterator[str]:
    flag = "\tconstant_column" if data.constant_column else ""
    meta = f"pearson\t{data.correlation:.17g}{flag}"
    node, pr, phi = zip(*data.rows) if data.rows else ((),) * 3
    return write_columns([meta], ("node", "pagerank", "potential"),
                         (_cells(node), pr, phi))


# ---------------------------------------------------------------------------
# Graph export. edge_table: node lines with 5 tab-separated fields
# (id, potential, community, x, y), edge lines with 7 (src, dst, count,
# F, w, F_grad, F_circ); '-' marks an unavailable attribute, and w is the
# decomposition's pair weight, else symmetrize's mean weight (the half-sum
# of the pair's counts). An optional attribute is None if absent, else a
# tuple of its per-row arrays.

def export_graph(net: InfluenceNetwork,
                 decomp: HodgeDecomposition | None = None,
                 communities: np.ndarray | None = None,
                 layout_result: LayoutResult | None = None,
                 format: str = "edge_table") -> Iterator[str]:
    """The graph document as text pieces of at most ``_ROW_CHUNK`` node or
    edge lines each. The format, that the decomposition is the network's
    and, for the edge table, every node id as ``write_network`` checks it
    are checked first, before any piece is made."""
    if format not in ("edge_table", "dot", "json_graph"):
        raise PipelineError(f"unknown export format '{format}'")
    if decomp is not None and (decomp.flow.nodes != net.nodes or not (
            np.array_equal(decomp.flow.lo, net.view.lo)
            and np.array_equal(decomp.flow.hi, net.view.hi))):
        raise PipelineError("decomposition's nodes and pairs are not the "
                            "network's")
    phi = None if decomp is None else (decomp.potentials.phi,)
    flows = None if decomp is None else _link_flows(net, decomp)
    comm = None if communities is None else (communities,)
    pos = None if layout_result is None else (layout_result.x,
                                              layout_result.y)
    if format == "json_graph":
        return _export_json(net, phi, comm, pos, flows)
    if format == "dot":
        return _export_dot(net, phi, comm, pos, flows)
    _check_node_ids(net.nodes)
    w = symmetrize(net).w if decomp is None else decomp.flow.w
    return _export_edge_table(net, phi, comm, pos, flows, w)


def _link_flows(net, decomp):
    """The arrays F, F_grad and F_circ over the directed edges, from the
    decomposition's parts on each edge's pair with the edge's sign."""
    pair = net.view.pair
    sign = np.where(net.src < net.dst, 1.0, -1.0)
    fp, fc = sign * decomp.gradient[pair], sign * decomp.circular[pair]
    return fp + fc, fp, fc


def _export_edge_table(net, phi, comm, pos, flows, pair_w):
    names = np.array(net.nodes, object)
    absent = [np.broadcast_to("-", len(names))]
    yield ("# node columns\tid\tpotential\tcommunity\tx\ty\n"
           "# edge columns\tsrc\tdst\tcount\tF\tw\tF_grad\tF_circ\n"
           f"# level\t{net.level}\n")
    yield from _rows([net.nodes, *(phi or absent), *(comm or absent),
                      *(pos or absent * 2)], "\t")
    F, fp, fc = flows or [np.broadcast_to("-", len(net.src))] * 3
    yield from _rows([Column(names, net.src), Column(names, net.dst),
                      net.count, F, Column(pair_w, net.view.pair), fp, fc],
                     "\t")


def _export_dot(net, phi, comm, pos, flows):
    quoted = np.array(['"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
                       for v in net.nodes], object)
    # a node lists its present attributes in brackets, if it has any
    attrs = ", ".join(cell for cell, values in (
        ('potential="%.6g"', phi), ('community="%s"', comm),
        ('pos="%.6g,%.6g"', pos)) if values is not None)
    yield "digraph influence {\n"
    yield from _rows([quoted, *(phi or ()), *(comm or ()), *(pos or ())],
                     template=f"  %s{attrs and f' [{attrs}]'};\n")
    flow_cells = ', F="%.6g", F_grad="%.6g", F_circ="%.6g"' if flows else ""
    yield from _rows([Column(quoted, net.src), Column(quoted, net.dst),
                      net.count, *(flows or ())],
                     template=f'  %s -> %s [weight="%s"{flow_cells}];\n')
    yield "}\n"


def _json_floats(values: np.ndarray):
    """A float array, or if it holds a nan or infinity, its values as
    ``json.dumps`` spells them."""
    return values if np.isfinite(values).all() else [
        repr(x).replace("inf", "Infinity").replace("nan", "NaN")
        for x in values.tolist()]


def _json_list(fields: dict, size: int) -> Iterator[str]:
    """``json.dumps(indent=2, sort_keys=True)``'s layout of a list one
    level deep of ``size`` objects, each holding its row of the columns of
    ``fields`` by key, made one string per object by ``_rows``."""
    keys = sorted(fields)
    items = _rows([fields[k] for k in keys], template=",\n    {\n      " + (
        ",\n      ".join(f'"{k}": %s' for k in keys) + "\n    }"))
    return chain(["["], (piece[not k:] for k, piece in enumerate(items)),
                 ["\n  ]" if size else "]"])


def _export_json(net, phi, comm, pos, flows):
    """``json.dumps({"directed", "level", "links", "nodes"}, indent=2,
    sort_keys=True) + "\\n"``, made one string per node and per link from
    the arrays, a chunk of them at a time, so no dict per link or encoder
    chunk list is made. A float is written by ``%s``, which is its repr,
    unless its column holds a nan or infinity."""
    names = np.array(list(map(encode_basestring_ascii, net.nodes)), object)
    phi, pos, flows = ([*map(_json_floats, values or ())]
                       for values in (phi, pos, flows))
    yield (f'{{\n  "directed": true,\n  "level": '
           f'{encode_basestring_ascii(net.level)},\n  "links": ')
    yield from _json_list(dict(
        zip(("F", "F_grad", "F_circ"), flows), count=net.count,
        source=Column(names, net.src), target=Column(names, net.dst)),
        len(net.src))
    yield ',\n  "nodes": '
    yield from _json_list(dict(chain(
        zip(["community"], comm or ()), zip(["potential"], phi),
        zip("xy", pos)), id=names), len(names))
    yield "\n}\n"
