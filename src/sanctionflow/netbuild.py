"""Directed influence networks from events, and their symmetrized flow form.

The edge rule: for two nodes holding the same entity, the one that listed it
strictly earlier gains one unit of influence over the other. Same-day pairs
contribute nothing (direction is ambiguous at day resolution).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Mapping

import numpy as np

from .errors import PipelineError
from .events import Column, EventSet, _run_starts
from .table import preamble

LIST_LEVEL = "list"
INSTITUTION_LEVEL = "institution"
# precedence pairs generated at once: one entity held by thousands of
# nodes is counted in several chunks. Each chunk makes about three int64
# arrays of its length, so 2^18 pairs keep the temporaries near 6 MB.
_PAIR_CELLS = 1 << 18


def _index_pairs(nodes: tuple[str, ...], keys: Collection[tuple[str, str]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Node indices of the first and second names of each name pair."""
    index = {node: i for i, node in enumerate(nodes)}
    flat = np.fromiter((index[v] for key in keys for v in key), np.intp,
                       2 * len(keys))
    return flat[0::2], flat[1::2]


# The integer form of an InfluenceNetwork, over indices into its nodes:
# directed edges (src, dst, count) sorted by (src, dst), and unordered pairs
# (lo < hi) sorted by (lo, hi), with fwd = A[lo -> hi] and back = A[hi -> lo]
# as floats; edge e lies on pair row pair[e].
GraphView = namedtuple("GraphView", "src dst count lo hi fwd back pair")
# The integer form of a FlowNetwork: pair k is keys[k] = (i, j), from node
# rows[k] to node cols[k], with flow F[k] and weight w[k], sorted by
# (lower index, higher index).
FlowView = namedtuple("FlowView", "keys rows cols F w")


@dataclass(frozen=True)
class InfluenceNetwork:
    """Directed weighted graph with integer influence counts.

    adjacency maps (src, dst) -> count; counts are strictly positive and
    self-loops are never stored. Isolated nodes are allowed. ``view`` is
    its integer form, built once, which the graph algorithms read.
    """

    level: str
    nodes: tuple[str, ...]
    adjacency: Mapping[tuple[str, str], int]

    def total_count(self) -> int:
        return sum(self.adjacency.values())

    @cached_property
    def view(self) -> GraphView:
        n, m = len(self.nodes), len(self.adjacency)
        src, dst = _index_pairs(self.nodes, self.adjacency)
        count = np.fromiter(self.adjacency.values(), np.int64, m)
        order = np.argsort(src * n + dst, kind="stable")
        src, dst, count = src[order], dst[order], count[order]
        keys, pair = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                               return_inverse=True)
        lo, hi = np.divmod(keys, n)
        forward = src < dst
        fwd = np.bincount(pair, np.where(forward, count, 0), len(keys))
        back = np.bincount(pair, np.where(forward, 0, count), len(keys))
        return GraphView(src, dst, count, lo, hi, fwd, back, pair)


@dataclass(frozen=True)
class FlowNetwork:
    """Antisymmetric net flow plus symmetric weight per unordered node pair.

    pairs maps (i, j) -> (F_ij, w_ij) with i before j in node order;
    F_ji = -F_ij is implied. Pairs with no interaction are absent; balanced
    pairs (F = 0) are kept because their weight still constrains potentials.
    ``view`` is its integer form, built once.
    """

    nodes: tuple[str, ...]
    pairs: Mapping[tuple[str, str], tuple[float, float]]
    weight_mode: str

    @cached_property
    def view(self) -> FlowView:
        rows, cols = _index_pairs(self.nodes, self.pairs)
        values = np.fromiter((x for fw in self.pairs.values() for x in fw),
                             float, 2 * len(self.pairs))
        order = np.argsort(np.minimum(rows, cols) * len(self.nodes)
                           + np.maximum(rows, cols), kind="stable")
        keys = list(self.pairs)
        return FlowView([keys[k] for k in order.tolist()], rows[order],
                        cols[order], values[0::2][order], values[1::2][order])


def _precedence_network(events: EventSet, level: str, column: Column,
                        lists: set[str] | None = None) -> InfluenceNetwork:
    """Network over the names of ``column`` (list_id or issuer), from the
    events on the selected lists (all by default).

    Precedence compares each node's earliest date per entity, so one entity
    contributes at most 1 to any ordered pair; a node meets each entity
    once, so a pair (a, b) with da < db never has a == b.
    """
    node, entity, day = column.codes, events.entity_id.codes, events.day
    if lists is not None:
        index = {name: k for k, name in enumerate(events.list_id.names)}
        selected = np.zeros(len(index), bool)
        selected[[index[name] for name in lists]] = True
        keep = selected[events.list_id.codes]
        node, entity, day = node[keep], entity[keep], day[keep]
    present = np.unique(node)
    local = np.zeros(len(column.names), np.int64)
    local[present] = np.arange(len(present))
    n = len(present)
    # each node's first listing of each entity, by entity and then date
    order = np.lexsort((day, entity))
    _, first = np.unique(entity[order] * np.int64(n) + local[node[order]],
                         return_index=True)  # a stable sort: earliest wins
    order = order[np.sort(first)]
    node, entity, day = local[node[order]], entity[order], day[order]
    # a holder precedes every holder of the entity after its same-day run
    later = _run_ends(entity, day)
    count = _run_ends(entity) - later
    chunks = [np.unique(_pair_keys(node, later, count, lo, hi, n),
                        return_counts=True)
              for lo, hi in _chunks(count, _PAIR_CELLS)]
    keys = np.concatenate([np.empty(0, np.int64), *(k for k, _ in chunks)])
    total = np.concatenate([np.empty(0, np.int64), *(c for _, c in chunks)])
    if len(chunks) > 1:  # a pair counted in several chunks: sum its counts
        order = np.argsort(keys, kind="stable")
        start = np.flatnonzero(_run_starts(keys[order]))
        keys, total = keys[order][start], np.add.reduceat(total[order], start)
    nodes = tuple(column.names[k] for k in present.tolist())
    src, dst = np.divmod(keys, max(n, 1))
    name = nodes.__getitem__
    return InfluenceNetwork(level=level, nodes=nodes, adjacency=dict(zip(
        zip(map(name, src.tolist()), map(name, dst.tolist())),
        total.tolist())))


def _pair_keys(node: np.ndarray, later: np.ndarray, count: np.ndarray,
               lo: int, hi: int, n: int) -> np.ndarray:
    """``src * n + dst`` of every precedence pair of holders lo..hi-1:
    holder p precedes the ``count[p]`` holders from ``later[p]`` on."""
    size = count[lo:hi]
    dst = np.arange(size.sum()) + np.repeat(later[lo:hi] - np.cumsum(size)
                                            + size, size)
    return np.repeat(node[lo:hi], size) * n + node[dst]


def _run_ends(*keys: np.ndarray) -> np.ndarray:
    """Per element of arrays sorted by ``keys``, the index one past the end
    of its run of equal key tuples."""
    start = _run_starts(*keys)
    ends = np.append(np.flatnonzero(start)[1:], len(start))
    return ends[np.cumsum(start) - 1]


def _chunks(size: np.ndarray, budget: int):
    """Consecutive (lo, hi) ranges whose ``size`` sums stay within the
    budget, or hold a single element that alone exceeds it."""
    end = np.cumsum(size)
    lo = 0
    while lo < len(size):
        base = end[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(end, base + budget, "right")))
        yield lo, hi
        lo = hi


def build_list_network(events: EventSet) -> InfluenceNetwork:
    """List-level network: one count per (entity, ordered list pair) precedence."""
    return _precedence_network(events, LIST_LEVEL, events.list_id)


def build_institution_network(events: EventSet,
                              lists: set[str] | None = None) -> InfluenceNetwork:
    """Institution-level network over the selected lists (all by default)."""
    if lists is not None:
        unknown = sorted(lists - events.lists)
        if unknown:
            raise PipelineError(f"unknown list_id(s) in filter: {unknown}")
    return _precedence_network(events, INSTITUTION_LEVEL, events.issuer,
                               lists)


def filter_by_category(events: EventSet, category_map: Mapping[str, str],
                       label: str) -> set[str]:
    """Lists carrying the given category label, for category subnetworks."""
    unknown = sorted(set(category_map) - events.lists)
    if unknown:
        raise PipelineError(f"category map names unknown list_id(s): {unknown}")
    selected = {l for l, lab in category_map.items() if lab == label}
    if not selected:
        raise PipelineError(f"no list carries category label '{label}'")
    return selected


def symmetrize(net: InfluenceNetwork, mode: str = "mean") -> FlowNetwork:
    """Fold directed counts into net flow F = A_ij - A_ji and weight w.

    mean mode: w = (A_ij + A_ji) / 2; unit mode: w = 1.
    """
    if mode not in ("mean", "unit"):
        raise PipelineError(f"unknown weight mode '{mode}'")
    v = net.view
    flow = v.fwd - v.back
    weight = (v.fwd + v.back) / 2.0 if mode == "mean" else np.ones(len(flow))
    name = net.nodes.__getitem__
    pairs = dict(zip(zip(map(name, v.lo.tolist()), map(name, v.hi.tolist())),
                     zip(flow.tolist(), weight.tolist())))
    return FlowNetwork(nodes=net.nodes, pairs=pairs, weight_mode=mode)


# ---------------------------------------------------------------------------
# Plain-text formats. Node lines carry a single field; edge lines are
# src<TAB>dst<TAB>count (flow pairs: i<TAB>j<TAB>F<TAB>w). Lines starting
# with '#' are metadata and ignored on read, except the level marker.

def _check_id(node: str) -> str:
    if node.startswith("#") or "\t" in node or "\n" in node:
        raise PipelineError(f"node id {node!r} starts with '#' or contains "
                            "tab/newline")
    return node


def _write_records(header: Iterable[str], nodes: Iterable[str],
                   edges: Iterable[str]) -> str:
    return "".join([preamble(header), *(_check_id(n) + "\n" for n in nodes),
                    *edges])


def write_network(net: InfluenceNetwork, header: Iterable[str] = ()) -> str:
    return _write_records(
        [*header, f"level\t{net.level}"], net.nodes,
        # both endpoints are nodes, whose lines are checked
        (f"{a}\t{b}\t{net.adjacency[(a, b)]}\n"
         for (a, b) in sorted(net.adjacency)))


def read_network(text: str) -> InfluenceNetwork:
    """The network of a ``write_network`` file: its ``# level`` marker, one
    node per single-field line and ``src<TAB>dst<TAB>count`` per edge line.

    A repeated node, a repeated edge and an edge from a node to itself are
    errors naming their line, as is an edge to an undeclared node.
    """
    level = INSTITUTION_LEVEL
    nodes: dict[str, None] = {}
    edges: dict[tuple[str, str], int] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split("\t")
            if parts[0] == "level" and len(parts) == 2:
                level = parts[1]
            continue
        fields = line.split("\t")
        if len(fields) == 1:
            if line in nodes:
                raise PipelineError(f"line {line_no}: duplicate node '{line}'")
            nodes[line] = None
        elif len(fields) == 3:
            a, b = fields[0], fields[1]
            if a == b:
                raise PipelineError(f"line {line_no}: self-loop on '{a}'")
            if (a, b) in edges:
                raise PipelineError(f"line {line_no}: duplicate edge ({a}, {b})")
            try:
                count = int(fields[2])
            except ValueError:
                raise PipelineError(f"line {line_no}: bad count '{fields[2]}'")
            if count <= 0:
                raise PipelineError(f"line {line_no}: non-positive count")
            edges[(a, b)] = count
        else:
            raise PipelineError(f"line {line_no}: expected 1 or 3 fields, "
                                f"got {len(fields)}")
    for (a, b) in edges:
        if a not in nodes or b not in nodes:
            raise PipelineError(f"edge ({a}, {b}) references undeclared node")
    return InfluenceNetwork(level=level, nodes=tuple(nodes), adjacency=edges)


def write_flow(flow: FlowNetwork, header: Iterable[str] = ()) -> str:
    return _write_records(
        [*header, f"mode\t{flow.weight_mode}"], flow.nodes,
        (f"{i}\t{j}\t{f:.17g}\t{w:.17g}\n"
         for (i, j), (f, w) in sorted(flow.pairs.items())))
