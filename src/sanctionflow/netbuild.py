"""Directed influence networks from events, and their symmetrized flow form.

The edge rule: for two nodes holding the same entity, the one that listed it
strictly earlier gains one unit of influence over the other. Same-day pairs
contribute nothing (direction is ambiguous at day resolution).
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import count as counter, repeat
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import PipelineError
from .table import _run_starts, name_order

if TYPE_CHECKING:  # a stage that only reads net.tsv never loads events
    from .events import Column, EventSet

LIST_LEVEL = "list"
INSTITUTION_LEVEL = "institution"
# events taken, and precedence pairs generated, at once: entities are
# counted a block at a time, and one held by thousands of nodes in several
# chunks. Counting a chunk of 2^16 pairs traces about 2.6 MiB (40 bytes a
# pair), a block of 2^16 events about as much.
_PAIR_CELLS = 1 << 16


# The pair fold of an InfluenceNetwork, over indices into its nodes:
# unordered pairs (lo < hi) sorted by (lo, hi), with fwd = A[lo -> hi] and
# back = A[hi -> lo] as floats; edge e lies on pair row pair[e].
GraphView = namedtuple("GraphView", "lo hi fwd back pair")


@dataclass(frozen=True, eq=False)
class InfluenceNetwork:
    """Directed weighted graph with integer influence counts.

    Edge e runs from node ``src[e]`` to node ``dst[e]`` (indices into
    ``nodes``) with count ``count[e]``; the read-only arrays are sorted by
    (src, dst), counts are strictly positive and self-loops are never
    stored. Isolated nodes are allowed. ``view`` is its pair fold, built
    once, which the graph algorithms read.
    """

    level: str
    nodes: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    count: np.ndarray

    def __post_init__(self):
        for array in (self.src, self.dst, self.count):
            array.flags.writeable = False

    def total_count(self) -> int:
        return int(self.count.sum())

    @cached_property
    def adjacency(self) -> dict[tuple[str, str], int]:
        """(src name, dst name) -> count, derived on first use."""
        name = self.nodes.__getitem__
        return dict(zip(zip(map(name, self.src.tolist()),
                            map(name, self.dst.tolist())),
                        self.count.tolist()))

    @cached_property
    def view(self) -> GraphView:
        n, src, dst, count = len(self.nodes), self.src, self.dst, self.count
        keys, pair = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                               return_inverse=True)
        lo, hi = np.divmod(keys, n)
        forward = src < dst
        fwd = np.bincount(pair, np.where(forward, count, 0), len(keys))
        back = np.bincount(pair, np.where(forward, 0, count), len(keys))
        return GraphView(lo, hi, fwd, back, pair)


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Antisymmetric net flow plus symmetric weight per unordered node pair.

    Pair k joins nodes ``lo[k] < hi[k]`` (indices into ``nodes``), sorted
    by (lo, hi), with flow ``F[k]`` from lo to hi (the flow from hi to lo
    is -F[k]) and weight ``w[k] > 0``. Pairs with no interaction are
    absent; balanced pairs (F = 0) are kept because their weight still
    constrains potentials.
    """

    nodes: tuple[str, ...]
    lo: np.ndarray
    hi: np.ndarray
    F: np.ndarray
    w: np.ndarray
    weight_mode: str

    def __post_init__(self):
        for array in (self.lo, self.hi, self.F, self.w):
            array.flags.writeable = False
        bad = np.flatnonzero(~(self.w > 0))
        if len(bad):
            a, b = self.nodes[self.lo[bad[0]]], self.nodes[self.hi[bad[0]]]
            raise PipelineError(f"non-positive weight on pair ({a}, {b})")


def _precedence_network(events: EventSet, level: str, column: Column,
                        lists: set[str] | None = None) -> InfluenceNetwork:
    """Network over the names of ``column`` (list_id or issuer), from the
    events on the selected lists (all by default).

    Precedence compares each node's earliest date per entity, so one entity
    contributes at most 1 to any ordered pair; a node meets each entity
    once, so a pair (a, b) with da < db never has a == b. Entities are
    counted a block of whole entities at a time, a block's pairs a chunk
    at a time, and each chunk's counts are folded into the sorted totals.
    """
    node, entity, day = column.codes, events.entity_id.codes, events.day
    if lists is not None:
        index = {name: k for k, name in enumerate(events.list_id.names)}
        unknown = sorted(set(lists).difference(index))
        if unknown:
            raise PipelineError(f"unknown list_id(s) in filter: {unknown}")
        keep = np.isin(events.list_id.codes, [index[name] for name in lists])
        node, entity, day = node[keep], entity[keep], day[keep]
    present = np.flatnonzero(np.bincount(node, minlength=len(column.names)))
    local = np.zeros(len(column.names), np.int64)
    local[present] = np.arange(len(present))
    n = len(present)
    # events come date first, so a stable sort by entity orders them by
    # (entity, date); a block holds whole entities
    order = np.argsort(entity, kind="stable")
    size = np.bincount(entity, minlength=len(events.entity_id.names))
    end = np.cumsum(size)
    keys, total = np.empty(0, np.int64), np.empty(0, np.int64)
    for lo, hi in _chunks(size, _PAIR_CELLS):
        block = order[end[lo - 1] if lo else 0:end[hi - 1]]
        if not len(block):
            continue
        # each node's first listing of each entity: unique indexes the
        # first occurrence, which is the earliest
        ent, holder = entity[block], local[node[block]]
        _, first = np.unique((ent - ent[0]) * np.int64(n) + holder,
                             return_index=True)
        first.sort()
        ent, holder, when = ent[first], holder[first], day[block[first]]
        # a holder precedes every holder of the entity after its
        # same-day run
        later = _run_ends(ent, when)
        count = _run_ends(ent) - later
        for a, b in _chunks(count, _PAIR_CELLS):
            chunk, tally = np.unique(_pair_keys(holder, later, count, a, b, n),
                                     return_counts=True)
            at = np.searchsorted(keys, chunk)
            old = at < len(keys)
            old[old] = keys[at[old]] == chunk[old]
            total[at[old]] += tally[old]
            keys = np.insert(keys, at[~old], chunk[~old])
            total = np.insert(total, at[~old], tally[~old])
    nodes = tuple(column.names[k] for k in present.tolist())
    src, dst = np.divmod(keys, max(n, 1))
    return InfluenceNetwork(level, nodes, src, dst, total)


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
    return _precedence_network(events, INSTITUTION_LEVEL, events.issuer,
                               lists)


def filter_by_category(events: EventSet, category_map: Mapping[str, str],
                       label: str) -> set[str]:
    """Lists carrying the given category label, for category subnetworks."""
    unknown = sorted(set(category_map).difference(events.list_id.names))
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
    weight = (v.fwd + v.back) / 2.0 if mode == "mean" else np.ones(len(v.lo))
    return FlowNetwork(net.nodes, v.lo, v.hi, v.fwd - v.back, weight, mode)


# ---------------------------------------------------------------------------
# Plain-text formats. Node lines carry a single field; edge lines are
# src<TAB>dst<TAB>count (flow pairs: i<TAB>j<TAB>F<TAB>w). Lines starting
# with '#' are metadata and ignored on read, except the level marker.

def _write_records(meta: str, nodes: tuple[str, ...],
                   edges: Iterable[str]) -> str:
    for node in nodes:
        # a reader's universal newlines end a line at CR as at LF
        if node.startswith("#") or any(c in node for c in "\t\n\r"):
            raise PipelineError(f"node id {node!r} starts with '#' or "
                                "contains tab/CR/LF")
    return "".join([f"# {meta}\n", *(n + "\n" for n in nodes), *edges])


def pair_columns(nodes: tuple[str, ...], first: np.ndarray,
                 second: np.ndarray, *values: np.ndarray, labels=None):
    """The columns of the rows of node indices (first, second), in the
    order of their node names: the two names (or labels), then the rows'
    entries of each of ``values``."""
    rank = np.empty(len(nodes), np.int64)
    rank[name_order(nodes)] = np.arange(len(nodes))
    order = np.lexsort((rank[second], rank[first]))
    name = (labels or nodes).__getitem__
    return [*(list(map(name, ends[order].tolist())) for ends in (first, second)),
            *(v[order].tolist() for v in values)]


def write_network(net: InfluenceNetwork) -> str:
    return _write_records(
        f"level\t{net.level}", net.nodes,
        # both endpoints are nodes, whose lines are checked
        (f"{a}\t{b}\t{c}\n" for a, b, c in
         zip(*pair_columns(net.nodes, net.src, net.dst, net.count))))


def read_network(text: str) -> InfluenceNetwork:
    """The network of a ``write_network`` file: its ``# level`` marker, one
    node per single-field line and ``src<TAB>dst<TAB>count`` per edge line.

    A repeated node, a repeated edge and an edge from a node to itself are
    errors naming their line, as is an edge to an undeclared node. The
    lines are read in one bulk pass; the earliest faulty line is reported,
    its checks taken in the order self-loop, repeated edge, then count.
    """
    lines = text.split("\n")
    rows, size = np.array(lines, object), len(lines)
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, size)
    comment = np.fromiter(map(str.startswith, lines, repeat("#")), bool, size)
    data = np.fromiter(map(bool, map(str.strip, lines)), bool, size) & ~comment
    marks = [line[1:].strip().split("\t") for line in rows[comment].tolist()]
    level = [INSTITUTION_LEVEL, *(mark[1] for mark in marks  # the last wins
                                  if mark[0] == "level" and len(mark) == 2)][-1]
    node_at, edge_at = (np.flatnonzero(data & (tabs == t)) for t in (0, 2))
    wrong_at = np.flatnonzero(data & (tabs != 0) & (tabs != 2))
    names = rows[node_at].tolist()
    n, m = len(names), len(edge_at)
    code = dict(zip(reversed(names), range(n - 1, -1, -1)))  # first line's
    cells = "\t".join(rows[edge_at].tolist()).split("\t") if m else []
    a, b, cells = cells[0::3], cells[1::3], cells[2::3]
    # one code per name: its first node line, or one of its own from n on
    src = np.fromiter(map(code.setdefault, a, counter(n)), np.int64, m)
    dst = np.fromiter(map(code.setdefault, b, counter(n + m)), np.int64, m)
    key = src * (n + 2 * m) + dst
    order = np.argsort(key, kind="stable")  # a repeat sorts after its first
    repeated = np.zeros(m, bool)
    repeated[order[1:]] = np.diff(key[order]) == 0
    counts = []  # the counts before the first that int() refuses
    with suppress(ValueError):
        counts.extend(map(int, cells))
    count = np.array(counts, object)  # a count may lie beyond int64
    first = np.fromiter(map(code.__getitem__, names), np.int64, n)
    checks = [  # in each line's check order
        (node_at, first != np.arange(n), lambda i: f"duplicate node '{names[i]}'"),
        (edge_at, src == dst, lambda e: f"self-loop on '{a[e]}'"),
        (edge_at, repeated, lambda e: f"duplicate edge ({a[e]}, {b[e]})"),
        (edge_at, np.arange(m) == len(counts), lambda e: f"bad count '{cells[e]}'"),
        (edge_at, count <= 0, lambda e: "non-positive count"),
        (edge_at, count >= 2 ** 63, lambda e: "count exceeds int64"),
        (wrong_at, np.ones(len(wrong_at), bool),
         lambda i: f"expected 1 or 3 fields, got {tabs[wrong_at[i]] + 1}")]
    faults = [(at[k], message(k)) for at, marked, message in checks
              for k in np.flatnonzero(marked)[:1].tolist()]
    if faults:  # the earliest line's first fault
        line, message = min(faults, key=lambda fault: fault[0])
        raise PipelineError(f"line {line + 1}: {message}")
    undeclared = np.flatnonzero((src >= n) | (dst >= n))
    if len(undeclared):
        e = undeclared[0]
        raise PipelineError(f"edge ({a[e]}, {b[e]}) references undeclared node")
    return InfluenceNetwork(level, tuple(names), src[order], dst[order],
                            count[order].astype(np.int64))


def write_flow(flow: FlowNetwork) -> str:
    return _write_records(
        f"mode\t{flow.weight_mode}", flow.nodes,
        (f"{i}\t{j}\t{f:.17g}\t{w:.17g}\n" for i, j, f, w in
         zip(*pair_columns(flow.nodes, flow.lo, flow.hi, flow.F, flow.w))))
