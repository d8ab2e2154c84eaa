"""Directed influence networks from events, and their symmetrized flow form.

The edge rule: for two nodes holding the same entity, the one that listed it
strictly earlier gains one unit of influence over the other. Same-day pairs
contribute nothing (direction is ambiguous at day resolution).
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from .errors import PipelineError
from .table import (Column, _grow, _line_safe, _lines, _rows, _run_starts,
                    _runs, name_order, preamble)

if TYPE_CHECKING:  # a stage that only reads net.tsv never loads events
    from .events import EventSet

LIST_LEVEL = "list"
INSTITUTION_LEVEL = "institution"
# the working-set budget, in precedence pairs generated at once: counting
# a chunk of 2^16 pairs traces about 2.6 MiB (40 bytes a pair)
_PAIR_CELLS = 1 << 16


# The pair fold of an InfluenceNetwork, over indices into its nodes:
# unordered pairs (lo < hi) sorted by (lo, hi), with fwd = A[lo -> hi],
# back = A[hi -> lo] and the pair weight fwd + back as floats; edge e lies
# on pair row pair[e].
GraphView = namedtuple("GraphView", "lo hi fwd back weight pair")


def _fold_pairs(a: np.ndarray, b: np.ndarray, n: int,
                *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, hi, pair, *sums): the unordered pairs {a[e], b[e]} (a != b, of
    nodes below n) sorted by (lo, hi), entry e's pair row ``pair[e]``, and
    each of ``weights`` summed per pair."""
    keys, pair = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                           return_inverse=True)
    return (*np.divmod(keys, n), pair,
            *(np.bincount(pair, w, len(keys)) for w in weights))


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
        forward, count = self.src < self.dst, self.count
        lo, hi, pair, fwd, back = _fold_pairs(
            self.src, self.dst, len(self.nodes), np.where(forward, count, 0),
            np.where(forward, 0, count))
        return GraphView(lo, hi, fwd, back, fwd + back, pair)


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
    per_block, per_chunk = _sizes()
    for lo, hi in _chunks(size, per_block):
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
        for a, b in _chunks(count, per_chunk):
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


def _sizes() -> tuple[int, int]:
    """The events of an entity block and the pairs of a chunk, from the one
    budget. A block's first-listing np.unique traces over twice a pair's
    count per event, so a block of a quarter of the budget stays under a
    chunk's peak; smaller blocks only add passes."""
    return max(1, _PAIR_CELLS >> 2), _PAIR_CELLS


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
    weight = v.weight / 2.0 if mode == "mean" else np.ones(len(v.lo))
    return FlowNetwork(net.nodes, v.lo, v.hi, v.fwd - v.back, weight, mode)


# ---------------------------------------------------------------------------
# Plain-text formats. Node lines carry a single field; edge lines are
# src<TAB>dst<TAB>count (flow pairs: i<TAB>j<TAB>F<TAB>w). Lines starting
# with '#' are metadata and ignored on read, except the level marker.

def _check_node_ids(nodes: Iterable[str]) -> None:
    """Raise PipelineError for the first node id that a node line would not
    read back as."""
    for node in nodes:
        if not _line_safe(node):
            raise PipelineError(f"node id {node!r:.60} is blank, too long, "
                                "starts with '#' or has a tab/CR/LF/surrogate")


def _write_records(meta: str, nodes: tuple[str, ...],
                   *pairs: np.ndarray) -> Iterator[str]:
    """The meta line, the node lines, then the tab-separated ``_rows`` of
    the ``pair_columns`` of ``pairs``; every node id is checked when
    called."""
    _check_node_ids(nodes)
    return itertools.chain([preamble([meta])], _rows([nodes]),
                           _rows(pair_columns(nodes, *pairs), "\t"))


def pair_columns(nodes: tuple[str, ...], first: np.ndarray,
                 second: np.ndarray, *values: np.ndarray, labels=None):
    """The columns of the rows of node indices (first, second): the two
    names (or labels), then ``values``; each a ``Column`` taking the rows
    in the order of those names."""
    rank = np.argsort(name_order(nodes))  # each node's place by name
    name = np.array(labels or nodes, object)
    order = np.lexsort((rank[second], rank[first]))
    return [Column(c, order) for c in (name[first], name[second], *values)]


def write_network(net: InfluenceNetwork) -> Iterator[str]:
    # both endpoints are nodes, whose lines are checked
    return _write_records(f"level\t{net.level}", net.nodes, net.src,
                          net.dst, net.count)


def read_network(stream: str | Iterable[str]) -> InfluenceNetwork:
    """The network of a ``write_network`` text or its lines, read by
    ``table._runs`` as TSV; a run of only node or only edge rows, none
    starting with '#' or blank, is read whole. A repeated node or edge, a
    self-loop, a bad count or field count names the earliest faulty line
    (in a line: self-loop, repeated edge, then count), and an edge to an
    undeclared node is an error after every line reads well. A line may
    end in CRLF or CR as in LF. Given lines must each be one line ending
    in its LF (the last may have none), as a file or ``io.StringIO``
    gives them; an item with more text after a line end is a csv error."""
    code = defaultdict(itertools.count().__next__)  # a new name: next code
    level, nodes, fault = INSTITUTION_LEVEL, {}, None
    # per edge: its endpoints' codes, its count and its line
    columns, m = [np.empty(0, np.int64) for _ in range(4)], 0
    for cells, ends in _runs(_lines(stream), 0, "\t"):
        k, plain = len(ends), cells and "#" not in "".join(cells[0])
        if (plain and len(cells) == 1 and all(map(str.strip, cells[0]))
                and nodes.keys().isdisjoint(cells[0])
                and len(set(cells[0])) == k):
            nodes.update(zip(cells[0], range(len(nodes), len(nodes) + k)))
            continue
        if plain and len(cells) == 3:  # a blank row's blank count is bad
            with suppress(ValueError, OverflowError):
                count = np.fromiter(map(int, cells[2]), np.int64, k)
                src, dst = (np.fromiter(map(code.__getitem__, cells[j]),
                                        np.int64, k) for j in (0, 1))
                if (count > 0).all() and (src != dst).all():
                    m = _grow(columns, m, src, dst, count, ends)
                    continue
        edges = []  # this run's, read row by row up to a fault
        for line, fields in zip(ends, zip(*cells)):  # a blank row: none
            row = "\t".join(fields)
            if row.startswith("#"):
                mark = row[1:].strip().split("\t")
                if mark[0] == "level" and len(mark) == 2:
                    level = mark[1]  # the last wins
            elif not row.strip():
                continue
            elif len(fields) == 1:
                fault = row in nodes and (line, 0, f"duplicate node '{row}'")
                nodes.setdefault(row, len(nodes))
            elif len(fields) != 3:
                fault = (line, 0, f"expected 1 or 3 fields, got {len(fields)}")
            elif fields[0] == fields[1]:
                fault = (line, 0, f"self-loop on '{fields[0]}'")
            else:
                count = f"bad count '{fields[2]}'"
                with suppress(ValueError):
                    count = int(fields[2])
                if isinstance(count, int) and not 0 < count < 2 ** 63:
                    count = ("non-positive count" if count <= 0
                             else "count exceeds int64")
                fault = isinstance(count, str) and (line, 2, count)
                edges.append((code[fields[0]], code[fields[1]],
                              0 if fault else count, line))
            if fault:
                break
        if edges:
            m = _grow(columns, m, *zip(*edges))
        if fault:
            break
    for buffer in columns:
        buffer.resize(m, refcheck=False)
    src, dst, count, at = columns
    declared = np.fromiter(map(code.__getitem__, nodes), np.int64, len(nodes))
    n, names = len(nodes), list(code)  # names by code
    size = n + len(names)  # each name's node index, an undeclared one's >= n
    index = np.arange(n, size)
    index[declared] = np.arange(n)
    key = index[src] * size + index[dst]
    order = np.argsort(key, kind="stable")  # a repeat sorts after its first
    key = key[order]
    e = order[1:][key[1:] == key[:-1]].min(initial=m)  # the first repeat
    faults = [f for f in (fault, e < m and (at[e], 1, "duplicate edge "
              f"({names[src[e]]}, {names[dst[e]]})")) if f]
    if faults:  # the earliest line's first fault
        line, _, message = min(faults)
        raise PipelineError(f"line {line}: {message}")
    undeclared = (index[src] >= n) | (index[dst] >= n)
    if undeclared.any():
        e = undeclared.argmax()
        raise PipelineError(f"edge ({names[src[e]]}, {names[dst[e]]}) "
                            "references undeclared node")
    src, dst = np.divmod(key, max(size, 1))
    return InfluenceNetwork(level, tuple(nodes), src, dst, count[order])


def write_flow(flow: FlowNetwork) -> Iterator[str]:
    return _write_records(f"mode\t{flow.weight_mode}", flow.nodes, flow.lo,
                          flow.hi, flow.F, flow.w)
