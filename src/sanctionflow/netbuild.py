"""Directed influence networks from events, and their symmetrized flow form.

The edge rule: for two nodes holding the same entity, the one that listed it
strictly earlier gains one unit of influence over the other. Same-day pairs
contribute nothing (direction is ambiguous at day resolution).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Iterable, Mapping

import numpy as np

from .errors import PipelineError
from .events import EventSet
from .table import preamble

LIST_LEVEL = "list"
INSTITUTION_LEVEL = "institution"


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


def _accumulate(dated: Iterable[tuple[str, object]], counts: dict) -> None:
    """Add one precedence count per ordered pair with strictly earlier date."""
    items = list(dated)
    for a, da in items:
        for b, db in items:
            if a != b and da < db:
                counts[(a, b)] = counts.get((a, b), 0) + 1


def build_list_network(events: EventSet) -> InfluenceNetwork:
    """List-level network: one count per (entity, ordered list pair) precedence."""
    per_entity: dict[str, list[tuple[str, object]]] = {}
    for ev in events.events:
        per_entity.setdefault(ev.entity_id, []).append((ev.list_id, ev.date))
    counts: dict[tuple[str, str], int] = {}
    for dated in per_entity.values():
        _accumulate(dated, counts)
    return InfluenceNetwork(level=LIST_LEVEL,
                            nodes=tuple(sorted(events.lists)),
                            adjacency=counts)


def build_institution_network(events: EventSet,
                              lists: set[str] | None = None) -> InfluenceNetwork:
    """Institution-level network over the selected lists (all by default).

    Precedence compares each institution's earliest inclusion date per
    entity, so one entity contributes at most 1 to any ordered pair.
    """
    if lists is not None:
        unknown = sorted(lists - events.lists)
        if unknown:
            raise PipelineError(f"unknown list_id(s) in filter: {unknown}")
    first_date: dict[str, dict[str, object]] = {}  # entity -> issuer -> date
    issuers = set()
    for ev in events.events:
        if lists is not None and ev.list_id not in lists:
            continue
        issuers.add(ev.issuer)
        per = first_date.setdefault(ev.entity_id, {})
        if ev.issuer not in per or ev.date < per[ev.issuer]:
            per[ev.issuer] = ev.date
    counts: dict[tuple[str, str], int] = {}
    for per in first_date.values():
        _accumulate(sorted(per.items()), counts)
    return InfluenceNetwork(level=INSTITUTION_LEVEL,
                            nodes=tuple(sorted(issuers)),
                            adjacency=counts)


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
# Plain-text round-trip formats. Node lines carry a single field; edge lines
# are src<TAB>dst<TAB>count (flow pairs: i<TAB>j<TAB>F<TAB>w). Lines starting
# with '#' are metadata and ignored on read, except the level/mode markers.

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
        (f"{_check_id(a)}\t{_check_id(b)}\t{net.adjacency[(a, b)]}\n"
         for (a, b) in sorted(net.adjacency)))


def _count(fields: list[str], line_no: int) -> int:
    try:
        count = int(fields[2])
    except ValueError:
        raise PipelineError(f"line {line_no}: bad count '{fields[2]}'")
    if count <= 0:
        raise PipelineError(f"line {line_no}: non-positive count")
    return count


def read_records(text: str, marker: str, default: str, edge_width: int,
                 value: Callable = _count):
    """A node/edge file's ``# marker`` value, its node ids (one per node
    line) and ``(src, dst) -> value(fields, line_no)`` per edge line.

    A repeated node, a repeated edge and an edge from a node to itself are
    errors naming their line, as is an edge to an undeclared node.
    """
    found = default
    nodes: dict[str, None] = {}
    edges: dict[tuple[str, str], object] = {}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split("\t")
            if parts[0] == marker and len(parts) == 2:
                found = parts[1]
            continue
        fields = line.split("\t")
        if len(fields) == 1:
            if line in nodes:
                raise PipelineError(f"line {line_no}: duplicate node '{line}'")
            nodes[line] = None
        elif len(fields) == edge_width:
            a, b = fields[0], fields[1]
            if a == b:
                raise PipelineError(f"line {line_no}: self-loop on '{a}'")
            if (a, b) in edges:
                raise PipelineError(f"line {line_no}: duplicate edge ({a}, {b})")
            edges[(a, b)] = value(fields, line_no)
        else:
            raise PipelineError(f"line {line_no}: expected 1 or {edge_width} "
                                f"fields, got {len(fields)}")
    for (a, b) in edges:
        if a not in nodes or b not in nodes:
            raise PipelineError(f"edge ({a}, {b}) references undeclared node")
    return found, tuple(nodes), edges


def read_network(text: str) -> InfluenceNetwork:
    level, nodes, adjacency = read_records(text, "level", INSTITUTION_LEVEL, 3)
    return InfluenceNetwork(level=level, nodes=nodes, adjacency=adjacency)


def write_flow(flow: FlowNetwork, header: Iterable[str] = ()) -> str:
    return _write_records(
        [*header, f"mode\t{flow.weight_mode}"], flow.nodes,
        (f"{i}\t{j}\t{f:.17g}\t{w:.17g}\n"
         for (i, j), (f, w) in sorted(flow.pairs.items())))


def _flow_pair(fields: list[str], line_no: int) -> tuple[float, float]:
    try:
        return float(fields[2]), float(fields[3])
    except ValueError:
        raise PipelineError(f"line {line_no}: bad flow/weight value")


def read_flow(text: str) -> FlowNetwork:
    mode, nodes, pairs = read_records(text, "mode", "mean", 4, _flow_pair)
    return FlowNetwork(nodes=nodes, pairs=pairs, weight_mode=mode)
