"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the library's solver paths: dense
pseudoinverse for potentials, eigenvector extraction for PageRank, brute
force enumeration for edge counts and partitions, dense all-pairs arrays
for the layout energy. ``louvain_reference`` is the Louvain method as
first written, on Python neighbour lists and dicts, and
``serialize_events_reference`` the canonical event file as first written,
from event objects through ``csv.writer``. ``json_graph_reference`` is
``graph.json`` as first written: one dict per node and per link, through
``json.dumps(indent=2, sort_keys=True)``. ``synth_reference`` is the
synthetic generator as first written, one event object per listing.
``layout_reference`` is the layout's first descent: backtracking gradient
steps on the same energy kernel, always running to ``max_steps``.
``read_network_reference`` is the ``net.tsv`` reader as first written,
checking one line at a time. ``export_graph_reference`` is the graph
export (edge table, dot, json) that tested each optional attribute for
``None`` on every node and edge line. ``parse_events_reference`` is the
delimited event parser that read one ``csv.reader`` row and coded one
event at a time. ``from_columns_reference`` is the EventSet constructor
that ordered its rows by two multi-key ``lexsort`` passes.
``components_reference`` is the component labelling as first written, a
Python union-find over the pairs, and ``solve_potentials_reference`` the
potential solve that filled and solved one dense matrix per small
component, pair by pair. ``read_table_reference``,
``read_node_columns_reference`` and ``read_node_table_reference`` are the
``.csv`` readers that converted and checked one row at a time, and
``write_table_reference`` the writer that sent every row through
``csv.writer``. ``finite`` is the float cell converter the table tests
read with, refusing nan and infinities.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from datetime import timedelta
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable

import numpy as np

from sanctionflow.community import CommunityPartition, modularity
from sanctionflow.errors import (ConvergenceError, EventParseError,
                                 PipelineError)
from sanctionflow.events import (_FIELDS, _HEADER, Column, EventSet,
                                 _checked_category, _checked_id, _parse_date)
from sanctionflow.hodge import (DENSE_LIMIT, LaplacianSystem,
                                PotentialVector, _backward_bound, _net_out,
                                _sparse_solve)
from sanctionflow.report import (_EPS, _GRAVITY, LayoutResult, _apply_jitter,
                                 _energy_kernel)
from sanctionflow.table import _run_starts, preamble, skip_preamble

from conftest import (by_node, ev, in_node_order, make_events, pairs_of,
                      split_of)


def finite(cell: str) -> float:
    """The cell as a float; nan and infinities are bad values."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def flow_components(nodes, pairs):
    """Connected components on the weight support, by BFS."""
    adj = {n: set() for n in nodes}
    for (a, b) in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def dense_potential_oracle(flow):
    """Pseudoinverse solve of the normal equations, mean-centered per component."""
    nodes = list(flow.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    lap = np.zeros((n, n))
    f = np.zeros(n)
    pairs = pairs_of(flow)
    for (a, b), (F, w) in pairs.items():
        i, j = idx[a], idx[b]
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
        f[i] += F
        f[j] -= F
    phi = np.linalg.pinv(lap) @ f
    for comp in flow_components(nodes, pairs):
        sel = [idx[v] for v in comp]
        phi[sel] -= phi[sel].mean()
    return {v: float(phi[idx[v]]) for v in nodes}


def oracle_ratios(flow, phi):
    """Weighted norm shares of the gradient and circular parts."""
    total = grad = loop = 0.0
    for (a, b), (F, w) in pairs_of(flow).items():
        fp = w * (phi[a] - phi[b])
        total += F * F / w
        grad += fp * fp / w
        loop += (F - fp) ** 2 / w
    return grad / total, loop / total


def dense_pagerank_oracle(net, damping=0.85):
    """Principal eigenvector of the dense Google matrix."""
    nodes = list(net.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for (a, b), c in net.adjacency.items():
        A[idx[a], idx[b]] = c
    out = A.sum(axis=1)
    P = np.zeros((n, n))
    for i in range(n):
        if out[i] == 0:
            P[i, :] = 1.0 / n
        else:
            P[i, :] = A[i, :] / out[i]
    G = damping * P + (1 - damping) / n
    vals, vecs = np.linalg.eig(G.T)
    k = int(np.argmax(vals.real))
    v = np.abs(vecs[:, k].real)
    v /= v.sum()
    return {node: float(v[idx[node]]) for node in nodes}


def brute_force_counts(events, level, lists=None):
    """Double loop over all event pairs, straight from the edge rule."""
    counts = {}
    evs = [e for e in events.events if lists is None or e.list_id in lists]
    if level == "list":
        for e1 in evs:
            for e2 in evs:
                if (e1.entity_id == e2.entity_id
                        and e1.list_id != e2.list_id
                        and e1.date < e2.date):
                    key = (e1.list_id, e2.list_id)
                    counts[key] = counts.get(key, 0) + 1
    else:
        first = {}
        for e in evs:
            key = (e.entity_id, e.issuer)
            if key not in first or e.date < first[key]:
                first[key] = e.date
        for (ent1, iss1), d1 in first.items():
            for (ent2, iss2), d2 in first.items():
                if ent1 == ent2 and iss1 != iss2 and d1 < d2:
                    key = (iss1, iss2)
                    counts[key] = counts.get(key, 0) + 1
    return counts


def serialize_events_reference(raw):
    """The canonical event file of the events ``raw``: the earliest event
    per (list_id, entity_id), the first given among same-day ones, sorted
    by (date, issuer, list_id, entity_id) and written by ``csv.writer``."""
    best = {}
    for idx, e in enumerate(raw):
        key = (e.list_id, e.entity_id)
        if key not in best or (e.date, idx) < best[key][:2]:
            best[key] = (e.date, idx, e)
    events = sorted((v[2] for v in best.values()),
                    key=lambda e: (e.date, e.issuer, e.list_id, e.entity_id))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["issuer", "list_id", "entity_id", "date", "category"])
    for e in events:
        writer.writerow([e.issuer, e.list_id, e.entity_id,
                         e.date.isoformat(), e.category or ""])
    return out.getvalue()


def synth_reference(config, seed):
    """The EventSet of ``synth_generate(config, seed)``, built from one
    event per listing: the same ``random.Random`` calls in the same order,
    the list drawn by ``rng.choice`` from its issuer's list names."""
    rng = random.Random(seed)
    ranks = config.issuer_ranks()
    issuers = [f"ISS{i:03d}" for i in range(config.n_issuers)]
    lists = {iss: [f"{iss}-L{k}" for k in range(config.lists_per_issuer)]
             for iss in issuers}
    by_rank = sorted(range(config.n_issuers), key=lambda i: ranks[i])
    events = []
    for e in range(config.n_entities):
        entity = f"ENT{e:05d}"
        origin_pos = rng.randrange(config.n_issuers)
        t0 = config.start + timedelta(days=rng.randrange(config.window_days))
        for pos in range(origin_pos, config.n_issuers):
            gap = pos - origin_pos
            if gap > 0 and rng.random() >= config.copy_prob ** gap:
                continue
            iss = issuers[by_rank[pos]]
            day = t0 + timedelta(days=gap)
            events.append(ev(iss, rng.choice(lists[iss]), entity,
                             day.isoformat()))
    return make_events(events)


def from_columns_reference(issuer, list_id, entity_id, category, day):
    """``EventSet.from_columns`` as first written: a ``lexsort`` on (list,
    entity, day) to keep each pair's first event, a ``sorted`` of each
    column's used names, then a ``lexsort`` into canonical order."""
    iss, lst, ent, cat = (np.asarray(c.codes, np.int32)
                          for c in (issuer, list_id, entity_id, category))
    day = np.asarray(day, np.int32)
    # lexsort is stable, so the first given leads each same-day run
    order = np.lexsort((day, ent, lst))
    keep = order[_run_starts(lst[order], ent[order])]
    iss, lst, ent, cat = (_sorted_column(c.names, codes[keep]) for c, codes
                          in ((issuer, iss), (list_id, lst),
                              (entity_id, ent), (category, cat)))
    order = np.lexsort((ent.codes, lst.codes, iss.codes, day[keep]))
    iss, lst, ent, cat = (Column(c.names, c.codes[order])
                          for c in (iss, lst, ent, cat))
    _check_owners_reference(iss, lst)
    return EventSet(iss, lst, ent, cat, day[keep][order])


def _sorted_column(names, codes):
    used = np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(names)))
    ranked = sorted(used.tolist(), key=names.__getitem__)
    recode = np.full(len(names) + 1, -1, np.int32)  # code -1 reads the last
    recode[ranked] = np.arange(len(ranked))
    return Column(tuple(names[k] for k in ranked), recode[codes])


def _check_owners_reference(issuer, list_id):
    lists, first = np.unique(list_id.codes, return_index=True)
    owner = np.empty(len(list_id.names), np.int32)
    owner[lists] = issuer.codes[first]
    clash = np.flatnonzero(issuer.codes != owner[list_id.codes])
    if len(clash):
        k = clash[0]
        lst = list_id.codes[k]
        raise PipelineError(
            f"list '{list_id.names[lst]}' appears under two issuers: "
            f"'{issuer.names[owner[lst]]}' and "
            f"'{issuer.names[issuer.codes[k]]}'")


def json_graph_reference(net, decomp=None, communities=None,
                         layout_result=None):
    """The json_graph export of ``net``: nodes in ``net.nodes`` order, links
    in (source, target) node-index order, each link's flows read from the
    decomposition's (lower, higher index) pair with the link's sign, and
    left out when the decomposition lacks that pair."""
    index = {v: i for i, v in enumerate(net.nodes)}
    phis = by_node(net.nodes, decomp.potentials.phi) if decomp else {}
    comms = by_node(net.nodes, communities) if communities is not None else {}
    positions = (by_node(net.nodes, layout_result.x, layout_result.y)
                 if layout_result else {})

    def node_attrs(v):
        return phis.get(v), comms.get(v), positions.get(v)

    gradient, circular = split_of(decomp) if decomp else ({}, {})
    links = []
    for (a, b), count in sorted(net.adjacency.items(),
                                key=lambda t: (index[t[0][0]], index[t[0][1]])):
        pair = None
        key, sign = ((a, b), 1.0) if index[a] < index[b] else ((b, a), -1.0)
        if decomp and key in gradient:
            fp = sign * gradient[key]
            fc = sign * circular[key]
            pair = (fp + fc, fp, fc)
        links.append((a, b, count, pair))

    nodes = []
    for v in net.nodes:
        phi, comm, pos = node_attrs(v)
        entry = {"id": v}
        if phi is not None:
            entry["potential"] = phi
        if comm is not None:
            entry["community"] = comm
        if pos is not None:
            entry["x"], entry["y"] = pos
        nodes.append(entry)
    entries = []
    for a, b, count, pair in links:
        entry = {"source": a, "target": b, "count": count}
        if pair is not None:
            entry["F"], entry["F_grad"], entry["F_circ"] = pair
        entries.append(entry)
    return json.dumps({"directed": True, "level": net.level,
                       "nodes": nodes, "links": entries},
                      indent=2, sort_keys=True) + "\n"


def set_partitions(items):
    """All set partitions (restricted growth strings)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1:]
        yield [[first]] + partial


def modularity_oracle(net, assignment, resolution=1.0):
    """Direct double sum over ordered node pairs of W = A + A^T."""
    nodes = list(net.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    W = np.zeros((n, n))
    for (a, b), c in net.adjacency.items():
        W[idx[a], idx[b]] += c
        W[idx[b], idx[a]] += c
    two_m = W.sum()
    k = W.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[nodes[i]] == assignment[nodes[j]]:
                q += (W[i, j] - resolution * k[i] * k[j] / two_m) / two_m
    return q


def best_partition_bruteforce(net, resolution=1.0):
    """Optimal modularity over every partition (feasible up to ~8 nodes)."""
    best_q, best = -np.inf, None
    for blocks in set_partitions(net.nodes):
        assignment = {}
        for cid, block in enumerate(blocks):
            for v in block:
                assignment[v] = cid
        q = modularity_oracle(net, assignment, resolution)
        if q > best_q:
            best_q, best = q, assignment
    return best_q, best


def _reference_local_move(n, neighbors, strength, two_m, resolution, comm,
                          rng):
    """One level's local moves; True if any node changed community."""
    comm_total = {}
    for i in range(n):
        comm_total[comm[i]] = comm_total.get(comm[i], 0.0) + strength[i]
    order = list(range(n))
    improved = False
    moved = True
    while moved:
        moved = False
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
    return improved


def louvain_reference(net, resolution=1.0, seed=0):
    """Louvain with aggregation over neighbour lists built from the
    adjacency dict (w = A_ab + A_ba per unordered pair), one dict fold of
    community pairs per level, and first-appearance relabels in loops.

    Every weight is a sum of integer counts, so each float sum is exact in
    any order; Q per level and at the end comes from the library's
    ``modularity``, so a faithful implementation matches it bit for bit.
    """
    nodes = net.nodes
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    pair_w = {}
    for (a, b), count in net.adjacency.items():
        key = (min(index[a], index[b]), max(index[a], index[b]))
        pair_w[key] = pair_w.get(key, 0.0) + count
    two_m = 2.0 * sum(pair_w.values())
    rng = random.Random(seed)
    neighbors = [[] for _ in range(n)]
    for (a, b), w in pair_w.items():
        neighbors[a].append((b, w))
        neighbors[b].append((a, w))
    self_w = [0.0] * n
    membership = list(range(n))  # original node -> current super-node
    pass_q = []

    while True:
        strength = [self_w[i] + sum(w for _, w in neighbors[i]) for i in range(n)]
        comm = list(range(n))
        improved = _reference_local_move(n, neighbors, strength, two_m,
                                         resolution, comm, rng)
        relabel = {}
        for i in range(n):
            relabel.setdefault(comm[i], len(relabel))
        comm = [relabel[c] for c in comm]
        membership = [comm[membership[v]] for v in range(len(membership))]
        pass_q.append(modularity(net, membership, resolution))
        if not improved or len(relabel) == n:
            break
        # aggregate communities into super-nodes
        n_new = len(relabel)
        new_self = [0.0] * n_new
        agg = {}
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
    q = modularity(net, in_node_order(nodes, assignment), resolution)
    single = {node: 0 for node in nodes}
    q_single = modularity(net, in_node_order(nodes, single), resolution)
    if q < q_single:
        assignment, q = single, q_single
    return CommunityPartition(assignment=assignment, modularity=q,
                              resolution=resolution, seed=seed,
                              pass_modularity=tuple(pass_q))


def connected_edge_subsets(n):
    """All connected labeled graphs on n nodes, as tuples of index pairs."""
    all_pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1, 1 << len(all_pairs)):
        edges = [all_pairs[k] for k in range(len(all_pairs)) if mask >> k & 1]
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in edges:
            parent[find(i)] = find(j)
        if len({find(i) for i in range(n)}) == 1:
            yield tuple(edges)


def dense_layout_energy_oracle(x, y, rows, cols, wgt):
    """The layout energy and its gradient in x from dense n x n arrays:
    gravity, log-distance repulsion over all pairs, distance attraction
    over the edges (rows[k] < cols[k]), distances clamped below at _EPS."""
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(dist, 1.0)
    dist = np.maximum(dist, _EPS)

    energy = _GRAVITY * float(x @ x)
    grad = 2.0 * _GRAVITY * x
    energy -= float(np.triu(np.log(dist), 1).sum())
    rep = dx / (dist * dist)
    np.fill_diagonal(rep, 0.0)
    grad -= rep.sum(axis=1)
    if len(rows):
        d_e = dist[rows, cols]
        energy += float((wgt * d_e).sum())
        pull = wgt * dx[rows, cols] / d_e
        np.add.at(grad, rows, pull)
        np.add.at(grad, cols, -pull)
    return energy, grad


def brute_force_jitter(positions, nodes, jitter, min_sep, rng):
    """Nodes in sorted order; each one within min_sep of any other node's
    current position gets one rng.uniform(-jitter, jitter) added to y."""
    out = dict(positions)
    ordered = sorted(nodes)
    for v in ordered:
        xv, yv = out[v]
        crowded = any(
            u != v and math.hypot(out[u][0] - xv, out[u][1] - yv) < min_sep
            for u in ordered)
        if crowded:
            out[v] = (xv, yv + rng.uniform(-jitter, jitter))
    return out


def layout_reference(net, potentials, seed=0, jitter=0.0, min_sep=1e-6,
                     max_steps=200):
    """1-D LinLog descent on x with y fixed at the potential."""
    if not 0.0 <= jitter < np.inf:
        raise PipelineError("jitter must be finite and non-negative")
    n = len(net.nodes)
    y = potentials.phi
    rng = random.Random(seed)
    if n < 2:
        return LayoutResult(x=np.zeros(n), y=y)
    x = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])

    # one weight per unordered pair, summing both directions' counts
    v = net.view
    energy_and_grad = _energy_kernel(y, v.lo, v.hi, v.fwd + v.back)

    energy, grad = energy_and_grad(x)
    history = [energy]
    step = 0.1
    for _ in range(max_steps):
        gnorm = float(np.abs(grad).max(initial=0.0))
        if gnorm < 1e-12:
            break
        # backtracking so the recorded energy never increases
        while step > 1e-14:
            trial = x - step * grad
            e_trial, g_trial = energy_and_grad(trial)
            if e_trial <= energy:
                x, energy, grad = trial, e_trial, g_trial
                history.append(energy)
                step *= 1.5
                break
            step *= 0.5
        else:
            break

    if jitter > 0.0:
        y = _apply_jitter(net.nodes, x, y, jitter, min_sep, rng)
    return LayoutResult(x=x, y=y, energy_history=tuple(history))


def read_network_reference(text):
    """The level, node names and sorted (src, dst, count) index triples of
    a ``net.tsv`` text, read line by line; the first bad line raises."""
    level, nodes, edges = "institution", {}, {}
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
            nodes[line] = len(nodes)
        elif len(fields) == 3:
            a, b, cell = fields
            if a == b:
                raise PipelineError(f"line {line_no}: self-loop on '{a}'")
            if (a, b) in edges:
                raise PipelineError(f"line {line_no}: duplicate edge ({a}, {b})")
            try:
                count = int(cell)
            except ValueError:
                raise PipelineError(f"line {line_no}: bad count '{cell}'")
            if count <= 0:
                raise PipelineError(f"line {line_no}: non-positive count")
            if count >= 2 ** 63:
                raise PipelineError(f"line {line_no}: count exceeds int64")
            edges[a, b] = count
        else:
            raise PipelineError(f"line {line_no}: expected 1 or 3 fields, "
                                f"got {len(fields)}")
    for a, b in edges:
        if a not in nodes or b not in nodes:
            raise PipelineError(f"edge ({a}, {b}) references undeclared node")
    return level, tuple(nodes), sorted((nodes[a], nodes[b], count)
                                       for (a, b), count in edges.items())


def export_graph_reference(net, decomp=None, communities=None,
                           layout_result=None, format="edge_table",
                           header=()):
    """``report.export_graph`` with a per-row ``None`` for each absent
    attribute, formatted by a branch on every node and edge line."""
    if format not in ("edge_table", "dot", "json_graph"):
        raise PipelineError(f"unknown export format '{format}'")
    if decomp is not None and (decomp.flow.nodes != net.nodes or not (
            np.array_equal(decomp.flow.lo, net.view.lo)
            and np.array_equal(decomp.flow.hi, net.view.hi))):
        raise PipelineError("decomposition's nodes and pairs are not the "
                            "network's")
    # per node, in node order: (potential, community, (x, y)), None if absent
    none = [None] * len(net.nodes)
    node_attrs = list(zip(
        none if decomp is None else decomp.potentials.phi.tolist(),
        none if communities is None else communities.tolist(),
        none if layout_result is None else zip(layout_result.x.tolist(),
                                               layout_result.y.tolist())))

    flows = repeat(None) if decomp is None else _link_flows(net, decomp)
    if format == "json_graph":
        return _export_json(net, node_attrs, flows)
    links = zip(map(net.nodes.__getitem__, net.src.tolist()),
                map(net.nodes.__getitem__, net.dst.tolist()),
                net.count.tolist(), flows)
    if format == "dot":
        return _export_dot(net, node_attrs, links)
    return _export_edge_table(net, node_attrs, links, header)


def _link_flows(net, decomp):
    pair = net.view.pair
    sign = np.where(net.src < net.dst, 1.0, -1.0)
    fp, fc = sign * decomp.gradient[pair], sign * decomp.circular[pair]
    return zip((fp + fc).tolist(), fp.tolist(), fc.tolist())


def _fmt(value):
    return "-" if value is None else f"{value:.17g}"


def _export_edge_table(net, node_attrs, links, header):
    out = io.StringIO()
    out.write(preamble([*header, "node columns\tid\tpotential\tcommunity\tx\ty",
                        "edge columns\tsrc\tdst\tcount\tF\tw\tF_grad\tF_circ",
                        f"level\t{net.level}"]))
    for v, (phi, comm, pos) in zip(net.nodes, node_attrs):
        x, y = pos if pos else (None, None)
        comm_s = "-" if comm is None else str(comm)
        out.write(f"{v}\t{_fmt(phi)}\t{comm_s}\t{_fmt(x)}\t{_fmt(y)}\n")
    view = net.view
    half = ((view.fwd + view.back)[view.pair] / 2.0).tolist()
    for (a, b, count, attrs), w in zip(links, half):
        f, fp, fc = attrs if attrs else (None, None, None)
        out.write(f"{a}\t{b}\t{count}\t{_fmt(f)}\t{w:.17g}\t"
                  f"{_fmt(fp)}\t{_fmt(fc)}\n")
    return out.getvalue()


def _dot_quote(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _export_dot(net, node_attrs, links):
    out = io.StringIO()
    out.write("digraph influence {\n")
    for v, (phi, comm, pos) in zip(net.nodes, node_attrs):
        attrs = []
        if phi is not None:
            attrs.append(f'potential="{phi:.6g}"')
        if comm is not None:
            attrs.append(f'community="{comm}"')
        if pos is not None:
            attrs.append(f'pos="{pos[0]:.6g},{pos[1]:.6g}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        out.write(f"  {_dot_quote(v)}{suffix};\n")
    for a, b, count, pair in links:
        attrs = [f'weight="{count}"']
        if pair is not None:
            f, fp, fc = pair
            attrs.append(f'F="{f:.6g}"')
            attrs.append(f'F_grad="{fp:.6g}"')
            attrs.append(f'F_circ="{fc:.6g}"')
        out.write(f"  {_dot_quote(a)} -> {_dot_quote(b)} "
                  f"[{', '.join(attrs)}];\n")
    out.write("}\n")
    return out.getvalue()


def _json_float(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_list(items: Iterable[str]) -> str:
    body = ",\n".join(items)
    return f"[\n{body}\n  ]" if body else "[]"


def _export_json(net, node_attrs, flows):
    num = _json_float
    names = list(map(encode_basestring_ascii, net.nodes))

    def node_items():
        for name, (phi, comm, pos) in zip(names, node_attrs):
            comm_s = "" if comm is None else f'"community": {comm},\n      '
            phi_s = "" if phi is None else f',\n      "potential": {num(phi)}'
            pos_s = ("" if pos is None else f',\n      "x": {num(pos[0])},'
                     f'\n      "y": {num(pos[1])}')
            yield f'    {{\n      {comm_s}"id": {name}{phi_s}{pos_s}\n    }}'

    def link_items():
        for a, b, count, attrs in zip(net.src.tolist(), net.dst.tolist(),
                                      net.count.tolist(), flows):
            flow_s = "" if attrs is None else (
                f'"F": {num(attrs[0])},\n      "F_circ": {num(attrs[2])},'
                f'\n      "F_grad": {num(attrs[1])},\n      ')
            yield (f'    {{\n      {flow_s}"count": {count},\n      '
                   f'"source": {names[a]},\n      "target": {names[b]}\n    }}')

    links = _json_list(link_items())
    return (f'{{\n  "directed": true,\n  "level": '
            f'{encode_basestring_ascii(net.level)},\n  "links": {links},'
            f'\n  "nodes": {_json_list(node_items())}\n}}\n')


class _Columns:
    """Event columns in input order, as they are parsed. Each distinct raw
    value of a field is checked and coded on its first occurrence only, so
    an error still names the first line and field that hold a bad value."""

    def __init__(self):
        # per field of _FIELDS: name -> code (dates have no names), and
        # raw value -> code (date: ordinal)
        self.names = ({}, {}, {}, None, {})
        self.seen = ({}, {}, {}, {}, {None: -1})
        self.codes = ([], [], [], [], [])

    def add(self, values: tuple, line: int) -> None:
        """One event's raw (issuer, list_id, entity_id, date, category);
        the category may be None. Fields are checked category first."""
        seen, codes = self.seen, self.codes
        for k in (4, 0, 1, 2, 3):
            value = values[k]
            code = seen[k].get(value)
            if code is None:
                code = seen[k][value] = self._code(k, value, line)
            codes[k].append(code)

    def _code(self, k: int, value, line: int) -> int:
        if k == 3:
            return _parse_date(value, line)
        name = (_checked_category(value, line) if k == 4
                else _checked_id(value, _FIELDS[k], line))
        if name is None:
            return -1
        names = self.names[k]
        return names.setdefault(name, len(names))

    def event_set(self) -> EventSet:
        return EventSet.from_columns(
            *(Column(tuple(self.names[k]), self.codes[k]) for k in (0, 1, 2, 4)),
            self.codes[3])


def _row_getter(header: list[str], width: int):
    """The (issuer, list_id, entity_id, date, category) cells of a row of
    ``width`` cells; a repeated header name reads its last column."""
    where = {name: k for k, name in enumerate(header[:width])}
    get = itemgetter(*(where[name] for name in _HEADER))
    if "category" not in where:
        return lambda row: (*get(row), None)
    return itemgetter(*(where[name] for name in _FIELDS))


def parse_events_reference(text: str | Iterable[str]) -> EventSet:
    text = io.StringIO(text) if isinstance(text, str) else iter(text)
    skipped, lines = skip_preamble(text)
    reader = csv.reader(lines)
    columns = _Columns()
    add = columns.add
    getters = {}  # row width -> cell getter
    try:
        header = [c.strip() for c in next(reader, [])]
        if tuple(header[:4]) != _HEADER:
            raise EventParseError(
                f"bad header {header!r}; expected issuer,list_id,entity_id,"
                "date[,category]", line=skipped + 1)
        for row in reader:
            get = getters.get(len(row))
            if get is None:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 4 or len(row) > len(header):
                    raise EventParseError(
                        f"expected {len(header)} fields, got {len(row)}",
                        line=skipped + reader.line_num,
                        field=_HEADER[len(row)] if len(row) < 4 else None)
                get = getters[len(row)] = _row_getter(header, len(row))
            add(get(row), skipped + reader.line_num)
    except csv.Error as exc:
        raise EventParseError(str(exc), line=skipped + reader.line_num) from None
    return columns.event_set()


def components_reference(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each node's connected-component label over the pairs (lo, hi), the
    components numbered in order of their smallest node."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(lo.tolist(), hi.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    # a root is its component's smallest node
    return np.unique([find(i) for i in range(n)], return_inverse=True)[1]


def _dense_solve_reference(rows, cols, wvec, rhs):
    """Direct solve of (L + J/n) phi = f; the J/n shift pins the mean to 0."""
    n = len(rhs)
    lap = np.full((n, n), 1.0 / n)
    for a, b, w in zip(rows.tolist(), cols.tolist(), wvec.tolist()):
        lap[a, a] += w
        lap[b, b] += w
        lap[a, b] -= w
        lap[b, a] -= w
    return np.linalg.solve(lap, rhs)


def solve_potentials_reference(system: LaplacianSystem,
                               tol: float = 1e-10) -> PotentialVector:
    if not 0.0 < tol < np.inf:
        raise PipelineError("tolerance must be positive and finite")
    n = len(system.nodes)
    comps = system.components
    rows, cols, wvec = system.weights
    # component label and position within the component of every node
    sizes = np.fromiter(map(len, comps), dtype=np.intp, count=len(comps))
    flat = np.fromiter((i for comp in comps for i in comp), dtype=np.intp,
                       count=n)
    label = np.empty(n, dtype=np.intp)
    label[flat] = np.repeat(np.arange(len(comps)), sizes)
    local = np.empty(n, dtype=np.intp)
    local[flat] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # every pair into its component's bucket, pair order kept
    pair_label = label[rows]
    by_comp = np.argsort(pair_label, kind="stable")
    bounds = np.cumsum(np.bincount(pair_label, minlength=len(comps))).tolist()
    phi = np.zeros(n)
    start = 0
    for cid, comp in enumerate(comps):
        sel = by_comp[start:bounds[cid]]
        start = bounds[cid]
        if len(comp) == 1:
            continue
        members = list(comp)
        args = (local[rows[sel]], local[cols[sel]], wvec[sel],
                system.rhs[members])
        if len(comp) <= DENSE_LIMIT:
            try:
                sol = _dense_solve_reference(*args)
            except np.linalg.LinAlgError:
                raise ConvergenceError(
                    f"component {cid} ({len(comp)} nodes) is numerically "
                    "singular", residual=np.inf) from None
        else:
            sol = _sparse_solve(*args, tol, cid)
        phi[members] = sol - sol.mean()

    residual = float(np.abs(_net_out(rows, cols, wvec * (phi[rows] - phi[cols]),
                                     n) - system.rhs).max(initial=0.0))
    if residual > _backward_bound(rows, cols, wvec, system.rhs, phi, tol):
        raise ConvergenceError("potential solve did not reach tolerance",
                               residual=residual)
    return PotentialVector(phi=phi, component=label)


def read_table_reference(text, columns, types):
    skipped, lines = skip_preamble(io.StringIO(text))
    reader = csv.reader(lines)
    rows = []
    keys = set()
    try:
        head = next(reader, None)
        if head is None or [c.strip() for c in head] != list(columns):
            raise PipelineError(f"line {skipped + 1}: expected header "
                                f"{','.join(columns)}, got {head!r}")
        for row in reader:
            line = skipped + reader.line_num
            if len(row) != len(columns):
                raise PipelineError(f"line {line}: expected {len(columns)} "
                                    f"fields ({','.join(columns)}), "
                                    f"got {len(row)}")
            values = []
            for name, convert, cell in zip(columns, types, row):
                try:
                    values.append(convert(cell))
                except (KeyError, ValueError):
                    raise PipelineError(f"line {line}: column '{name}': "
                                        f"bad value {cell!r}") from None
            if values[0] in keys:
                raise PipelineError(f"line {line}: repeated {columns[0]} "
                                    f"{row[0]!r}")
            keys.add(values[0])
            rows.append(tuple(values))
    except csv.Error as exc:
        raise PipelineError(f"line {skipped + reader.line_num}: {exc}") from None
    return rows


def read_node_columns_reference(text, nodes, columns, types):
    index = {node: k for k, node in enumerate(nodes)}
    return _node_columns_reference(
        read_table_reference(text, columns, (index.__getitem__, *types)),
        nodes, len(columns))


def _node_columns_reference(rows, nodes, width):
    at = np.full(len(nodes), -1)
    at[[row[0] for row in rows]] = np.arange(len(rows))
    missing = [nodes[k] for k in np.flatnonzero(at < 0)[:5].tolist()]
    if missing:
        raise PipelineError(f"no row for node(s) {missing}")
    return tuple(np.array([row[k] for row in rows])[at]
                 for k in range(1, width))


def read_node_table_reference(text, net):
    """The potentials of a node table, each component label checked
    against the labelling of ``net``'s pairs as its row is read."""
    label = components_reference(len(net.nodes), net.view.lo,
                                 net.view.hi).tolist()
    index = {node: k for k, node in enumerate(net.nodes)}
    row = [0]  # the node of the row read; a row's cells convert in order

    def node(cell):
        row[0] = index[cell]
        return row[0]

    def checked_label(cell):
        if int(cell) != label[row[0]]:
            raise ValueError(cell)
        return int(cell)

    component, phi = _node_columns_reference(read_table_reference(
        text, ("node", "component", "potential"),
        (node, checked_label, finite)), net.nodes, 3)
    return PotentialVector(phi=phi, component=component)


def write_table_reference(meta, columns, rows):
    """``meta`` as '# ' lines, then the header and ``rows`` through
    csv.writer."""
    out = io.StringIO()
    out.write(preamble(meta))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()
