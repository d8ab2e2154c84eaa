"""Potential / circulation split of a flow network.

The per-node potential phi minimizes sum_{pairs} (F_ij - w_ij (phi_i - phi_j))^2 / w_ij,
whose normal equation is the weighted graph Laplacian system L phi = f with
f_i the net outflow at node i. Gradient flow is w_ij (phi_i - phi_j); the
circulation is the divergence-free remainder. Potentials are shifted to mean
zero within each connected component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .errors import ConvergenceError, PipelineError
from .netbuild import FlowNetwork, InfluenceNetwork, pair_columns
from .table import (_cells, read_node_columns, read_table, write_columns,
                    write_node_columns)

DENSE_LIMIT = 64  # components up to this size use a direct solve
PCG_STALL = 50  # PCG iterations without a new least residual before it stops


@dataclass(frozen=True, eq=False)
class PotentialVector:
    phi: np.ndarray  # per node, in the flow network's node order
    component: np.ndarray  # the label of each node's connected component


@dataclass(frozen=True, eq=False)
class LaplacianSystem:
    nodes: tuple[str, ...]
    # (rows, cols, w): the endpoint indices and weight of each pair
    weights: tuple[np.ndarray, np.ndarray, np.ndarray]
    rhs: np.ndarray    # f_i = net outflow at node i
    label: np.ndarray  # each node's component, numbered by its smallest node

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Each component's nodes, read by the tests and perfbench only."""
        members = iter(np.argsort(self.label, kind="stable").tolist())
        return tuple(tuple(islice(members, size))
                     for size in np.bincount(self.label).tolist())


@dataclass(frozen=True, eq=False)
class HodgeDecomposition:
    """The split of ``flow``: ``gradient[k]`` and ``circular[k]`` are the
    two parts of the flow ``flow.F[k]`` on its pair k."""
    potentials: PotentialVector
    flow: FlowNetwork
    gradient: np.ndarray
    circular: np.ndarray
    gradient_ratio: float
    loop_ratio: float
    residual_norm: float


def _components(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each node's connected-component label over the pairs (lo, hi), the
    components numbered in order of their smallest node, by hooking roots
    and pointer jumping (Shiloach & Vishkin 1982) in O(log n) rounds."""
    root = np.arange(n)
    while not np.array_equal(a := root[lo], b := root[hi]):
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    # a root is its component's smallest node
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def assemble_laplacian(flow: FlowNetwork) -> LaplacianSystem:
    """Build L (implicitly, via pair weights) and the net-outflow vector."""
    return LaplacianSystem(
        nodes=flow.nodes, weights=(flow.lo, flow.hi, flow.w),
        rhs=_net_out(flow.lo, flow.hi, flow.F, len(flow.nodes)),
        label=_components(len(flow.nodes), flow.lo, flow.hi))


def _net_out(rows, cols, values, n):
    """Per-node sum of ``values`` leaving minus entering along each pair."""
    return (np.bincount(rows, values, minlength=n)
            - np.bincount(cols, values, minlength=n))


def _solve_stack(lap, rhs, cids):
    """Solve lap[k] x = rhs[k] per component cids[k], naming a singular one."""
    try:
        return np.linalg.solve(lap, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(cids) > 1:
            return np.concatenate([_solve_stack(*one) for one in zip(
                lap[:, None], rhs[:, None], [[cid] for cid in cids])])
        raise ConvergenceError(
            f"component {cids[0]} ({rhs.shape[1]} nodes) is numerically "
            "singular", residual=np.inf) from None


def _eliminate_leaves(rows, cols, n):
    """Partial Cholesky order: repeatedly remove a degree-1 vertex.

    Returns (leaf, parent, pair) in elimination order, where ``pair``
    indexes the leaf's one remaining pair, to ``parent``. A pure tree
    leaves a single vertex behind.
    """
    deg = (np.bincount(rows, minlength=n)
           + np.bincount(cols, minlength=n)).tolist()
    pair_ids = np.arange(len(rows), dtype=float)
    # sum of the ids of each vertex's remaining pairs: at degree 1 it is
    # the id of the last one (exact in float64 below 2**53)
    pair_sum = (np.bincount(rows, pair_ids, minlength=n)
                + np.bincount(cols, pair_ids, minlength=n)).astype(np.int64).tolist()
    ends_sum = (rows + cols).tolist()
    stack = [v for v in range(n) if deg[v] == 1]
    order = []
    while stack:
        leaf = stack.pop()
        if deg[leaf] != 1:
            continue
        e = pair_sum[leaf]
        parent = ends_sum[e] - leaf
        deg[leaf] = 0
        deg[parent] -= 1
        pair_sum[parent] -= e
        order.append((leaf, parent, e))
        if deg[parent] == 1:
            stack.append(parent)
    return order


def _pcg(rows, cols, wvec, rhs, threshold, max_iter):
    """Jacobi-preconditioned CG on a connected Laplacian, one matvec per
    iteration. Stops when the recurrence residual meets ``threshold`` and a
    true residual confirms it; a true residual that misses restarts the
    recurrence from it. Else it stops at ``max_iter``, at a breakdown, or
    after PCG_STALL iterations with neither a new least recurrence residual
    nor a new least true one at a restart, and returns the better of those
    two iterates. Returns (x, iterations, max|L x - rhs|)."""
    n = len(rhs)

    # reused by every matvec, so no iteration allocates a pair-sized array;
    # take writes into out= unbuffered only in a mode other than "raise"
    ends = np.empty((2, len(rows)))

    def matvec(x):
        diff = np.subtract(x.take(rows, out=ends[0], mode="clip"),
                           x.take(cols, out=ends[1], mode="clip"), out=ends[0])
        return _net_out(rows, cols, np.multiply(wvec, diff, out=diff), n)

    inv_diag = 1.0 / (np.bincount(rows, wvec, minlength=n)
                      + np.bincount(cols, wvec, minlength=n))
    b = rhs - rhs.mean()
    x = np.zeros(n)
    r = b
    best, best_x, true_best, true_x, last_new = np.inf, x, np.inf, x, 0
    for it in range(max_iter + 1):
        r_max = float(np.abs(r).max(initial=0.0))
        if it == 0 or r_max <= threshold:  # (re)start from a true residual
            r = b - matvec(x)
            residual = float(np.abs(r).max(initial=0.0))
            if residual <= threshold:
                return x, it, residual
            if residual < true_best:
                true_best, true_x, last_new = residual, x.copy(), it
            z = inv_diag * r
            d = z.copy()
            rz = float(r @ z)
        elif r_max < best:
            best, best_x, last_new = r_max, x.copy(), it
        if it == max_iter or it - last_new >= PCG_STALL:
            break
        ad = matvec(d)
        dad = float(d @ ad)
        if not (dad > 0.0 and rz > 0.0):  # breakdown: no further progress
            break
        alpha = rz / dad
        x += alpha * d
        r -= alpha * ad
        z = inv_diag * r
        rz_new = float(r @ z)
        d = z + (rz_new / rz) * d
        rz = rz_new
    best = float(np.abs(b - matvec(best_x)).max(initial=0.0))
    return (true_x, it, true_best) if true_best < best else (best_x, it, best)


def _backward_bound(rows, cols, wvec, rhs, phi, tol):
    """tol * (||L||_inf ||phi||_inf + ||f||_inf), with ||L||_inf = 2 max L_ii:
    the largest max|L phi - f| whose normwise backward error is within tol
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 7.1)."""
    n = len(rhs)
    diag = np.bincount(rows, wvec, n) + np.bincount(cols, wvec, n)
    return tol * (2.0 * float(diag.max(initial=0.0))
                  * float(np.abs(phi).max(initial=0.0))
                  + float(np.abs(rhs).max(initial=0.0)))


def _sparse_solve(rows, cols, wvec, rhs, tol, cid):
    """Solve a component above DENSE_LIMIT: eliminate tree parts exactly,
    run Jacobi-PCG on the remaining core, then back-substitute."""
    n = len(rhs)
    order = _eliminate_leaves(rows, cols, n)
    f = rhs.tolist()
    for leaf, parent, _ in order:
        # the leaf's row reads w (phi_leaf - phi_parent) = f_leaf; adding it
        # to the parent's row removes phi_leaf from the system
        f[parent] += f[leaf]
    core = np.ones(n, dtype=bool)
    core[[leaf for leaf, _, _ in order]] = False
    core_pairs = np.ones(len(rows), dtype=bool)
    core_pairs[[e for _, _, e in order]] = False
    members = np.flatnonzero(core)
    phi = np.zeros(n)
    if len(members) > 1:
        local = np.cumsum(core) - 1
        threshold = tol * max(1.0, float(np.abs(rhs).max(initial=0.0)))
        max_iter = 10 * len(members)
        reduced = (local[rows[core_pairs]], local[cols[core_pairs]],
                   wvec[core_pairs], np.asarray(f)[members])
        x, iterations, residual = _pcg(*reduced, threshold, max_iter)
        if residual > _backward_bound(*reduced, x, tol):
            raise ConvergenceError(
                f"potential solve did not reach tolerance in component {cid} "
                f"({n} nodes, core of {len(members)} after leaf elimination, "
                f"{iterations} iterations)", residual=residual)
        phi[members] = x
    w = wvec.tolist()
    values = phi.tolist()
    for leaf, parent, e in reversed(order):
        values[leaf] = values[parent] + f[leaf] / w[e]
    return np.asarray(values)


def solve_potentials(system: LaplacianSystem, tol: float = 1e-10) -> PotentialVector:
    """Minimum-norm, per-component mean-zero solution of L phi = f.

    Components up to DENSE_LIMIT nodes get a direct solve, up to DENSE_LIMIT
    of one size at once. Larger ones have their degree-1 vertices eliminated
    exactly and the remaining core solved by Jacobi-PCG, which stops once
    max|L phi - f| <= tol * max(1, max|f|). A solution is accepted when its
    normwise backward error is at most ``tol``: max|L phi - f| <= tol *
    (2 max L_ii * max|phi| + max|f|). Raises ConvergenceError if a small
    component is singular, the whole system misses that, or a core misses
    it within its iteration cap (naming the component, its core and the
    residual reached). Isolated nodes get phi = 0.
    """
    if not 0.0 < tol < np.inf:
        raise PipelineError("tolerance must be positive and finite")
    n = len(system.nodes)
    rows, cols, wvec = system.weights
    sizes = np.bincount(system.label)
    # the components by size, those above DENSE_LIMIT last in cid order
    by_size = np.argsort(np.minimum(sizes, DENSE_LIMIT + 1), kind="stable")
    sizes = sizes[by_size]
    slot = np.argsort(by_size)[system.label]  # each node's place in by_size
    nodes = np.argsort(slot, kind="stable")  # by slot, in node order
    starts = np.concatenate(([0], np.cumsum(sizes)))
    local = np.argsort(nodes) - starts[slot]  # its place in its component
    pairs = np.argsort(slot[rows], kind="stable")  # by slot, in pair order
    pair_slot = slot[rows[pairs]]
    phi = np.zeros(n)
    # a component above DENSE_LIMIT alone, else up to DENSE_LIMIT of one size
    first = int(np.count_nonzero(sizes == 1))
    while first < len(sizes):
        size = int(sizes[first])
        last = first + (1 if size > DENSE_LIMIT else int(np.count_nonzero(
            sizes[first:first + DENSE_LIMIT] == size)))
        members = nodes[starts[first]:starts[last]]
        sel = pairs[slice(*np.searchsorted(pair_slot, (first, last)))]
        a, b, w = local[rows[sel]], local[cols[sel]], wvec[sel]
        f = system.rhs[members].reshape(-1, size)
        if size > DENSE_LIMIT:
            sol = _sparse_solve(a, b, w, f[0], tol, int(by_size[first]))
        else:  # (L + J/size) phi = f: the J/size shift pins the mean to 0
            lap = np.full((last - first, size, size), 1.0 / size)
            # pair by pair, (a, a), (b, b), (a, b), (b, a): each cell sums its
            # terms in pair order, the order its rounding depends on
            np.add.at(lap, (slot[rows[sel], None] - first,
                            np.stack([a, b, a, b], axis=1),
                            np.stack([a, b, b, a], axis=1)),
                      np.stack([w, w, -w, -w], axis=1))
            sol = _solve_stack(lap, f, by_size[first:last].tolist())
        phi[members] = (sol - sol.mean(axis=-1, keepdims=True)).ravel()
        first = last

    residual = float(np.abs(_net_out(rows, cols, wvec * (phi[rows] - phi[cols]),
                                     n) - system.rhs).max(initial=0.0))
    if residual > _backward_bound(rows, cols, wvec, system.rhs, phi, tol):
        raise ConvergenceError("potential solve did not reach tolerance",
                               residual=residual)
    return PotentialVector(phi=phi, component=system.label)


def decompose(flow: FlowNetwork, potentials: PotentialVector) -> HodgeDecomposition:
    """Split F into gradient and circular parts and compute their norm shares.

    ``residual_norm`` is max|L phi - f|, which equals the largest net
    circular outflow at any node.
    """
    lo, hi, F, w = flow.lo, flow.hi, flow.F, flow.w
    phi = potentials.phi
    gradient = w * (phi[lo] - phi[hi])
    circular = F - gradient
    # sequential sums in pair order; numpy's pairwise sum rounds differently
    total = sum((F * F / w).tolist())
    if total == 0.0:
        raise PipelineError("all flows are zero; gradient/loop ratios undefined")
    div = _net_out(lo, hi, circular, len(flow.nodes))
    return HodgeDecomposition(
        potentials=potentials, flow=flow, gradient=gradient, circular=circular,
        gradient_ratio=sum((gradient * gradient / w).tolist()) / total,
        loop_ratio=sum((circular * circular / w).tolist()) / total,
        residual_norm=float(np.abs(div).max(initial=0.0)),
    )


def solve(flow: FlowNetwork, tol: float = 1e-10) -> HodgeDecomposition:
    """Convenience pipeline: assemble, solve potentials, decompose."""
    return decompose(flow, solve_potentials(assemble_laplacian(flow), tol))


# ---------------------------------------------------------------------------
# Delimited export: node table, pair table, summary (17 significant digits).

# the header of summary.csv
_SUMMARY = ("gradient_ratio", "loop_ratio", "residual_norm")


def write_node_table(decomp: HodgeDecomposition) -> Iterator[str]:
    pot = decomp.potentials
    return write_node_columns((), ("node", "component", "potential"),
                              decomp.flow.nodes, pot.component, pot.phi)


def write_pair_table(decomp: HodgeDecomposition) -> Iterator[str]:
    flow = decomp.flow
    return write_columns(
        (), ("i", "j", "F", "w", "F_grad", "F_circ"), *pair_columns(
            flow.nodes, flow.lo, flow.hi, flow.F, flow.w, decomp.gradient,
            decomp.circular, labels=_cells(flow.nodes)))


def write_summary(decomp: HodgeDecomposition) -> Iterator[str]:
    values = (decomp.gradient_ratio, decomp.loop_ratio, decomp.residual_norm)
    return write_columns((), _SUMMARY, [[v] for v in values])


def read_summary(text: str | Iterable[str]) -> list[tuple[float, ...]]:
    """The rows of a ``write_summary`` file, as ``read_table`` reads
    them."""
    return read_table(text, _SUMMARY, (float,) * 3)


def read_node_table(text: str | Iterable[str],
                    net: InfluenceNetwork) -> PotentialVector:
    """The potentials of a ``write_node_table`` file over ``net``'s nodes;
    a component label other than ``solve_potentials``' is a bad value."""
    label = _components(len(net.nodes), net.view.lo, net.view.hi)
    component, phi = read_node_columns(
        text, net.nodes, ("node", "component", "potential"), (int, float),
        expect={"component": label})
    return PotentialVector(phi=phi, component=component)
