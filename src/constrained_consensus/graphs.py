"""Communication topologies.

Undirected, unweighted graphs with 0-based node ids.  Includes the random
geometric graph edge rule over positions in the unit box, a BFS connectivity
test, the combinatorial Laplacian and its spectrum via a cyclic Jacobi
eigensolver, whose second-smallest eigenvalue (the algebraic connectivity,
a.k.a. Fiedler value) is the network-density axis of the rate experiments.

A ``Graph`` is its CSR arrays: it builds them once, at construction, and
checks them there with a few array reductions; a per-entry loop runs only
after a check has failed, to name the first fault.  Every graph
computation here reads the arrays.  ``graph_from_positions`` hands the CSR
split of one ``np.nonzero`` of the adjacency to ``Graph.from_csr``, which
runs the same checks.

There is one eigensolver, over a stack of matrices: a single matrix is a
stack of one.  Its members rotate in lockstep and each gets the bits it
would get alone, so ``fiedler_values`` solves a whole sweep's graphs at
once, in chunks of bounded size, with the bits of ``fiedler_value`` on
each graph.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .sets import _check_domain, _row_squares
from .tolerances import DEFAULT


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Undirected graph stored as its CSR encoding and nothing else.

    ``Graph(n, neighbors)`` takes one sorted, duplicate-free neighbor list
    per node; ``n`` and every id must be integers (anything
    ``operator.index`` takes).  The CSR encoding ``csr = (indptr, indices,
    rows)`` is built and checked at construction and kept read-only:
    ``indices[indptr[i]:indptr[i + 1]]`` are node i's sorted neighbors and
    ``rows[j]`` is the node that entry j belongs to, so ``(rows, indices)``
    lists every directed edge once.  Every other graph array derives from
    it.  ``from_csr`` builds a graph from ``indptr`` and ``indices`` with
    the same checks and messages.
    """

    n: int
    csr: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, n: int, neighbors):
        nbrs = tuple(map(tuple, neighbors))
        n = _node_count(n, len(nbrs))
        deg = np.fromiter(map(len, nbrs), dtype=np.intp, count=n)
        _store_csr(self, n, np.concatenate(([0], np.cumsum(deg))), list(chain.from_iterable(nbrs)))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each node's sorted neighbor ids as a tuple of ints: a read-only
        view of ``csr``, built on first read."""
        indptr, indices, _ = self.csr
        ends, flat = indptr.tolist(), indices.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))

    @classmethod
    def from_csr(cls, n: int, indptr, indices) -> "Graph":
        """The graph whose node i has the neighbors
        ``indices[indptr[i]:indptr[i + 1]]``, checked as the neighbor lists
        are, with the same messages; the arrays are copied."""
        n = _node_count(n)
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        if not (indptr.shape == (n + 1,) and indptr.dtype.kind in "iu" and indices.ndim == 1
                and indptr[0] == 0 and indptr[-1] == indices.size
                and np.logical_and.reduce(indptr[1:] >= indptr[:-1])):
            raise ValueError(f"indptr must be n + 1 = {n + 1} nondecreasing integers from 0 "
                             f"to len(indices) = {indices.size}")
        if np.can_cast(indices.dtype, np.intp):
            indices = indices.astype(np.intp)
        else:  # through operator.index, as list ids go
            indices = indices.tolist()
        graph = cls.__new__(cls)
        _store_csr(graph, n, indptr.astype(np.intp), indices)
        return graph

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        n = _node_count(n)
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for i, k in edges:
            try:
                i, k = operator.index(i), operator.index(k)
            except TypeError:
                raise ValueError(f"edge ({i!r}, {k!r}) has an endpoint that is not an integer "
                                 f"node id") from None
            if not (0 <= i < n and 0 <= k < n):
                raise ValueError(f"edge ({i}, {k}) has an endpoint out of range [0, {n})")
            nbrs[i].add(k)
            nbrs[k].add(i)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    def degree(self, i: int) -> int:
        i = _node_id(self, i)
        indptr = self.csr[0]
        return int(indptr[i + 1] - indptr[i])

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr[0])

    def edges(self):
        """Iterate undirected edges once, as (i, k) with i < k."""
        _, indices, rows = self.csr
        upper = rows < indices
        return zip(rows[upper].tolist(), indices[upper].tolist())

    @property
    def edge_count(self) -> int:
        return self.csr[1].size // 2


def _store_csr(graph: Graph, n: int, indptr: np.ndarray, ids) -> None:
    """Check the CSR encoding of ``graph``, node count n, and store n and
    the arrays in ``graph``.  ``indptr`` holds the n + 1 list ends, and
    ``ids`` the ids in list order: an intp array, or anything else whose
    entries ``operator.index`` takes."""

    def fault() -> str:
        ends = indptr.tolist()
        flat = ids.tolist() if isinstance(ids, np.ndarray) else ids
        return _first_fault(n, [flat[a:b] for a, b in zip(ends, ends[1:])])

    if isinstance(ids, np.ndarray):
        indices = ids
    else:
        try:
            # every id through operator.index first: fromiter alone would
            # truncate a float id
            indices = np.fromiter(map(operator.index, ids), dtype=np.intp, count=len(ids))
        except (TypeError, OverflowError):
            raise ValueError(fault()) from None
    rows = np.repeat(np.arange(n), np.diff(indptr))
    # with every id in range, the keys rows * n + indices increase
    # strictly iff each list is sorted and duplicate-free, and then the
    # edge set is symmetric iff a binary search finds every transposed
    # key among them (sorting the transposed keys would do too, but
    # np.sort's first call raised a run's peak memory by about 0.3 MB)
    key, transposed = rows * n + indices, indices * n + rows
    if not (np.logical_and.reduce((indices >= 0) & (indices < n))
            and np.logical_and.reduce(rows != indices)
            and np.logical_and.reduce(key[1:] > key[:-1])
            and np.array_equal(key.take(np.searchsorted(key, transposed), mode="clip"),
                               transposed)):
        raise ValueError(fault())
    for a in (indptr, indices, rows):
        a.flags.writeable = False
    object.__setattr__(graph, "n", n)
    object.__setattr__(graph, "csr", (indptr, indices, rows))


def _node_count(n, lists: int | None = None) -> int:
    """``n`` as an int, or a ``ValueError``: an integer node count, at least
    1, and equal to ``lists``, the count of neighbor lists, if given."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"node count must be an integer, got {n!r}") from None
    if lists is not None and (n < 1 or lists != n):
        raise ValueError(f"need one neighbor list per node, got {lists} for n={n}")
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    return n


def _node_id(g: Graph, i) -> int:
    """``i`` as an int node id of ``g``, or a ``ValueError`` naming it: an
    integer (anything ``operator.index`` takes, as in neighbor lists) in
    [0, n)."""
    try:
        k = operator.index(i)
    except TypeError:
        raise ValueError(f"node id {i!r} is not an integer") from None
    if not 0 <= k < g.n:
        raise ValueError(f"node id {k} out of range [0, {g.n})")
    return k


def _first_fault(n: int, nbrs: tuple[tuple, ...]) -> str:
    """The message for the first fault of neighbor lists that failed a
    check in ``Graph``: the first id that is not an integer, else the first
    fault node by node and id by id."""
    lists = [[] for _ in nbrs]
    for i, ids in enumerate(nbrs):
        for k in ids:
            try:
                lists[i].append(operator.index(k))
            except TypeError:
                return f"neighbor list of node {i} holds {k!r}, which is not an integer node id"
    seen = [set(ids) for ids in lists]
    for i, ids in enumerate(lists):
        for k in ids:
            if not 0 <= k < n:
                return f"node id {k} out of range [0, {n})"
            if k == i:
                return f"self-loop at node {i}"
            if i not in seen[k]:
                return f"edge ({i}, {k}) is not symmetric"
        if any(a >= b for a, b in zip(ids, ids[1:])):
            return f"neighbor list of node {i} is not sorted and duplicate-free"
    raise AssertionError("neighbor lists without a fault failed a check")


@dataclass(frozen=True, eq=False)
class GeometricLayout:
    """Node positions in the unit box."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must be an (n, q) array")
        # NaN fails both comparisons, so it is rejected here too
        if not ((pos >= 0.0) & (pos <= 1.0)).all():
            raise ValueError("positions must lie in the unit box")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)


# coordinate differences per block in graph_from_positions, 256 KiB of
# float64: 128-row blocks, 2 MB at N = 1000 and q = 2, raised the peak
# memory of an N = 1000 run by 8%
_ADJ_ELEMENTS = 1 << 15


def graph_from_positions(positions: np.ndarray, rho: float) -> Graph:
    """Edge (i, k) iff ||pos_i - pos_k|| <= rho (boundary counts as an edge).

    The distances have ``np.linalg.norm``'s bits: each is summed from the
    coordinate-first differences by ``_row_squares``.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or not pos.size:
        raise ValueError(f"positions must be an (n, q) array with n, q >= 1, got shape {pos.shape}")
    n, q = pos.shape
    cols = np.ascontiguousarray(pos.T)
    adj = np.empty((n, n), dtype=bool)
    # a block of rows at a time keeps the difference tensor at q x block x n;
    # each row's distances come out bit for bit as from the full tensor
    block = max(1, _ADJ_ELEMENTS // (n * q))
    for lo in range(0, n, block):
        diff = cols[:, lo:lo + block, None] - cols[:, None, :]
        adj[lo:lo + block] = np.sqrt(_row_squares(diff)) <= rho
    np.fill_diagonal(adj, False)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(adj, axis=1))))
    return Graph.from_csr(n, indptr, np.nonzero(adj)[1])


def is_connected(g: Graph) -> bool:
    """BFS from node 0 reaches all nodes."""
    indptr, indices, _ = g.csr
    ends, ids = indptr.tolist(), indices.tolist()
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        i = queue.popleft()
        for k in ids[ends[i]:ends[i + 1]]:
            if not seen[k]:
                seen[k] = True
                count += 1
                queue.append(k)
    return count == g.n


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A."""
    _, indices, rows = g.csr
    lap = np.zeros((g.n, g.n))
    lap[rows, indices] = -1.0
    np.fill_diagonal(lap, g.degrees())
    return lap


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each member of a stack of
    them, by cyclic Jacobi rotations, ascending.

    ``matrix`` is one (n, n) matrix, giving n eigenvalues, or a (B, n, n)
    stack, giving (B, n); a member's eigenvalues have the same bits either
    way.  Each matrix A, its entries in the magnitude domain of ``sets``,
    is swept over its upper triangle until its off-diagonal Frobenius norm
    drops to ``DEFAULT.jacobi_offdiag`` * min(1, ||A||_F) (or 100 sweeps
    are done).  Deterministic, scale-invariant, O(n^3) per sweep.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected an (n, n) matrix or a (B, n, n) stack, got shape {a.shape}")
    _check_domain(a, "matrix entries")
    if not np.array_equal(a, a.swapaxes(-1, -2)):
        raise ValueError("matrix must be symmetric")
    if a.ndim == 2:
        return _jacobi_stack(a[None])[0]
    return _jacobi_stack(a)


def _jacobi_stack(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (B, n) of a finite symmetric (B, n, n) stack,
    which is overwritten.

    All members take rotation (p, q) together.  Each keeps its own skip
    test and its own sweep stop, and drops out of the stack once stopped.
    Each rotating member's angle comes from ``_rotation``, one member at a
    time, and its rows are rotated elementwise, so a member gets the bits
    it would get alone.
    """
    members, n = a.shape[:2]
    out = np.empty((members, n))
    if n < 2 or not members:
        out[:] = a.diagonal(axis1=1, axis2=2)
        return out
    # each member's stop, relative to its norm if below 1; rotating every
    # |a_pq| above tol/n leaves the off-diagonal norm below tol
    tol = DEFAULT.jacobi_offdiag * np.minimum(1.0, np.linalg.norm(a, axis=(1, 2)))
    live = np.arange(members)  # the row of out that each stacked member fills
    for _ in range(100):
        going = np.array([not _offdiag_norm(m) <= t for m, t in zip(a, tol.tolist())], dtype=bool)
        if not going.all():
            out[live[~going]] = np.sort(a[~going].diagonal(axis1=1, axis2=2), axis=1)
            a, live, tol = a[going], live[going], tol[going]
            if not live.size:
                return out
        _sweep(a, (tol / n).tolist())
    out[live] = np.sort(a.diagonal(axis1=1, axis2=2), axis=1)
    return out


def _sweep(a: np.ndarray, rotate_above: list[float]) -> None:
    """One cyclic sweep over the upper triangle of every member of a, in
    place; member m rotates each |a_pq| above ``rotate_above[m]``."""
    members, n = a.shape[:2]
    diagonal = a.diagonal(axis1=1, axis2=2)
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[:, p, q].tolist()
            who = [m for m, v in enumerate(apq) if not abs(v) <= rotate_above[m]]
            if not who:
                continue
            app, aqq = diagonal[:, p].tolist(), diagonal[:, q].tolist()
            rot = np.array([_rotation(apq[m], app[m], aqq[m]) for m in who])
            if len(who) == members:
                who = slice(None)
            c, s = rot[:, :1], rot[:, 1:2]
            rows_p, rows_q = a[who, p], a[who, q]
            # a stays exactly symmetric, so rotating rows p and q gives
            # the new rows and, mirrored, the new columns; only the 2x2
            # block takes the second rotation
            newp = c * rows_p - s * rows_q
            newq = s * rows_p + c * rows_q
            newp[:, p], newq[:, q] = rot[:, 2], rot[:, 3]
            newp[:, q] = newq[:, p] = 0.0
            a[who, p] = a[who, :, p] = newp
            a[who, q] = a[who, :, q] = newq


def _rotation(apq: float, app: float, aqq: float) -> tuple[float, float, float, float]:
    """Cosine and sine of the rotation that zeroes a_pq, and the new a_pp
    and a_qq, in ``math`` and float arithmetic: numpy's trig ufuncs give
    other bits.  The new diagonal entries are the row rotation's, then the
    column rotation's, of the symmetric 2x2 block."""
    phi = 0.5 * math.atan2(2.0 * apq, aqq - app)
    c, s = math.cos(phi), math.sin(phi)
    return (c, s, c * (c * app - s * apq) - s * (c * apq - s * aqq),
            s * (s * app + c * apq) + c * (s * apq + c * aqq))


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(a.diagonal())
    return float(np.linalg.norm(off))


# matrix entries per stacked solve in fiedler_values: 4 MiB of float64,
# about 200 Laplacians at n = 50 and 50 at n = 100
_FIEDLER_ELEMENTS = 1 << 19


def fiedler_value(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue, clamped at 0 from below.

    Positive iff the graph is connected (for n >= 2).
    """
    return fiedler_values((g,))[0]


def fiedler_values(graphs) -> list[float]:
    """``fiedler_value`` of each of a sequence of graphs with equal n, bit
    for bit, from stacked Jacobi solves of at most ``_FIEDLER_ELEMENTS``
    Laplacian entries each."""
    graphs = list(graphs)
    if not graphs:
        return []
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError(f"graphs must have equal n, got {sorted({g.n for g in graphs})}")
    if n < 2:
        return [0.0] * len(graphs)
    chunk = max(1, _FIEDLER_ELEMENTS // (n * n))
    values: list[float] = []
    for lo in range(0, len(graphs), chunk):
        part = graphs[lo:lo + chunk]
        stack = np.empty((len(part), n, n))
        for lap, g in zip(stack, part):
            lap[:] = laplacian(g)
        values.extend(max(0.0, v) for v in _jacobi_stack(stack)[:, 1].tolist())
    return values
