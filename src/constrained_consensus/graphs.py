"""Communication topologies.

Undirected, unweighted graphs with 0-based node ids.  Includes the random
geometric graph edge rule over positions in the unit box, a BFS connectivity
test, the combinatorial Laplacian and its spectrum via a cyclic Jacobi
eigensolver, whose second-smallest eigenvalue (the algebraic connectivity,
a.k.a. Fiedler value) is the network-density axis of the rate experiments.

There is one eigensolver, over a stack of matrices: a single matrix is a
stack of one.  Its members rotate in lockstep and each gets the bits it
would get alone, so ``fiedler_values`` solves a whole sweep's graphs at
once, in chunks of bounded size, with the bits of ``fiedler_value`` on
each graph.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .tolerances import DEFAULT


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph as per-node sorted neighbor tuples."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1 or len(self.neighbors) != self.n:
            raise ValueError(f"need one neighbor list per node, got {len(self.neighbors)} for n={self.n}")
        seen = {i: set(nbrs) for i, nbrs in enumerate(self.neighbors)}
        for i, nbrs in enumerate(self.neighbors):
            for k in nbrs:
                if not 0 <= k < self.n:
                    raise ValueError(f"node id {k} out of range [0, {self.n})")
                if k == i:
                    raise ValueError(f"self-loop at node {i}")
                if i not in seen[k]:
                    raise ValueError(f"edge ({i}, {k}) is not symmetric")
            if any(a >= b for a, b in zip(nbrs, nbrs[1:])):
                raise ValueError(f"neighbor list of node {i} is not sorted and duplicate-free")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for i, k in edges:
            if i == k:
                raise ValueError(f"self-loop at node {i}")
            nbrs[i].add(k)
            nbrs[k].add(i)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only CSR encoding ``(indptr, indices, rows)`` of the neighbor lists.

        ``indices[indptr[i]:indptr[i + 1]]`` are node i's sorted neighbors and
        ``rows[j]`` is the node that entry j belongs to, so ``(rows, indices)``
        lists every directed edge once.  Every other graph array derives
        from this one.
        """
        deg = np.fromiter(map(len, self.neighbors), dtype=np.intp, count=self.n)
        indptr = np.concatenate(([0], np.cumsum(deg)))
        indices = np.fromiter(chain.from_iterable(self.neighbors), dtype=np.intp, count=int(indptr[-1]))
        rows = np.repeat(np.arange(self.n), deg)
        for a in (indptr, indices, rows):
            a.flags.writeable = False
        return indptr, indices, rows

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


@dataclass(frozen=True, eq=False)
class GeometricLayout:
    """Node positions in the unit box plus the communication range used."""

    positions: np.ndarray
    range: float

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must be an (n, q) array")
        # NaN fails both comparisons, so it is rejected here too
        if not ((pos >= 0.0) & (pos <= 1.0)).all():
            raise ValueError("positions must lie in the unit box")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "range", float(self.range))
        if not self.range > 0.0:  # inf stays legal: the complete graph
            raise ValueError(f"communication range must be positive, got {self.range}")


_ADJ_BLOCK = 128  # rows per distance block in graph_from_positions


def graph_from_positions(positions: np.ndarray, rho: float) -> Graph:
    """Edge (i, k) iff ||pos_i - pos_k|| <= rho (boundary counts as an edge)."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    adj = np.empty((n, n), dtype=bool)
    # a block of rows at a time keeps the difference tensor at _ADJ_BLOCK x n x q;
    # each row's distances come out bit for bit as from the full tensor
    for lo in range(0, n, _ADJ_BLOCK):
        block = pos[lo:lo + _ADJ_BLOCK]
        adj[lo:lo + _ADJ_BLOCK] = np.linalg.norm(block[:, None, :] - pos[None, :, :], axis=2) <= rho
    np.fill_diagonal(adj, False)
    return Graph(n, tuple(tuple(np.flatnonzero(adj[i]).tolist()) for i in range(n)))


def is_connected(g: Graph) -> bool:
    """BFS from node 0 reaches all nodes."""
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        i = queue.popleft()
        for k in g.neighbors[i]:
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
    way.  Each matrix is swept over its upper triangle until its
    off-diagonal Frobenius norm drops to ``DEFAULT.jacobi_offdiag`` (or 100
    sweeps are done).  Deterministic, O(n^3) per sweep.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected an (n, n) matrix or a (B, n, n) stack, got shape {a.shape}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError("matrix entries must be finite")
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
    # rotating every |a_pq| above tol/n leaves the off-diagonal norm below tol
    tol = DEFAULT.jacobi_offdiag
    rotate_above = tol / n
    live = np.arange(members)  # the row of out that each stacked member fills
    for _ in range(100):
        going = np.array([not _offdiag_norm(m) <= tol for m in a], dtype=bool)
        if not going.all():
            out[live[~going]] = np.sort(a[~going].diagonal(axis1=1, axis2=2), axis=1)
            a, live = a[going], live[going]
            if not live.size:
                return out
        _sweep(a, rotate_above)
    out[live] = np.sort(a.diagonal(axis1=1, axis2=2), axis=1)
    return out


def _sweep(a: np.ndarray, rotate_above: float) -> None:
    """One cyclic sweep over the upper triangle of every member of a, in place."""
    members, n = a.shape[:2]
    diagonal = a.diagonal(axis1=1, axis2=2)
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[:, p, q].tolist()
            who = [m for m, v in enumerate(apq) if not abs(v) <= rotate_above]
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
