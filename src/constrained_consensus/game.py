"""Game-theoretic core of the consensus problem.

Each node n holds a closed convex set C_n and plays a point p_n in C_n.  Its
utility is the negated sum of squared distances to its graph neighbors,

    U_n(p) = -sum_{k in N_n} ||p_n - p_k||^2,

which is maximal (zero) exactly at consensus with the neighborhood.  The
function

    phi(p) = -(1/2) sum_n sum_{k in N_n} ||p_n - p_k||^2

changes by exactly a deviator's utility change (an exact potential), and its
negation J = -phi is the smooth convex cost driven to zero by the
gradient-projection algorithm.  This module provides those functions, their
gradients, the closed-form best response (projected neighborhood centroid)
and the Lipschitz/step-size bounds for J.

Strategy profiles are (N, q) float arrays, one row per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, _node_id
from .sets import ConvexSet, RowProjector, _check_domain


class DegenerateNodeError(ValueError):
    """The operation needs the node to have at least one neighbor."""


class DegenerateInstanceError(ValueError):
    """The operation needs the graph to have at least one edge."""


@dataclass(frozen=True, eq=False)
class GameInstance:
    """A consensus game: communication graph plus one convex set per node."""

    graph: Graph
    sets: tuple[ConvexSet, ...]
    q: int

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if len(self.sets) != self.graph.n:
            raise ValueError(f"need one set per node: {len(self.sets)} sets for {self.graph.n} nodes")
        for i, s in enumerate(self.sets):
            if s.dim != self.q:
                raise ValueError(f"set of node {i} has dimension {s.dim}, expected {self.q}")

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def degrees(self) -> np.ndarray:
        d = self.graph.degrees()
        d.flags.writeable = False
        return d

    @cached_property
    def degree_column(self) -> np.ndarray:
        """``degrees`` as an (N, 1) float column, to scale profile rows."""
        col = self.degrees[:, None].astype(float)
        col.flags.writeable = False
        return col

    # Dense on purpose: the engine's neighbor sums are
    # ``np.dot(adjacency, prof)``, whose BLAS summation order fixes the bits
    # of every recorded trace (a C- or F-ordered ``prof`` gives the same
    # bits); a sparse sum over ``graph.csr`` gives different last bits.
    @cached_property
    def adjacency(self) -> np.ndarray:
        _, indices, rows = self.graph.csr
        a = np.zeros((self.n, self.n))
        a[rows, indices] = 1.0
        a.flags.writeable = False
        return a

    @cached_property
    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Node ids (i, k) of every undirected edge once, i < k, in
        ``graph.csr`` order."""
        _, indices, rows = self.graph.csr
        upper = rows < indices
        return rows[upper], indices[upper]

    @cached_property
    def projector(self) -> RowProjector:
        return RowProjector(self.sets)


def as_profile(inst: GameInstance, p) -> np.ndarray:
    prof = np.asarray(p, dtype=float)
    if prof.shape != (inst.n, inst.q):
        raise ValueError(f"expected a profile of shape {(inst.n, inst.q)}, got {prof.shape}")
    _check_domain(prof, "profile entries")
    return prof


def utility(inst: GameInstance, p, n: int) -> float:
    """U_n(p) = -sum over neighbors of ||p_n - p_k||^2 (always <= 0)."""
    prof = as_profile(inst, p)
    n = _node_id(inst.graph, n)
    diffs = prof[_neighbor_ids(inst, n)] - prof[n]
    return -float(np.sum(diffs * diffs))


def potential(inst: GameInstance, p, scratch: np.ndarray | None = None):
    """Exact potential: the negated sum of squared differences over edges.

    Equals zero iff neighboring strategies agree (consensus, on a connected
    graph); computed edge-wise so it is nonpositive in exact arithmetic and
    in floating point alike.  ``p`` is one profile (N, q), giving a float, or
    a stack (K, N, q) of them, giving the K potentials as an array, each
    with its own profile's bits.

    For a stack, ``scratch`` may be a float array of shape (2, R, E, q) for
    E edges: the stack is walked R profiles at a time, their edge gathers
    written into ``scratch``, which a caller that checks stacks round after
    round allocates once.  The result is the same.
    """
    prof = np.asarray(p, dtype=float)
    if prof.ndim not in (2, 3) or prof.shape[-2:] != (inst.n, inst.q):
        raise ValueError(f"expected a profile of shape {(inst.n, inst.q)} or a stack of them, "
                         f"got {prof.shape}")
    if not np.logical_and.reduce(np.isfinite(prof), axis=None):
        raise ValueError("profile entries must be finite")
    i, k = inst.edge_pairs
    stack = prof[None] if prof.ndim == 2 else prof
    if scratch is None:
        scratch = np.empty((2, max(1, len(stack)), i.size, inst.q))
    rows = len(scratch[0])
    phis = np.empty(len(stack))
    for lo in range(0, len(stack), rows):
        chunk = stack[lo:lo + rows]
        # mode="clip" (the ids are in range) writes straight into out,
        # where the default mode would buffer the result first
        diffs, other = scratch[0, :len(chunk)], scratch[1, :len(chunk)]
        np.take(chunk, i, axis=1, out=diffs, mode="clip")
        np.take(chunk, k, axis=1, out=other, mode="clip")
        diffs -= other
        # each profile's differences as one vector, edge by edge; np.vecdot
        # sums it as diffs @ diffs sums a vector
        diffs = diffs.reshape(len(chunk), i.size * inst.q)
        np.vecdot(diffs, diffs, out=phis[lo:lo + len(chunk)])
    np.negative(phis, out=phis)
    return float(phis[0]) if prof.ndim == 2 else phis


def _neighbor_ids(inst: GameInstance, n: int) -> np.ndarray:
    """Node n's sorted neighbors, the ``graph.csr`` slice."""
    indptr, indices, _ = inst.graph.csr
    return indices[indptr[n]:indptr[n + 1]]


def _neighbor_sum(inst: GameInstance, prof: np.ndarray, n: int) -> np.ndarray:
    return prof[_neighbor_ids(inst, n)].sum(axis=0)


def utility_gradient(inst: GameInstance, p, n: int) -> np.ndarray:
    """Gradient of U_n in the p_n block: -2 sum_k (p_n - p_k)."""
    prof = as_profile(inst, p)
    n = _node_id(inst.graph, n)
    deg = inst.graph.degree(n)
    return -2.0 * (deg * prof[n] - _neighbor_sum(inst, prof, n))


def cost_gradient(inst: GameInstance, p) -> np.ndarray:
    """Stacked gradient of the cost J = -phi; block n is -utility_gradient(n),
    with its bits."""
    prof = as_profile(inst, p)
    indptr, indices, _ = inst.graph.csr
    degrees = inst.degrees
    sums = np.zeros_like(prof)
    # the nodes of one degree d at once: a (nodes, d, q) gather summed over
    # its d axis adds each node's neighbor rows in csr order, as
    # _neighbor_sum's (d, q) sum does, with the same bits at every q
    for d in np.unique(degrees[degrees > 0]).tolist():
        nodes = np.flatnonzero(degrees == d)
        sums[nodes] = prof[indices[indptr[nodes, None] + np.arange(d)]].sum(axis=1)
    return (2.0 * (inst.degree_column * prof - sums)).ravel()


def centroid(inst: GameInstance, p, n: int) -> np.ndarray:
    """Mean of the neighbors' strategies."""
    prof = as_profile(inst, p)
    n = _node_id(inst.graph, n)
    deg = inst.graph.degree(n)
    if deg == 0:
        raise DegenerateNodeError(f"node {n} has no neighbors")
    return _neighbor_sum(inst, prof, n) / deg


def best_response(inst: GameInstance, p, n: int) -> np.ndarray:
    """Utility-maximizing strategy with the others fixed.

    The utility's level sets are spheres around the neighborhood centroid, so
    the maximizer over C_n is the projection of that centroid onto C_n.
    """
    n = _node_id(inst.graph, n)
    return inst.sets[n].project(centroid(inst, p, n))


def update_metric(inst: GameInstance, p, n: int) -> float:
    """Squared length of the move the best response would make."""
    prof = as_profile(inst, p)
    n = _node_id(inst.graph, n)
    r = best_response(inst, prof, n)
    return float(np.sum((r - prof[n]) ** 2))


def lipschitz_constant(inst: GameInstance) -> float:
    """L = 4 sqrt(q * sum_i deg_i^2), a Lipschitz constant of grad J."""
    if inst.graph.edge_count == 0:
        raise DegenerateInstanceError("graph has no edges")
    deg_sq = int(np.sum(inst.degrees ** 2))
    return 4.0 * math.sqrt(inst.q * deg_sq)


def max_step_size(inst: GameInstance) -> float:
    """Open upper bound 2/L on constant steps with stationary limit points."""
    return 2.0 / lipschitz_constant(inst)


def default_step_size(inst: GameInstance) -> float:
    """Step close to the maximum allowed: 0.99 * (2/L)."""
    return 0.99 * max_step_size(inst)


def max_set_distance(inst: GameInstance, p) -> float:
    """Largest distance from any strategy to its own set (feasibility gauge)."""
    prof = as_profile(inst, p)
    return float(np.max(inst.projector.distances(prof)))
