"""Synchronous-round simulation of the distributed consensus algorithms.

Two distributed schemes are simulated round by round on immutable game
instances:

* best-response dynamics with a local winner rule (one update per closed
  neighborhood per round, chosen by largest squared update length, ties to
  the higher node id), and
* simultaneous gradient projection on the consensus cost with a constant
  step size.

A centralized alternating-projections baseline (cyclic projection onto every
node's set) is included for comparison.  Every round reads only round-start
values; a run produces a ``Trace`` with the consensus metric, potential and
update activity per iteration.

Structural invariants are asserted while running: updated strategies stay in
their sets, best-response winners form an independent set, and the potential
never decreases under best-response rounds.  Violations raise
``InvariantError`` (they indicate a bug, not a user error).
"""

from __future__ import annotations

import math
import warnings
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .game import (
    DegenerateNodeError,
    GameInstance,
    as_profile,
    max_step_size,
    potential,
)
from .graphs import GeometricLayout
from .sets import Ball, BallStack
from .tolerances import DEFAULT


class InvariantError(RuntimeError):
    """A per-round structural invariant was violated."""


class StepSizeWarning(UserWarning):
    """The configured step size exceeds the sufficient convergence bound."""


@dataclass(frozen=True, eq=False)
class EngineState:
    """Round-synchronous simulation state: instance, profile and counters."""

    instance: GameInstance
    profile: np.ndarray
    t: int = 0
    step_size: float | None = None


@dataclass(frozen=True)
class TraceRecord:
    t: int
    consensus_metric: float
    potential: float
    updated: tuple[int, ...]
    # largest squared best-response displacement seen this round (best-response runs)
    max_metric: float | None = None


@dataclass(eq=False)
class Trace:
    """Per-iteration history of a run plus its outcome.

    Row t (0 <= t <= iterations_used) is the state after round t, row 0 the
    start.  The history is stored as typed columns, and ``records`` builds a
    ``TraceRecord`` per row only when one is read.  Best-response runs also
    keep, for each round t >= 1, the largest update metric at
    ``max_metrics[t - 1]`` and the winner ids at
    ``winners[winner_offsets[t - 1]:winner_offsets[t]]``.
    """

    algo: str
    metrics: array
    potentials: array
    final_profile: np.ndarray
    converged: bool
    iterations_used: int
    # True when the run stopped at a literal best-response fixed point
    fixed_point: bool = False
    max_metrics: array | None = None
    winners: array | None = None
    winner_offsets: array | None = None

    @property
    def records(self) -> TraceRecords:
        return TraceRecords(self, range(len(self.metrics)))

    @property
    def consensus_curve(self) -> np.ndarray:
        return np.array(self.metrics)

    @property
    def final_metric(self) -> float:
        return self.metrics[-1]

    @cached_property
    def _all_ids(self) -> tuple[int, ...]:
        # one tuple shared by every gradient-projection record
        return tuple(range(len(self.final_profile)))

    def _record(self, t: int) -> TraceRecord:
        metric, phi = self.metrics[t], self.potentials[t]
        if t == 0:
            return TraceRecord(0, metric, phi, ())
        if self.winners is None:
            return TraceRecord(t, metric, phi, self._all_ids)
        lo, hi = self.winner_offsets[t - 1], self.winner_offsets[t]
        return TraceRecord(t, metric, phi, tuple(self.winners[lo:hi]), self.max_metrics[t - 1])


class TraceRecords(Sequence):
    """Read-only view of some rows of a ``Trace``, one ``TraceRecord`` per row.

    Records are built on access; a slice is another view, not a list.
    """

    __slots__ = ("_trace", "_rows")

    def __init__(self, trace: Trace, rows: range):
        self._trace = trace
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return TraceRecords(self._trace, self._rows[i])
        return self._trace._record(self._rows[i])

    def __iter__(self):
        record = self._trace._record
        for t in self._rows:
            yield record(t)


def float_text(x: float) -> str:
    """Shortest round-trip text of a float, as every CSV column writes it."""
    return repr(float(x))


def consensus_metric(p) -> float:
    """Root-sum-square deviation of all strategies from their coordinate mean."""
    prof = np.asarray(p, dtype=float)
    # np.linalg.norm's own arithmetic: a dot product in memory order
    dev = (prof - np.add.reduce(prof, axis=0) / len(prof)).ravel(order="K")
    return math.sqrt(dev @ dev)


def initialize(inst: GameInstance, layout: GeometricLayout | None = None) -> np.ndarray:
    """Deterministic feasible start: project each node's anchor onto its set.

    The anchor is the node's own position when a geometric layout is given,
    the origin otherwise.
    """
    if layout is not None:
        anchors = np.asarray(layout.positions, dtype=float)
        if anchors.shape != (inst.n, inst.q):
            raise ValueError(f"layout shape {anchors.shape} does not match instance {(inst.n, inst.q)}")
    else:
        anchors = np.zeros((inst.n, inst.q))
    return np.array([s.project(a) for s, a in zip(inst.sets, anchors)])


def initial_state(inst: GameInstance, layout: GeometricLayout | None = None,
                  step_size: float | None = None) -> EngineState:
    """Build a validated engine state with the deterministic initial profile."""
    if step_size is not None:
        _check_step(inst, step_size, stacklevel=3)
    return EngineState(inst, initialize(inst, layout), 0, step_size)


def _check_step(inst: GameInstance, s: float, stacklevel: int) -> None:
    if not s > 0:
        raise ValueError(f"step size must be positive, got {s}")
    bound = max_step_size(inst)
    if s >= bound:
        warnings.warn(
            f"step size {s:.6g} is at or above the sufficient bound {bound:.6g}; "
            "convergence is no longer guaranteed",
            StepSizeWarning,
            stacklevel=stacklevel,
        )


def _checked_profile(state: EngineState, algo: str) -> np.ndarray:
    """The state's profile, once the state is valid for ``algo`` rounds: a
    known algorithm, no isolated node, a feasible profile and a step size."""
    if algo not in ("dgtc", "dgpc"):
        raise ValueError(f"unknown algorithm {algo!r} (expected 'dgtc' or 'dgpc')")
    inst = state.instance
    if np.any(inst.degrees == 0):
        isolated = int(np.argmin(inst.degrees))
        raise DegenerateNodeError(f"node {isolated} has no neighbors")
    prof = as_profile(inst, state.profile)
    _assert_feasible(inst, prof, None)
    if algo == "dgpc":
        if state.step_size is None:
            raise ValueError("gradient-projection rounds need a step size")
        # frames: warn <- _check_step <- here <- run / dgpc_round <- caller
        _check_step(inst, state.step_size, stacklevel=4)
    return prof


def _best_response_all(inst: GameInstance, prof: np.ndarray):
    """Vectorized best responses and squared update metrics for every node."""
    centroids = (inst.adjacency @ prof) / inst.degree_column
    responses = inst.projector.project(centroids)
    moves = responses - prof
    return responses, np.add.reduce(moves * moves, axis=1)


def _select_winners(inst: GameInstance, metrics: np.ndarray) -> np.ndarray:
    """Boolean winner mask of the best-response round (greedy local rule).

    A node updates iff its metric strictly beats every neighbor's, or ties
    the neighborhood maximum while its id exceeds the highest-id neighbor
    attaining that maximum.  Comparisons are exact floating point.
    Requires every node to have at least one neighbor and finite metrics.

    A stable sort ranks the nodes by (metric, id), so the rule reads: a node
    updates iff its rank exceeds every neighbor's.
    """
    indptr, indices, _ = inst.graph.csr
    rank = np.empty(inst.n, dtype=np.intp)
    rank[metrics.argsort(kind="stable")] = inst.node_ids
    return rank > np.maximum.reduceat(rank[indices], indptr[:-1])


def _dgtc_kernel(inst: GameInstance, prof: np.ndarray, t: int):
    """Best-response round ``t``: the new profile, the winner ids (an int
    array) and the largest update metric.  Asserts winner independence and
    feasibility."""
    responses, metrics = _best_response_all(inst, prof)
    win = _select_winners(inst, metrics)
    _assert_independent(inst, win)
    new_prof = np.where(win[:, None], responses, prof)
    _assert_feasible(inst, new_prof, t)
    return new_prof, win.nonzero()[0], float(np.maximum.reduce(metrics))


def _dgpc_kernel(inst: GameInstance, prof: np.ndarray, s: float, t: int) -> np.ndarray:
    """Gradient-projection round ``t`` with step ``s``; asserts that the
    gradient step stays finite and that the new profile is feasible."""
    lap_p = inst.degree_column * prof - inst.adjacency @ prof
    stepped = prof - 2.0 * s * lap_p
    # checked before projecting: the projection would turn inf into NaN
    if not np.logical_and.reduce(np.isfinite(stepped), axis=None):
        raise InvariantError(f"gradient step with step size {s!r} overflowed in round {t}")
    new_prof = inst.projector.project(stepped)
    _assert_feasible(inst, new_prof, t)
    return new_prof


def dgtc_round(state: EngineState) -> EngineState:
    """One synchronous best-response round, checked as in ``run``."""
    prof = _checked_profile(state, "dgtc")
    new_prof, _, _ = _dgtc_kernel(state.instance, prof, state.t + 1)
    return replace(state, profile=new_prof, t=state.t + 1)


def dgpc_round(state: EngineState) -> EngineState:
    """One simultaneous gradient-projection round, checked as in ``run``."""
    prof = _checked_profile(state, "dgpc")
    new_prof = _dgpc_kernel(state.instance, prof, state.step_size, state.t + 1)
    return replace(state, profile=new_prof, t=state.t + 1)


def run(state: EngineState, algo: str, max_iters: int | None = None,
        threshold: float = DEFAULT.convergence_threshold) -> Trace:
    """Iterate rounds until the consensus metric reaches ``threshold``.

    Stops after ``max_iters`` rounds (default 100 * N) or, for the
    best-response dynamics, at a literal fixed point: once every update
    metric is at most ``DEFAULT.fixed_point`` the profile can never change
    again, so looping further would be vacuous.

    Per-round invariants (feasibility, winner independence, potential
    monotonicity) are asserted; see module docstring.
    """
    prof = _checked_profile(state, algo).copy()
    inst = state.instance
    if max_iters is None:
        max_iters = 100 * inst.n
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")

    phi = potential(inst, prof)
    metric = consensus_metric(prof)
    # one row per round, appended as it ends; t is the row index
    metrics, potentials = array("d", [metric]), array("d", [phi])
    if algo == "dgtc":
        max_metrics, winners, winner_offsets = array("d"), array("q"), array("q", [0])
    else:
        max_metrics = winners = winner_offsets = None
    t = 0
    fixed_point = False

    while metric > threshold and t < max_iters:
        if algo == "dgtc":
            new_prof, updated, max_metric = _dgtc_kernel(inst, prof, t + 1)
            if max_metric <= DEFAULT.fixed_point:
                fixed_point = True
                break
            prof = new_prof
            max_metrics.append(max_metric)
            winners.frombytes(updated.astype(np.int64, copy=False).tobytes())
            winner_offsets.append(len(winners))
        else:
            prof = _dgpc_kernel(inst, prof, state.step_size, t + 1)
        t += 1

        new_phi = potential(inst, prof)
        if algo == "dgtc" and new_phi < phi - DEFAULT.monotonicity:
            raise InvariantError(
                f"potential decreased in round {t}: {phi!r} -> {new_phi!r}")
        phi = new_phi
        metric = consensus_metric(prof)
        metrics.append(metric)
        potentials.append(phi)

    return Trace(
        algo=algo,
        metrics=metrics,
        potentials=potentials,
        final_profile=prof,
        converged=metric <= threshold,
        iterations_used=t,
        fixed_point=fixed_point,
        max_metrics=max_metrics,
        winners=winners,
        winner_offsets=winner_offsets,
    )


def _assert_feasible(inst: GameInstance, prof: np.ndarray, t: int | None) -> None:
    """Every strategy within ``DEFAULT.membership`` of its set after round
    ``t`` (None: in the starting profile); a NaN distance fails too."""
    dists = inst.projector.distances(prof)
    if not np.maximum.reduce(dists) <= DEFAULT.membership:
        worst = int(np.argmax(dists))
        when = "in the starting profile" if t is None else f"after round {t}"
        raise InvariantError(
            f"strategy of node {worst} left its set {when}: distance {dists[worst]:.3e}")


def _assert_independent(inst: GameInstance, win: np.ndarray) -> None:
    _, indices, rows = inst.graph.csr
    if np.logical_or.reduce(win[indices] & win[rows]):
        raise InvariantError(f"adjacent winners in round update: {np.flatnonzero(win).tolist()}")


def pocs_run(inst: GameInstance | BallStack, x0, cycles: int) -> tuple[np.ndarray, list[float]]:
    """Cyclic projections onto every node's set, in ascending node order.

    ``inst`` is one instance with a start point of shape (q,), or a
    ``BallStack`` of B members with starts of shape (B, q) that run in
    lockstep.  Returns the final point(s) and the displacement of each full
    cycle as Python floats, member-major: member b's cycle k (from 0) is
    entry ``b * cycles + k``.  The per-cycle displacement is nonincreasing
    (the cycle map is nonexpansive) and goes to zero on feasible instances.

    An all-ball instance runs as a stack of one; any other instance projects
    with each set's own formula.  Both give ``ConvexSet.project``'s bits.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be positive, got {cycles}")
    x = np.array(x0, dtype=float)
    if isinstance(inst, BallStack):
        if x.shape != (inst.size, inst.q):
            raise ValueError(f"expected {inst.size} starting points of dimension {inst.q}, "
                             f"got shape {x.shape}")
    elif x.shape != (inst.q,):
        raise ValueError(f"expected a starting point of dimension {inst.q}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("starting point coordinates must be finite")
    if isinstance(inst, BallStack):
        return _pocs_stack(inst, x, cycles)
    if all(isinstance(s, Ball) for s in inst.sets):
        x, displacements = _pocs_stack(BallStack([inst.sets]), x[None, :], cycles)
        return x[0], displacements
    # x is checked once above, so the loop calls each set's projection
    # formula without ConvexSet.project's per-call coercion
    projections = [s._project for s in inst.sets]
    displacements = []
    for _ in range(cycles):
        start = x
        for project in projections:
            x = project(x)
        v = x - start
        displacements.append(math.sqrt(v @ v))
    return x, displacements


def _pocs_stack(stack: BallStack, x: np.ndarray, cycles: int) -> tuple[np.ndarray, list[float]]:
    """``cycles`` lockstep cycles of ``stack.project_cycle`` from x (B, q);
    the displacements member-major, as ``pocs_run`` returns them."""
    displacements = np.empty((cycles, stack.size))
    # an overflowing square gives inf, as the 1-d loop's v @ v does
    with np.errstate(over="ignore"):
        for k in range(cycles):
            start = x
            x = stack.project_cycle(x)
            v = x - start
            # np.vecdot sums each row as v @ v sums a vector
            displacements[k] = np.sqrt(np.vecdot(v, v))
    return x, displacements.T.ravel().tolist()
