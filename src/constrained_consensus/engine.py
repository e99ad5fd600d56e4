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

Each round's kernel projects, and sums squares, on the contiguous (q, N)
transpose of the profile, whose columns are whole coordinates, and returns
a C-ordered (N, q) profile: a profile's consensus metric is summed in
memory order, so only C order gives the recorded bits.  The winner rule
runs edge by edge.  Every result has the bits of the plain row-by-row
formulas, as does the start: ``initialize`` uses the rounds' projector.

Structural invariants are asserted for every round and for the start, in
this order: best-response winners form an independent set, strategies stay
in their sets, the profile stays in the magnitude domain of ``sets``, and
the potential never decreases under best-response rounds.  ``run`` works in
blocks of K rounds: per round it runs only the round itself and stores the
new profile (on best-response runs also the update metrics, whose largest
value the fixed-point stop needs, and the winner mask).  Once per block one
rule decides the stop: the block is rolled back to the first round whose
metric is not above the threshold or, if earlier, to the last round
before a best-response round that finds a literal fixed point.  The kept
rounds are checked and recorded; the round that found the fixed point is
checked but not kept.  Later rounds are never checked, recorded or
counted, so a run spends at most K - 1 rounds past its stop, and its trace
is the one a round-by-round loop would give.  K = 2^14 // (N * q) for N
nodes in dimension q, from 1 to 64 (see ``_BLOCK_ELEMENTS``): 64 for N = 50
and N = 100 in the plane, 8 for N = 1000.  The block's potentials are one
``potential`` call.  A best-response round's winners are one (N,) mask
from the winner rule to the block check, which tests the stacked masks and
takes the recorded winner ids from them: it packs each node's K winner bits
into one uint64, ANDs the two ends of every edge once, and reads the first
clashing round from the lowest set bit.  A violation raises
``InvariantError`` naming the first failing round, found once per block,
at most K - 1 rounds after it happened and before any later error leaves
the run; an error raised in a round past the stop is dropped with that
round.  Violations indicate a bug, not a user error.  A round outside the
magnitude domain has no metric, so the stop test ends before it; unless
the run stops first, its check fails.
"""

from __future__ import annotations

import math
import operator
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
from .sets import BallStack, _check_domain, _dot_squares, _inside, _row_squares
from .tolerances import DEFAULT


# ``run`` checks K rounds at once, K = _BLOCK_ELEMENTS // (N * q) for N
# nodes in dimension q, at least 1 and at most _MAX_BLOCK.  The budget
# bounds the block's (K + 1, N, q) profiles and, on best-response runs, its
# (K, N) update metrics: about 128 KiB each in the plane.  The cap is the
# width of the uint64 that packs a node's K winner bits.
_BLOCK_ELEMENTS = 1 << 14
_MAX_BLOCK = 64
# bit r of a uint64 winner word stands for round r of a block
_ROUND_BITS = np.arange(_MAX_BLOCK, dtype=np.uint64)


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


def consensus_metric(p):
    """Root-sum-square deviation of all strategies from their coordinate mean.

    ``p`` is one profile (N, q), giving a float, or a stack (K, N, q) of
    them, giving the K metrics as an array; a C-ordered profile gets the
    same bits either way.
    """
    prof = np.asarray(p, dtype=float)
    _check_domain(prof, "profile entries")
    if prof.ndim == 3:
        if prof.shape[2] > 1:
            # node by node in order, as the 2-D call adds rows; the (N, K, q)
            # transpose adds each node's K * q coordinates in one step
            total = np.add.reduce(np.ascontiguousarray(prof.transpose(1, 0, 2)), axis=0)[:, None]
        else:
            # at q = 1 the 2-D call sums its one column pairwise, as this does
            total = np.add.reduce(prof, axis=1, keepdims=True)
        dev = prof - total / prof.shape[1]
        # each profile's deviations as one vector, summed as @ sums it (the
        # length is spelled out: -1 cannot size the rows of an empty stack)
        dev = dev.reshape(len(prof), prof.shape[1] * prof.shape[2])
        return np.sqrt(np.vecdot(dev, dev))
    # np.linalg.norm's own arithmetic: a dot product in memory order
    dev = (prof - np.add.reduce(prof, axis=0) / len(prof)).ravel(order="K")
    return math.sqrt(dev @ dev)


def initialize(inst: GameInstance, layout: GeometricLayout | None = None) -> np.ndarray:
    """Deterministic feasible start: the rounds' projection of each node's anchor.

    The anchor is the node's own position when a geometric layout is given,
    the origin otherwise.
    """
    if layout is not None:
        anchors = np.asarray(layout.positions, dtype=float)
        if anchors.shape != (inst.n, inst.q):
            raise ValueError(f"layout shape {anchors.shape} does not match instance {(inst.n, inst.q)}")
        _check_domain(anchors, "layout positions")
    else:
        anchors = np.zeros((inst.n, inst.q))
    return np.array(inst.projector.project(anchors), order="C")


def initial_state(inst: GameInstance, layout: GeometricLayout | None = None,
                  step_size: float | None = None) -> EngineState:
    """Build a validated engine state with the deterministic initial profile."""
    if step_size is not None:
        _check_step(inst, step_size, stacklevel=3)
    return EngineState(inst, initialize(inst, layout), 0, step_size)


def _check_step_sign(s: float) -> None:
    """The instance-free half of the step rule."""
    if not s > 0:
        raise ValueError(f"step size must be positive, got {s}")


def _check_step(inst: GameInstance, s: float, stacklevel: int) -> None:
    _check_step_sign(s)
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
    _check_rounds(inst, prof[None], None, None, None)
    if algo == "dgpc":
        if state.step_size is None:
            raise ValueError("gradient-projection rounds need a step size")
        # frames: warn <- _check_step <- here <- run / dgpc_round <- caller
        _check_step(inst, state.step_size, stacklevel=4)
    return prof


def _select_winners(inst: GameInstance, metrics: np.ndarray) -> np.ndarray:
    """Boolean winner mask of the best-response round (greedy local rule).

    A node updates iff its metric strictly beats every neighbor's, or ties
    the neighborhood maximum while its id exceeds the highest-id neighbor
    attaining that maximum.  Comparisons are exact floating point.
    Requires every node to have at least one neighbor and finite metrics.

    That is, a node updates iff its (metric, id) beats every neighbor's.
    Without a tie between neighbors, the winners are the nodes whose metric
    exceeds their neighbors' largest, one max per ``graph.csr`` row.  With
    one, the rule runs edge by edge: on edge (i, k) with i < k, i loses
    unless its metric exceeds k's, and otherwise k loses.
    """
    indptr, indices, _ = inst.graph.csr
    largest = np.maximum.reduceat(metrics[indices], indptr[:-1])
    if not np.logical_or.reduce(metrics == largest):
        return metrics > largest
    i, k = inst.edge_pairs
    lost = np.zeros(inst.n, dtype=bool)
    lost[np.where(metrics[i] > metrics[k], k, i)] = True
    return np.logical_not(lost, out=lost)


def _dgtc_kernel(inst: GameInstance, prof: np.ndarray, t: int):
    """Best-response round ``t``: the new profile, C-ordered, the (N,)
    winner mask of ``_select_winners`` and the (N,) update metrics.  The
    caller checks the round, on that same mask.

    The centroids are projected on their contiguous (q, N) transpose, and
    the update metrics are summed over it, column by column."""
    centroids = np.divide(np.dot(inst.adjacency, prof).T, inst.degree_column.T, order="C")
    responses = inst.projector.project(centroids.T)
    metrics = _row_squares(responses.T - prof.T)
    win = _select_winners(inst, metrics)
    new_prof = prof.copy()
    np.copyto(new_prof, responses, where=win[:, None])
    return new_prof, win, metrics


def _dgpc_kernel(inst: GameInstance, prof: np.ndarray, s: float, t: int) -> np.ndarray:
    """Gradient-projection round ``t`` with step ``s``; asserts that the
    gradient step stays in the magnitude domain of ``sets``.  Returns the
    new profile, C-ordered; the caller checks it.

    The step is taken on the rows, then checked and projected on its
    contiguous (q, N) transpose."""
    lap_p = inst.degree_column * prof - np.dot(inst.adjacency, prof)
    stepped = np.ascontiguousarray((prof - 2.0 * s * lap_p).T)
    # checked before projecting, which would turn inf into NaN
    try:
        _check_domain(stepped, "gradient step")
    except ValueError:
        raise InvariantError(f"gradient step with step size {s!r} overflowed in round {t}") from None
    return np.ascontiguousarray(inst.projector.project(stepped.T))


def dgtc_round(state: EngineState) -> EngineState:
    """One synchronous best-response round, checked as ``run`` checks its
    rounds, as a block of one."""
    prof = _checked_profile(state, "dgtc")
    inst = state.instance
    new_prof, win, _ = _dgtc_kernel(inst, prof, state.t + 1)
    _check_rounds(inst, new_prof[None], win[None], state.t, potential(inst, prof))
    return replace(state, profile=new_prof, t=state.t + 1)


def dgpc_round(state: EngineState) -> EngineState:
    """One simultaneous gradient-projection round, checked as ``run`` checks
    its rounds, as a block of one."""
    prof = _checked_profile(state, "dgpc")
    new_prof = _dgpc_kernel(state.instance, prof, state.step_size, state.t + 1)
    _check_rounds(state.instance, new_prof[None], None, state.t, None)
    return replace(state, profile=new_prof, t=state.t + 1)


def run(state: EngineState, algo: str, max_iters: int | None = None,
        threshold: float = DEFAULT.convergence_threshold) -> Trace:
    """Iterate rounds until the consensus metric reaches ``threshold``.

    Stops after ``max_iters`` rounds (default 100 * N) or, for the
    best-response dynamics, at a literal fixed point: once every update
    metric is at most ``DEFAULT.fixed_point`` the profile can never change
    again, so looping further would be vacuous.

    Rounds run in blocks of K.  Both stop tests and every round's checks
    (``_check_rounds``) run once per block, and the block is rolled back to
    its threshold or fixed-point stop: the trace is the round-by-round one,
    and at most K - 1 rounds past the stop are run and discarded.  The round
    that finds a fixed point is checked but not kept.  An error raised in a
    round after the stop is dropped with that round.  See module docstring.
    """
    prof = _checked_profile(state, algo)
    inst = state.instance
    max_iters = _check_stop(max_iters, threshold)
    if max_iters is None:
        max_iters = 100 * inst.n

    best_response = algo == "dgtc"
    # one row per round; t is the row index and the rounds recorded
    metrics, potentials = array("d", [consensus_metric(prof)]), array("d", [potential(inst, prof)])
    # block[0] is the profile after round t, and rounds t + 1, ..., t + i
    # have their profiles in block[1:i + 1] and, on best-response runs,
    # their update metrics in updates[:i] and winner masks in wins[:i]
    length = _block_length(inst)
    block = np.empty((length + 1, inst.n, inst.q))
    block[0] = prof
    if best_response:
        max_metrics, winners, winner_offsets = array("d"), array("q"), array("q", [0])
        updates, wins = np.empty((length, inst.n)), np.empty((length, inst.n), dtype=bool)
    else:
        max_metrics = winners = winner_offsets = updates = wins = None
    t = 0

    def flush(k: int) -> str | None:
        """Keep rounds t + 1, ..., t + k up to the run's stop, check and
        record them, and move the last kept profile to block[0].  The stop
        is "threshold" at the first of rounds t, ..., t + k whose metric is
        not above the threshold, or "fixed_point" at an earlier round whose
        update metrics are all at most ``DEFAULT.fixed_point``, which is
        checked but not kept; None if the run goes on."""
        nonlocal t
        inside = _inside(block[1:k + 1])  # the rounds with a metric
        ms = consensus_metric(block[1:inside + 1])
        # round t's metric is the last one recorded: above the threshold,
        # except maybe at the start
        above = np.concatenate(([metrics[-1]], ms)) > threshold
        kept, stop = int(above.argmin()), "threshold"
        if above[kept]:
            kept, stop = inside, None
        if best_response:
            maxes = np.maximum.reduce(updates[:k], axis=1)
            settled = maxes[:kept] <= DEFAULT.fixed_point
            if np.logical_or.reduce(settled):
                kept, stop = int(settled.argmax()), "fixed_point"
        checked = k if stop is None else kept + (stop == "fixed_point")
        phis = _check_rounds(inst, block[1:checked + 1], None if wins is None else wins[:checked], t,
                             potentials[-1] if best_response else None)
        if phis is None:
            phis = potential(inst, block[1:kept + 1])
        metrics.frombytes(ms[:kept].tobytes())
        potentials.frombytes(phis[:kept].tobytes())
        if best_response:
            max_metrics.frombytes(maxes[:kept].tobytes())
            counts = np.add.reduce(wins[:kept], axis=1, dtype=np.int64)
            offsets = np.add.accumulate(counts) + len(winners)
            winners.frombytes(wins[:kept].nonzero()[1].astype(np.int64, copy=False).tobytes())
            winner_offsets.frombytes(offsets.tobytes())
        block[0] = block[kept]
        t += kept
        return stop

    stop = flush(0)  # the start's own threshold test
    while stop is None and t < max_iters:
        size = min(length, max_iters - t)
        i = 0
        try:
            while i < size:
                if best_response:
                    block[i + 1], wins[i], updates[i] = _dgtc_kernel(inst, block[i], t + i + 1)
                else:
                    block[i + 1] = _dgpc_kernel(inst, block[i], state.step_size, t + i + 1)
                i += 1
        except Exception:
            # the pending rounds first: a failure among them is raised with
            # this error as its context, and a stop among them ends the run
            # before the failing round, as a round-by-round loop would
            stop = flush(i)
            if stop is None:
                raise
        else:
            stop = flush(i)

    return Trace(
        algo=algo,
        metrics=metrics,
        potentials=potentials,
        final_profile=block[0].copy(),
        converged=metrics[-1] <= threshold,
        iterations_used=t,
        fixed_point=stop == "fixed_point",
        max_metrics=max_metrics,
        winners=winners,
        winner_offsets=winner_offsets,
    )


def _count(value, name: str) -> int:
    """``value`` as a positive int, or a ``ValueError`` naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _check_stop(max_iters: int | None, threshold: float) -> int | None:
    """Check ``run``'s stop parameters; return ``max_iters`` as an int, or
    None for the default."""
    max_iters = None if max_iters is None else _count(max_iters, "max_iters")
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    return max_iters


def _block_length(inst: GameInstance) -> int:
    """K, the rounds ``run`` checks at once (see ``_BLOCK_ELEMENTS``)."""
    return max(1, min(_MAX_BLOCK, _BLOCK_ELEMENTS // (inst.n * inst.q)))


def _check_rounds(inst: GameInstance, profs: np.ndarray, wins: np.ndarray | None, t: int | None,
                  phi: float | None) -> np.ndarray | None:
    """Check rounds t + 1, ..., t + K, whose profiles are stacked in ``profs``
    (K, N, q), or with t None the starting profile, as a block of one; return
    the K potentials if ``phi`` is given, else None.

    A round's checks, in order: best-response rounds pass their winner masks
    ``wins`` (K, N), K <= 64, which must be independent sets; strategies lie
    in their sets; the profile lies in the magnitude domain; and, unless
    ``phi`` (the potential before round t + 1) is None, the potential does
    not decrease.  The first failing round raises ``InvariantError`` for its
    first failing check.  Each check runs once over the stack; potentials
    are taken only for the rounds before the first failure of the other
    three.
    """
    dists = inst.projector.distances(profs)
    failed = ~(np.maximum.reduce(dists, axis=-1) <= DEFAULT.membership)  # a NaN distance fails too
    infeasible = int(failed.argmax()) if np.logical_or.reduce(failed) else len(profs)
    clash = len(profs) if wins is None else _first_clash(inst, wins)
    k = min(clash, infeasible, _inside(profs))
    phis = None
    if phi is not None:
        phis = potential(inst, profs[:k])
        before = np.concatenate(([phi], phis[:-1]))
        drops = phis < before - DEFAULT.monotonicity
        if np.logical_or.reduce(drops):
            i = int(drops.argmax())
            raise InvariantError(f"potential decreased in round {t + i + 1}: "
                                 f"{float(before[i])!r} -> {float(phis[i])!r}")
    if k < len(profs):
        when = "in the starting profile" if t is None else f"after round {t + k + 1}"
        if k == clash:
            raise InvariantError(f"adjacent winners in round {t + k + 1} update: "
                                 f"{np.flatnonzero(wins[k]).tolist()}")
        if k == infeasible:
            worst = int(np.argmax(dists[k]))
            raise InvariantError(f"strategy of node {worst} left its set {when}: "
                                 f"distance {dists[k, worst]:.3e}")
        raise InvariantError(f"profile left the magnitude domain {when}")
    return phis


def _first_clash(inst: GameInstance, wins: np.ndarray) -> int:
    """The first round of the (K, N) winner masks ``wins``, K <= 64, in
    which an edge joins two winners, or K if there is none.

    Bit r of node n's uint64 word is wins[r, n], so one gather over the
    edges ANDs all K rounds at once, and the lowest set bit of the OR over
    the edges is the first clashing round.  The words are built by shifts
    and one OR over the rounds, which is cheaper than ``np.packbits`` along
    the round axis."""
    words = np.bitwise_or.reduce(np.left_shift(wins, _ROUND_BITS[:len(wins), None]), axis=0)
    u, v = inst.edge_pairs
    clashes = int(np.bitwise_or.reduce(words[u] & words[v]))
    return (clashes & -clashes).bit_length() - 1 if clashes else len(wins)


def pocs_run(inst: GameInstance | BallStack, x0, cycles: int) -> tuple[np.ndarray, list[float]]:
    """Cyclic projections onto every node's set, in ascending node order.

    ``inst`` is one instance with a start point of shape (q,), or a
    ``BallStack`` of B members that run in lockstep from starts of shape
    (B, q), checked as ``BallStack.max_distances`` checks its points.
    Returns the final point(s) and the displacement of each full cycle as
    Python floats, member-major: member b's cycle k (from 0) is entry
    ``b * cycles + k``.  The per-cycle displacement is nonincreasing (the
    cycle map is nonexpansive) and goes to zero on feasible instances.

    A ``BallStack`` projects a node's balls for all members at once;
    otherwise each set projects with its own formula.  Both give
    ``ConvexSet.project``'s bits, and the displacement is the norm
    ``ConvexSet.distance_to`` takes.  The start must lie in the magnitude
    domain of ``sets``.
    """
    cycles = _count(cycles, "cycles")
    # x is checked once here, so the cycles (BallStack._cycle or the sets'
    # _project) skip the per-call checks of ConvexSet.project
    if isinstance(inst, BallStack):
        x = inst._points(x0)
        cycle = inst._cycle
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (inst.q,):
            raise ValueError(f"expected a starting point of dimension {inst.q}, got shape {x.shape}")
        _check_domain(x, "starting point coordinates")
        projections = [s._project for s in inst.sets]

        def cycle(x):
            for project in projections:
                x = project(x)
            return x
    # (cycles,) or (cycles, B) displacements, returned member-major
    displacements = np.empty((cycles,) + x.shape[:-1])
    for k in range(cycles):
        start = x
        x = cycle(x)
        displacements[k] = np.sqrt(_dot_squares(x.T - start.T))
    return x, displacements.T.ravel().tolist()
