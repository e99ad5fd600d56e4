import json
import math
import re
import tracemalloc
import warnings
from array import array
from dataclasses import replace

import numpy as np
import pytest

from conftest import ball_arrays, rand_connected_graph, rand_feasible_instance, rand_feasible_profile
from constrained_consensus import engine, game, sets
from constrained_consensus.engine import (
    EngineState,
    InvariantError,
    TraceRecord,
    _check_rounds,
    _dgpc_kernel,
    _dgtc_kernel,
    _select_winners,
    StepSizeWarning,
    consensus_metric,
    dgpc_round,
    dgtc_round,
    initial_state,
    initialize,
    pocs_run,
    run,
)
from constrained_consensus.game import (
    DegenerateNodeError,
    GameInstance,
    default_step_size,
    max_set_distance,
    potential,
)
from constrained_consensus.experiments import make_localization_instance
from constrained_consensus.graphs import GeometricLayout, Graph
from constrained_consensus.sets import Ball, BallStack, Box, Halfspace, interval
from constrained_consensus.tolerances import DEFAULT


def two_node_instance():
    g = Graph.from_edges(2, [(0, 1)])
    return GameInstance(g, (interval(-2.0, 1.0), interval(0.0, 3.0)), 1)


def start_profile():
    return np.array([[-2.0], [3.0]])


def test_initialize_projects_anchor():
    g = Graph.from_edges(2, [(0, 1)])
    inst = GameInstance(g, (Ball((5.0, 5.0), 1.0), Ball((0.0, 0.0), 9.0)), 2)
    prof = initialize(inst)
    expected = 5.0 - 1.0 / math.sqrt(2.0)
    assert prof[0] == pytest.approx([expected, expected], abs=1e-12)
    assert prof[1] == pytest.approx([0.0, 0.0], abs=0)


def test_initialize_uses_layout_anchor():
    g = Graph.from_edges(2, [(0, 1)])
    inst = GameInstance(g, (Ball((0.4, 0.4), 5.0), Ball((0.9, 0.9), 5.0)), 2)
    layout = GeometricLayout(np.array([[0.2, 0.2], [0.8, 0.8]]))
    prof = initialize(inst, layout)
    # anchors already feasible: kept bitwise
    assert np.array_equal(prof, layout.positions)


def test_initialize_is_deterministic():
    g = Graph.from_edges(2, [(0, 1)])
    inst = GameInstance(g, (Ball((5.0, 5.0), 1.0), Ball((0.0, 0.0), 9.0)), 2)
    assert np.array_equal(initialize(inst), initialize(inst))


def test_initialize_is_the_rounds_projection_bit_for_bit(rng):
    # anchors outside their balls are projected as the rounds project, with
    # np.linalg.norm's sums, into a new C-ordered profile, whichever way
    # the instance was built; q = 7 and 8 straddle numpy's pairwise sums
    for q in (1, 2, 3, 7, 8):
        n = int(rng.integers(5, 30))
        centers, radii = rng.uniform(0.3, 0.7, (n, q)), rng.uniform(0.0, 0.25, n)
        graph = rand_connected_graph(rng, n)
        layout = GeometricLayout(rng.random((n, q)))
        assert np.count_nonzero(np.linalg.norm(layout.positions - centers, axis=1) > radii) >= 2
        for inst in (GameInstance.from_balls(graph, centers, radii),
                     GameInstance(graph, tuple(map(Ball, centers, radii)), q)):
            for anchor, given in ((np.zeros((n, q)), None), (layout.positions, layout)):
                prof = initialize(inst, given)
                assert prof.flags.c_contiguous and prof.flags.writeable
                assert prof.tobytes() == reference_project(centers, radii, anchor).tobytes()


def test_an_infeasible_start_is_rejected():
    # run and both single rounds check the start before any arithmetic, on
    # a ball table and on row-by-row intervals
    g = Graph.from_edges(2, [(0, 1)])
    balls = GameInstance.from_balls(g, np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
    for inst, prof in ((balls, [[0.0, 0.0], [1.0, 1.5]]), (two_node_instance(), [[-2.0], [3.5]])):
        state = EngineState(inst, np.array(prof), step_size=0.1)
        for start in (lambda: run(state, "dgtc", 5), lambda: run(state, "dgpc", 5),
                      lambda: dgtc_round(state), lambda: dgpc_round(state)):
            with pytest.raises(InvariantError,
                               match=r"^strategy of node 1 left its set in the starting profile: "
                                     r"distance 5\.000e-01$"):
                start()


def test_consensus_metric_examples():
    assert consensus_metric([[1.5, 2.5], [1.5, 2.5], [1.5, 2.5]]) == 0.0
    assert consensus_metric([[0.0], [2.0]]) == pytest.approx(math.sqrt(2), rel=1e-15)
    p = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
    shifted = p + np.array([3.0, -7.0])
    assert consensus_metric(shifted) == pytest.approx(consensus_metric(p), rel=1e-12)


def test_dgtc_hand_trace():
    inst = two_node_instance()
    state = EngineState(inst, start_profile())
    # both nodes could move squared length 9; the tie goes to the higher id
    s1 = dgtc_round(state)
    assert np.array_equal(s1.profile, [[-2.0], [0.0]])
    assert s1.t == 1
    # now only node 0 improves (metric 4 vs 0)
    s2 = dgtc_round(s1)
    assert np.array_equal(s2.profile, [[0.0], [0.0]])


def test_dgtc_consensus_is_fixed_point():
    inst = two_node_instance()
    state = EngineState(inst, np.array([[0.5], [0.5]]))
    after = dgtc_round(state)
    assert np.array_equal(after.profile, state.profile)


def test_dgtc_run_converges_in_two_rounds():
    inst = two_node_instance()
    trace = run(EngineState(inst, start_profile()), "dgtc", threshold=1e-12)
    assert trace.converged
    assert trace.iterations_used == 2
    assert np.array_equal(trace.final_profile, [[0.0], [0.0]])
    assert [r.t for r in trace.records] == [0, 1, 2]
    assert trace.records[1].updated == (1,)
    assert trace.records[2].updated == (0,)


def test_dgtc_potential_never_decreases(rng):
    for _ in range(15):
        inst, _ = rand_feasible_instance(rng)
        trace = run(initial_state(inst), "dgtc", threshold=0.0, max_iters=40 * inst.n)
        phi = [r.potential for r in trace.records]
        assert all(b >= a - 1e-12 for a, b in zip(phi, phi[1:]))
        assert all(v <= 0.0 for v in phi)


def test_dgtc_potential_strictly_increases_on_real_updates(rng):
    # whenever some winner moves a non-negligible amount the potential gain
    # is strictly positive (the best response is the unique maximizer)
    for _ in range(10):
        inst, _ = rand_feasible_instance(rng)
        trace = run(initial_state(inst), "dgtc", threshold=0.0, max_iters=40 * inst.n)
        for prev, rec in zip(trace.records, trace.records[1:]):
            if rec.max_metric is not None and rec.max_metric > 1e-8 and rec.updated:
                assert rec.potential > prev.potential


def test_dgtc_winners_form_independent_set(rng):
    for _ in range(15):
        inst, _ = rand_feasible_instance(rng)
        trace = run(initial_state(inst), "dgtc", threshold=1e-10, max_iters=40 * inst.n)
        for rec in trace.records:
            for a in rec.updated:
                for b in rec.updated:
                    assert a == b or inst.adjacency[a, b] == 0


def test_assert_independent_rejects_adjacent_winners():
    # the block check on feasible zero profiles: each mask as a block of
    # one round, and the stack of masks as one block
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    inst = GameInstance(g, tuple(interval(-1.0, 1.0) for _ in range(4)), 1)

    def check(wins, t):
        wins = np.array(wins).reshape(-1, 4)
        return _check_rounds(inst, np.zeros((len(wins), 4, 1)), wins, t - 1, None)
    with pytest.raises(InvariantError, match=r"adjacent winners in round 3 update: \[1, 2\]"):
        check([False, True, True, False], 3)
    with pytest.raises(InvariantError, match="adjacent winners in round 1 update"):
        check([True, True, True, True], 1)
    good = [[True, False, True, False], [True, False, False, True],
            [False, False, False, False], [False, False, True, False]]
    for win in good:
        check(win, 1)
    # a stack of rounds 5, 6, ...: the first with adjacent winners fails
    check(good, 5)
    for i in range(len(good)):
        stack = np.array(good + [[True, True, False, False], [False, True, True, False]])
        stack[i] = [False, False, True, True]
        with pytest.raises(InvariantError, match=rf"in round {5 + i} update: \[2, 3\]"):
            check(stack, 5)


def test_assert_feasible_rejects_non_finite():
    # the block check on a block of one: the all-ball instance takes the
    # vectorized distance path, the interval instance the per-row one
    g = Graph.from_edges(2, [(0, 1)])
    balls = GameInstance(g, (Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0)), 2)
    for inst, good in ((balls, [[0.0, 0.0], [0.5, 0.0]]), (two_node_instance(), [[0.0], [0.5]])):
        _check_rounds(inst, np.array([good]), None, 0, None)
        for bad in (math.nan, math.inf):
            prof = np.array([good])
            prof[0, 0, 0] = bad
            with pytest.raises(InvariantError, match="node 0 left its set after round 1"):
                _check_rounds(inst, prof, None, 0, None)


def _rand_ball_instance(rng, q):
    n = int(rng.integers(2, 30))
    g = rand_connected_graph(rng, n)
    balls = tuple(Ball(rng.uniform(-1, 1, q), rng.uniform(0.0, 0.8)) for _ in range(n))
    return GameInstance(g, balls, q)


def _rand_ball_profile(inst, rng):
    # rows inside, outside and exactly at the center of their balls
    prof = rng.uniform(-2, 2, (inst.n, inst.q))
    centers = np.array([s.center for s in inst.sets])
    pick = rng.integers(3, size=inst.n)
    prof[pick == 1] = centers[pick == 1]
    near = pick == 2
    prof[near] = centers[near] + 0.1 * (prof[near] - centers[near])
    return prof


def reference_project(centers, radii, x):
    diff = x - centers
    d = np.linalg.norm(diff, axis=1)
    scale = radii / np.maximum(d, np.finfo(float).tiny)
    return np.where((d <= radii)[:, None], x, centers + diff * scale[:, None])


def reference_distances(centers, radii, x):
    return np.maximum(np.linalg.norm(x - centers, axis=1) - radii, 0.0)


def reference_potential(inst, p):
    diffs = np.concatenate([p[i] - p[k] for i, k in inst.graph.edges()])
    return -float(diffs @ diffs)


def reference_winners(inst, metrics):
    # brute force: a node wins iff its (metric, id) beats every neighbor's
    return np.array([all((metrics[i], i) > (metrics[k], k) for k in inst.graph.neighbors[i])
                     for i in range(inst.n)])


def test_round_arithmetic_matches_reference_bit_for_bit(rng):
    # the round path's NumPy calls were rewritten for speed; every result
    # must equal the straightforward formula on the C-ordered rows exactly,
    # not approximately, whatever the profile's layout: C-ordered,
    # F-ordered, or the (N, q) view of a (q, N) array, as the round kernels
    # pass it.  q = 7 and 8 straddle numpy's switch from in-order to
    # pairwise sums of a row
    for q in (1, 2, 3, 7, 8):
        for _ in range(20):
            inst = _rand_ball_instance(rng, q)
            centers = np.array([s.center for s in inst.sets])
            radii = np.array([s.radius for s in inst.sets])
            prof = _rand_ball_profile(inst, rng)
            projected = reference_project(centers, radii, prof)
            distances = reference_distances(centers, radii, prof)
            for p in (prof, np.asfortranarray(prof), np.ascontiguousarray(prof.T).T):
                assert consensus_metric(p) == float(np.linalg.norm(p - p.mean(axis=0)))
                assert potential(inst, p) == reference_potential(inst, p)
                assert np.array_equal(inst.projector.project(p), projected)
                assert np.array_equal(inst.projector.distances(p), distances)
            # a (K, N, q) stack, as the block checks pass it: each profile's
            # distances with its own bits
            stack = np.array([prof, _rand_ball_profile(inst, rng), prof[::-1]])
            assert np.array_equal(inst.projector.distances(stack),
                                  [reference_distances(centers, radii, member) for member in stack])


def reference_run(inst, prof, algo, step, rounds):
    # run's trace columns for a threshold of 0 from a plain row-layout loop:
    # centroids adjacency @ p / deg, np.linalg.norm projections, the brute
    # force winner rule and np.linalg.norm metrics
    adjacency, deg = inst.adjacency, inst.degrees[:, None].astype(float)
    centers = np.array([s.center for s in inst.sets])
    radii = np.array([s.radius for s in inst.sets])
    cols = dict(metrics=[float(np.linalg.norm(prof - prof.mean(axis=0)))],
                potentials=[reference_potential(inst, prof)], max_metrics=[], winners=[],
                winner_offsets=[0])
    t, fixed_point = 0, False
    while t < rounds:
        if algo == "dgtc":
            responses = reference_project(centers, radii, adjacency @ prof / deg)
            moves = responses - prof
            metrics = np.add.reduce(moves * moves, axis=1)
            if metrics.max() <= DEFAULT.fixed_point:
                fixed_point = True
                break
            win = reference_winners(inst, metrics)
            prof = np.where(win[:, None], responses, prof)
            cols["max_metrics"].append(metrics.max())
            cols["winners"] += np.flatnonzero(win).tolist()
            cols["winner_offsets"].append(len(cols["winners"]))
        else:
            stepped = prof - 2.0 * step * (deg * prof - adjacency @ prof)
            prof = reference_project(centers, radii, stepped)
        t += 1
        cols["metrics"].append(float(np.linalg.norm(prof - prof.mean(axis=0))))
        cols["potentials"].append(reference_potential(inst, prof))
    return cols, prof, t, fixed_point


def test_run_matches_a_row_layout_reference_bit_for_bit(rng):
    # run's kernels compute on the (q, N) transpose with their own sums and
    # winner rule; about 200 rounds of each algorithm must give every trace
    # column and the final profile of the plain loop exactly
    for q in (1, 2, 3, 4, 8):
        for holding in (None, rng.uniform(-0.5, 0.5, q)):
            n = int(rng.integers(5, 40))
            inst = _ball_member(rng, n, q, holding)
            state = initial_state(inst, step_size=default_step_size(inst))
            for algo in ("dgtc", "dgpc"):
                trace = run(state, algo, 200, 0.0)
                cols, prof, t, fixed_point = reference_run(inst, state.profile, algo,
                                                           state.step_size, 200)
                assert (trace.iterations_used, trace.fixed_point) == (t, fixed_point)
                assert trace.final_profile.tobytes() == prof.tobytes()
                assert trace.metrics.tobytes() == array("d", cols["metrics"]).tobytes()
                assert trace.potentials.tobytes() == array("d", cols["potentials"]).tobytes()
                if algo == "dgtc":
                    assert trace.max_metrics.tobytes() == array("d", cols["max_metrics"]).tobytes()
                    assert trace.winners.tolist() == cols["winners"]
                    assert trace.winner_offsets.tolist() == cols["winner_offsets"]


def test_winner_rule_matches_brute_force(rng):
    for q in (1, 2, 3):
        for _ in range(30):
            inst = _rand_ball_instance(rng, q)
            n = inst.n
            for metrics in (rng.random(n), rng.integers(0, 3, n).astype(float),
                            rng.integers(0, 2, n).astype(float), np.zeros(n)):
                assert np.array_equal(_select_winners(inst, metrics), reference_winners(inst, metrics))


def test_single_rounds_make_the_run_checks():
    # an infeasible incoming profile is rejected, as run rejects it
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    inst = GameInstance(path, tuple(interval(0.0, 1.0) for _ in range(3)), 1)
    with pytest.raises(InvariantError, match="left its set"):
        dgtc_round(EngineState(inst, np.array([[1.1], [-5.0], [1.0]])))
    # an isolated node is rejected before any arithmetic, as run does
    g = Graph.from_edges(3, [(0, 1)])
    inst = GameInstance(g, tuple(interval(0.0, 1.0) for _ in range(3)), 1)
    with pytest.raises(DegenerateNodeError):
        dgpc_round(EngineState(inst, np.zeros((3, 1)), step_size=0.1))


def test_dgpc_hand_step():
    inst = two_node_instance()
    state = EngineState(inst, start_profile(), step_size=0.1)
    after = dgpc_round(state)
    assert np.array_equal(after.profile, [[-1.0], [2.0]])


def test_dgpc_consensus_point_is_stationary():
    inst = two_node_instance()
    state = EngineState(inst, np.array([[0.5], [0.5]]), step_size=0.1)
    assert np.array_equal(dgpc_round(state).profile, state.profile)


def test_dgpc_matches_centralized_update(rng):
    """Distributed per-node rounds equal the stacked projected-gradient step.

    The oracle below recomputes the update from scratch: explicit per-node
    gradient sums on the stacked vector, then per-set scalar projections.
    """
    for _ in range(40):
        inst, _ = rand_feasible_instance(rng)
        p = np.array([s.project(rng.uniform(-2, 2, inst.q)) for s in inst.sets])
        step = default_step_size(inst)
        engine_next = dgpc_round(EngineState(inst, p, step_size=step)).profile

        stacked = p.copy()
        grad = np.zeros_like(p)
        for n in range(inst.n):
            for k in inst.graph.neighbors[n]:
                grad[n] += 2.0 * (stacked[n] - stacked[k])
        moved = stacked - step * grad
        oracle = np.array([s.project(row) for s, row in zip(inst.sets, moved)])
        assert np.max(np.abs(engine_next - oracle)) <= 1e-12


def test_dgpc_round_checks_its_step_once(monkeypatch):
    # per round the magnitude domain is checked on the (N, q) start profile
    # and once on the kernel's (q, N) step; the projection, the round's
    # feasibility check in RowProjector and its domain check, by _inside,
    # check nothing more, and no potential is taken
    loc = make_localization_instance(30, 2, 0.4, 0.01, seed=5)
    inst = loc.game_instance
    state = initial_state(inst, loc.layout, step_size=default_step_size(inst))
    shapes = []
    check = sets._check_domain

    def counted(x, what):
        shapes.append((np.shape(x), what))
        return check(x, what)
    for module in (engine, game, sets):
        monkeypatch.setattr(module, "_check_domain", counted)
    for _ in range(5):
        shapes.clear()
        state = dgpc_round(state)
        assert shapes == [((30, 2), "profile entries"), ((2, 30), "gradient step")]


def test_dgpc_step_size_validation():
    inst = two_node_instance()
    with pytest.raises(ValueError):
        dgpc_round(EngineState(inst, start_profile()))
    with pytest.raises(ValueError):
        dgpc_round(EngineState(inst, start_profile(), step_size=-0.1))
    with pytest.warns(StepSizeWarning):
        dgpc_round(EngineState(inst, start_profile(), step_size=10.0))
    with pytest.warns(StepSizeWarning):
        initial_state(inst, step_size=10.0)


def test_pocs_run_validation():
    inst = two_node_instance()
    with pytest.raises(ValueError, match="cycles must be positive"):
        pocs_run(inst, np.array([0.0]), cycles=0)
    # a count that is not an integer is named, not rounded or run
    for bad in (2.5, 1.0, "2"):
        with pytest.raises(ValueError, match=rf"^cycles must be an integer, got {bad!r}$"):
            pocs_run(inst, np.array([0.0]), cycles=bad)
    assert pocs_run(inst, np.array([-2.0]), cycles=np.int64(2))[1] == [2.0, 0.0]
    with pytest.raises(ValueError, match="dimension 1"):
        pocs_run(inst, np.array([0.0, 0.0]), cycles=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            pocs_run(inst, np.array([bad]), cycles=1)


def test_pocs_hand_trace():
    inst = two_node_instance()
    x, disp = pocs_run(inst, np.array([-2.0]), cycles=4)
    assert x == pytest.approx([0.0], abs=0)
    assert disp == pytest.approx([2.0, 0.0, 0.0, 0.0], abs=0)


def test_pocs_feasible_start_unchanged():
    inst = two_node_instance()
    x, disp = pocs_run(inst, np.array([0.5]), cycles=3)
    assert x == pytest.approx([0.5], abs=0)
    assert disp == [0.0, 0.0, 0.0]


def test_pocs_displacements_nonincreasing(rng):
    for _ in range(25):
        inst, common = rand_feasible_instance(rng)
        x0 = common + rng.normal(scale=2.0, size=inst.q)
        x, disp = pocs_run(inst, x0, cycles=50)
        assert all(b <= a + 1e-12 for a, b in zip(disp, disp[1:]))
        assert disp[-1] <= 1e-6
        assert max(s.distance_to(x) for s in inst.sets) <= 1e-6


def reference_pocs(inst, x0, cycles):
    # the plain loop: ConvexSet.project per set, np.linalg.norm per cycle
    x = np.array(x0, dtype=float)
    displacements = []
    for _ in range(cycles):
        start = x
        for s in inst.sets:
            x = s.project(x)
        displacements.append(float(np.linalg.norm(x - start)))
    return x, displacements


def test_pocs_run_matches_reference_bit_for_bit(rng):
    for q in (1, 2, 3):
        for _ in range(10):
            inst = _rand_ball_instance(rng, q)
            x0 = rng.uniform(-3, 3, q)
            # the scaled start is large but inside the magnitude domain
            for start in (x0, x0 * 1e140):
                for cycles in (1, 7):
                    x, disp = pocs_run(inst, start, cycles)
                    ref_x, ref_disp = reference_pocs(inst, start, cycles)
                    assert np.array_equal(x, ref_x)
                    assert disp == ref_disp
    for _ in range(20):
        n = int(rng.integers(2, 15))
        lows = rng.uniform(-2, 1, n)
        inst = GameInstance(rand_connected_graph(rng, n),
                            tuple(interval(lo, lo + w) for lo, w in zip(lows, rng.uniform(0, 2, n))), 1)
        x0 = rng.uniform(-4, 4, 1)
        x, disp = pocs_run(inst, x0, 9)
        ref_x, ref_disp = reference_pocs(inst, x0, 9)
        assert np.array_equal(x, ref_x)
        assert disp == ref_disp


def _ball_member(rng, n, q, holding=None):
    # n random balls; with ``holding``, ball 0 is the radius-0 ball at that
    # point, ball 1 has it on its boundary and every other ball holds it
    if holding is None:
        return GameInstance(rand_connected_graph(rng, n),
                            tuple(Ball(rng.uniform(-1, 1, q), rng.uniform(0.0, 0.8))
                                  for _ in range(n)), q)
    balls = [Ball(holding, 0.0)]
    for i in range(1, n):
        center = holding + rng.uniform(-0.5, 0.5, q)
        d = float(np.linalg.norm(holding - center))
        balls.append(Ball(center, d if i == 1 else d + rng.uniform(0.0, 0.3)))
    return GameInstance(rand_connected_graph(rng, n), tuple(balls), q)


def test_pocs_ball_stack_matches_reference_bit_for_bit(rng):
    # B members in lockstep against the plain per-set loop, compared with
    # ==: member 0 starts feasible (at its radius-0 ball's center, so d = 0),
    # member 1 near 1e140 (large, inside the magnitude domain), member 2 outside
    # every ball and the rest at random
    for B in (2, 7):
        for q in (1, 2, 3):
            for cycles in (1, 5):
                n = int(rng.integers(2, 12))
                feasible = rng.uniform(-0.5, 0.5, q)
                members = [_ball_member(rng, n, q, holding=feasible)]
                members += [_ball_member(rng, n, q) for _ in range(B - 1)]
                x0 = rng.uniform(-1.5, 1.5, (B, q))
                x0[0] = feasible
                x0[1] = rng.choice([-1.0, 1.0], q) * rng.uniform(0.5, 1.0, q) * 1e140
                if B > 2:
                    x0[2] = rng.choice([-1.0, 1.0], q) * rng.uniform(2.5, 4.0, q)
                stack = BallStack(ball_arrays(m.sets) for m in members)
                with warnings.catch_warnings():
                    # d = 0 rows must not divide
                    warnings.simplefilter("error")
                    x, disp = pocs_run(stack, x0, cycles)
                assert x.shape == (B, q)
                assert len(disp) == B * cycles
                assert all(type(v) is float for v in disp)
                for b, inst in enumerate(members):
                    ref_x, ref_disp = reference_pocs(inst, x0[b], cycles)
                    assert np.array_equal(x[b], ref_x), (B, q, b)
                    # member-major: member b's cycles are one contiguous run
                    assert disp[b * cycles:(b + 1) * cycles] == ref_disp, (B, q, b)
                assert np.array_equal(x[0], feasible)
                assert disp[:cycles] == [0.0] * cycles


def test_pocs_ball_stack_validation():
    stack = BallStack([([[0.0], [1.0]], [1.0, 1.0])] * 3)
    with pytest.raises(ValueError, match="cycles must be positive"):
        pocs_run(stack, np.zeros((3, 1)), cycles=0)
    for bad in (np.zeros(1), np.zeros((2, 1)), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="expected 3 points of dimension 1"):
            pocs_run(stack, bad, cycles=1)
    with pytest.raises(ValueError, match="finite"):
        pocs_run(stack, np.array([[0.0], [math.inf], [0.0]]), cycles=1)


def test_run_with_infinite_threshold_does_nothing():
    inst = two_node_instance()
    trace = run(EngineState(inst, start_profile()), "dgtc", threshold=float("inf"))
    assert trace.converged
    assert trace.iterations_used == 0
    assert len(trace.records) == 1
    assert np.array_equal(trace.final_profile, start_profile())


def test_run_validation():
    inst = two_node_instance()
    state = EngineState(inst, start_profile())
    with pytest.raises(ValueError):
        run(state, "newton")
    with pytest.raises(ValueError):
        run(state, "dgtc", max_iters=0)
    # a count that is not an integer is named: 2.5 ran 3 rounds, past its cap
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=rf"^max_iters must be an integer, got {bad!r}$"):
            run(state, "dgtc", bad, 0.0)
    assert run(state, "dgtc", np.int64(2), 0.0).iterations_used <= 2
    with pytest.raises(ValueError):
        run(state, "dgtc", threshold=-1.0)
    with pytest.raises(ValueError):
        run(state, "dgtc", threshold=float("nan"))
    with pytest.raises(ValueError):
        run(state, "dgpc")


def test_run_respects_max_iters():
    inst = two_node_instance()
    trace = run(EngineState(inst, start_profile()), "dgtc", max_iters=1, threshold=0.0)
    assert not trace.converged
    assert trace.iterations_used == 1


def test_feasibility_after_every_round(rng):
    for _ in range(10):
        inst, _ = rand_feasible_instance(rng)
        state = initial_state(inst, step_size=default_step_size(inst))
        for algo in ("dgtc", "dgpc"):
            st = state
            for _ in range(20):
                st = dgtc_round(st) if algo == "dgtc" else dgpc_round(st)
                assert max_set_distance(inst, st.profile) <= 1e-9


def test_near_consensus_mean_feasibility(rng):
    # the coordinate mean lies within the consensus metric of every set
    for _ in range(10):
        inst, _ = rand_feasible_instance(rng)
        trace = run(initial_state(inst), "dgtc", threshold=1e-8, max_iters=60 * inst.n)
        mu = trace.final_profile.mean(axis=0)
        c = consensus_metric(trace.final_profile)
        assert all(s.distance_to(mu) <= c + 1e-15 for s in inst.sets)


def test_dgtc_fixed_point_stop_without_threshold():
    # with disjoint sets the dynamics reach a non-consensus fixed point
    # (outside the nonempty-intersection guarantee); the run detects the
    # literal plateau instead of looping on vacuous tie updates
    g = Graph.from_edges(2, [(0, 1)])
    inst = GameInstance(g, (interval(-2.0, -1.0), interval(1.0, 2.0)), 1)
    trace = run(EngineState(inst, np.array([[-1.0], [1.0]])), "dgtc", threshold=0.0)
    assert trace.fixed_point
    assert not trace.converged
    assert trace.iterations_used == 0
    assert np.array_equal(trace.final_profile, [[-1.0], [1.0]])


def reference_records(inst, prof, algo, step, max_iters, threshold):
    # the history round by round from the kernels, one TraceRecord per row
    records = [TraceRecord(0, consensus_metric(prof), potential(inst, prof), ())]
    t = 0
    while records[-1].consensus_metric > threshold and t < max_iters:
        if algo == "dgtc":
            prof_next, win, updates = _dgtc_kernel(inst, prof, t + 1)
            max_metric = float(np.maximum.reduce(updates))
            if max_metric <= DEFAULT.fixed_point:
                break
            updated = tuple(np.flatnonzero(win).tolist())
        else:
            prof_next = _dgpc_kernel(inst, prof, step, t + 1)
            updated, max_metric = tuple(range(inst.n)), None
        prof = prof_next
        t += 1
        records.append(TraceRecord(t, consensus_metric(prof), potential(inst, prof),
                                   updated, max_metric))
    return records


def test_trace_records_match_round_by_round_reference(rng):
    for _ in range(12):
        inst, _ = rand_feasible_instance(rng)
        step = default_step_size(inst)
        for algo in ("dgtc", "dgpc"):
            state = initial_state(inst, step_size=step)
            trace = run(state, algo, max_iters=30 * inst.n, threshold=1e-10)
            ref = reference_records(inst, state.profile, algo, step, 30 * inst.n, 1e-10)
            records = trace.records
            assert len(records) == len(ref) == trace.iterations_used + 1
            assert list(records) == ref
            assert records[0].updated == () and records[0].max_metric is None
            for rec in records:
                assert type(rec.t) is int
                assert type(rec.consensus_metric) is float and type(rec.potential) is float
                assert all(type(i) is int for i in rec.updated)
            if algo == "dgpc":
                assert all(r.max_metric is None for r in records)
                # one all-ids tuple shared by every round's record
                assert all(r.updated is records[-1].updated for r in records[1:])
            assert np.array_equal(trace.consensus_curve, [r.consensus_metric for r in ref])
            assert trace.final_metric == ref[-1].consensus_metric


def set_block_length(monkeypatch, inst, k):
    # run then checks k rounds at once on this instance
    monkeypatch.setattr(engine, "_BLOCK_ELEMENTS", k * inst.n * inst.q)
    assert engine._block_length(inst) == k


def single_round_trace(state, algo, max_iters, threshold):
    # run's outcome from a loop of single rounds: dgtc_round / dgpc_round
    # move the profile, the kernel gives the winners and the largest update
    # metric, and each row's metric and potential come from one profile
    inst, st = state.instance, state
    metrics, potentials = [consensus_metric(st.profile)], [potential(inst, st.profile)]
    max_metrics, winners, offsets = [], [], [0]
    fixed_point = False
    while metrics[-1] > threshold and st.t < max_iters:
        if algo == "dgtc":
            _, win, updates = _dgtc_kernel(inst, st.profile, st.t + 1)
            max_metric = float(np.maximum.reduce(updates))
            if max_metric <= DEFAULT.fixed_point:
                fixed_point = True
                break
            max_metrics.append(max_metric)
            winners += np.flatnonzero(win).tolist()
            offsets.append(len(winners))
            st = dgtc_round(st)
        else:
            st = dgpc_round(st)
        metrics.append(consensus_metric(st.profile))
        potentials.append(potential(inst, st.profile))
    return dict(metrics=metrics, potentials=potentials, final_profile=st.profile,
                iterations_used=st.t, converged=metrics[-1] <= threshold,
                fixed_point=fixed_point, max_metrics=max_metrics, winners=winners,
                winner_offsets=offsets)


def assert_same_as_single_rounds(state, algo, max_iters, threshold):
    trace = run(state, algo, max_iters, threshold)
    assert_same_trace(trace, single_round_trace(state, algo, max_iters, threshold), algo)
    return trace


def assert_same_trace(trace, ref, algo):
    # every field of a run's trace against single_round_trace's, bit for bit
    assert trace.metrics.tobytes() == array("d", ref["metrics"]).tobytes()
    assert trace.potentials.tobytes() == array("d", ref["potentials"]).tobytes()
    assert trace.final_profile.tobytes() == ref["final_profile"].tobytes()
    for key in ("iterations_used", "converged", "fixed_point"):
        assert getattr(trace, key) == ref[key], key
    if algo == "dgtc":
        assert trace.max_metrics.tobytes() == array("d", ref["max_metrics"]).tobytes()
        assert trace.winners.tolist() == ref["winners"]
        assert trace.winner_offsets.tolist() == ref["winner_offsets"]


def record_thresholds(metrics, k):
    # thresholds at which run stops at a block end and strictly inside a
    # block, from round 2k on: a metric below every earlier one stops there
    lows = [t for t in range(1, len(metrics)) if metrics[t] < min(metrics[:t])]
    end = next(t for t in lows if t >= 2 * k and t % k == 0)
    middle = next(t for t in lows if t >= 2 * k and t % k not in (0, 1))
    return {end: metrics[end], middle: metrics[middle]}


def test_run_equals_single_rounds_bit_for_bit(monkeypatch):
    loc = make_localization_instance(30, 2, 0.4, 0.01, seed=5)
    balls = loc.game_instance
    rng = np.random.default_rng(11)
    mixed, _ = rand_feasible_instance(rng, n_max=12, q_max=3)
    while {type(s) for s in mixed.sets} != {Ball, Box, Halfspace}:
        mixed, _ = rand_feasible_instance(rng, n_max=12, q_max=3)
    complete = Graph.from_edges(200, [(i, k) for i in range(200) for k in range(i + 1, 200)])
    wide = GameInstance(complete, tuple(Ball((0.01 * i,), 1.0) for i in range(200)), 1)
    assert engine._block_length(balls) > 1 and engine._block_length(mixed) > 1
    # a natural K = 1 needs N * q > 2^14, so the helper sets it; one round
    # of the complete graph's edge differences fills more than half the
    # gather budget, so its potentials are gathered one round at a time
    assert engine._block_length(wide) == 64
    assert game._GATHER_ELEMENTS // (wide.graph.edge_count * wide.q) == 1
    starts = (initialize(balls, loc.layout), rand_feasible_profile(mixed, rng),
              np.array([[0.01 * i + 0.9 * math.sin(i)] for i in range(200)]))
    for inst, start in zip((balls, mixed, wide), starts):
        state = EngineState(inst, start, step_size=default_step_size(inst))
        for algo in ("dgtc", "dgpc"):
            # the natural block length: caps at 7 and 40 rounds
            for cap in (7, 40):
                assert_same_as_single_rounds(state, algo, cap, 0.0)
            if inst is wide:
                # and blocks of one
                set_block_length(monkeypatch, inst, 1)
                for cap in (7, 40):
                    assert_same_as_single_rounds(state, algo, cap, 0.0)
                monkeypatch.undo()
                continue
            k = 4
            set_block_length(monkeypatch, inst, k)
            # the cap at a block end, one round past it and one round before
            for cap in (3 * k, 3 * k + 1, 3 * k - 1):
                assert assert_same_as_single_rounds(state, algo, cap, 0.0).iterations_used == cap
            # threshold stops at a block end and in the middle of a block
            metrics = run(state, algo, 60, 0.0).metrics
            for stop, threshold in record_thresholds(metrics, k).items():
                trace = assert_same_as_single_rounds(state, algo, 60, threshold)
                assert trace.iterations_used == stop and trace.converged
            monkeypatch.undo()


def settling_path_state():
    # balls on a path that cannot all meet: the best responses settle on a
    # literal fixed point after a few rounds
    path = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    centers = [2.0 * (-1) ** i + 0.1 * i for i in range(6)]
    inst = GameInstance(path, tuple(Ball((c,), 0.5) for c in centers), 1)
    # every node starts on the far side of its ball
    return EngineState(inst, np.array([[c + 0.5 * (-1) ** i] for i, c in enumerate(centers)]))


def test_run_equals_single_rounds_at_a_fixed_point(monkeypatch):
    # run must find the fixed point in any position of its block
    state = settling_path_state()
    inst = state.instance
    rounds = run(state, "dgtc", 100, 0.0).iterations_used
    assert rounds >= 3
    for k in (1, 2, rounds - 1, rounds, rounds + 1, 64):
        set_block_length(monkeypatch, inst, k)
        trace = assert_same_as_single_rounds(state, "dgtc", 100, 0.0)
        assert trace.fixed_point and trace.iterations_used == rounds
        monkeypatch.undo()


def trace_fields(trace):
    # every field of a trace, columns as bytes
    columns = [trace.metrics, trace.potentials, trace.final_profile]
    if trace.winners is not None:
        columns += [trace.max_metrics, trace.winners, trace.winner_offsets]
    return [c.tobytes() for c in columns] + [trace.iterations_used, trace.converged,
                                             trace.fixed_point]


def test_block_length_moves_no_trace_byte_at_n100(monkeypatch):
    # the benchmark's deep-n100 instance (N = 100, 1078 edges), 300 rounds
    # checked in blocks of 1, 7, 15 (one gather chunk) and the natural
    # length, 64 rounds in chunks of 15
    loc = make_localization_instance(100, 2, 0.3, 0.01, seed=1)
    inst = loc.game_instance
    start = initial_state(inst, loc.layout)
    natural = engine._block_length(inst)
    assert natural == 64
    for algo, state in (("dgtc", start), ("dgpc", replace(start, step_size=default_step_size(inst)))):
        fields = []
        for k in (1, 7, 15, natural):
            set_block_length(monkeypatch, inst, k)
            trace = run(state, algo, 300, 0.0)
            monkeypatch.undo()
            assert trace.iterations_used == 300
            fields.append(trace_fields(trace))
        assert all(f == fields[0] for f in fields[1:])


def test_consensus_metric_of_a_stack_matches_each_profile(rng):
    # a (K, N, q) stack gives each profile the bits of its own 2-D call
    for _ in range(60):
        k, n, q = int(rng.integers(1, 51)), int(rng.integers(2, 140)), int(rng.integers(1, 5))
        stack = rng.normal(size=(k, n, q)) * 10.0 ** rng.uniform(-9, 3) + rng.normal(size=q)
        metrics = consensus_metric(stack)
        assert metrics.shape == (k,)
        assert metrics.tobytes() == array("d", [consensus_metric(p) for p in stack]).tobytes()
    assert type(consensus_metric(stack[0])) is float


def counting(fn, calls):
    # fn, counting its calls in calls[0]
    def wrapped(*args):
        calls[0] += 1
        return fn(*args)
    return wrapped


def test_a_fixed_point_after_the_stop_is_not_reported(monkeypatch):
    # one block holds a threshold stop and the later round that finds the
    # fixed point: the run stops converged, as a round-by-round loop does
    state = settling_path_state()
    metrics = run(state, "dgtc", 100, 0.0).metrics
    rounds = len(metrics) - 1
    stop = max(t for t in range(1, rounds + 1) if metrics[t] < min(metrics[:t]))
    set_block_length(monkeypatch, state.instance, rounds + 1)
    calls = [0]
    monkeypatch.setattr(engine, "_dgtc_kernel", counting(engine._dgtc_kernel, calls))
    trace = run(state, "dgtc", 100, metrics[stop])
    assert calls[0] == rounds + 1  # the fixed point was found, past the stop
    assert trace.converged and not trace.fixed_point and trace.iterations_used == stop
    assert_same_trace(trace, single_round_trace(state, "dgtc", 100, metrics[stop]), "dgtc")


@pytest.mark.parametrize("algo", ["dgtc", "dgpc"])
def test_kernel_calls_stay_within_a_block_of_the_stop(monkeypatch, algo):
    # rounds past the stop run only to the end of their block, and never
    # past the cap
    loc = make_localization_instance(30, 2, 0.4, 0.01, seed=5)
    inst = loc.game_instance
    state = initial_state(inst, loc.layout, step_size=default_step_size(inst))
    metrics = run(state, algo, 60, 0.0).metrics
    name = f"_{algo}_kernel"
    calls = [0]
    monkeypatch.setattr(engine, name, counting(getattr(engine, name), calls))
    for k in (engine._block_length(inst), 4):
        set_block_length(monkeypatch, inst, k)
        for max_iters in (1, 3, 4, 13, 60):
            for threshold in [0.0] + list(metrics[1:20]):
                calls[0] = 0
                trace = run(state, algo, max_iters, threshold)
                assert trace.iterations_used <= calls[0] <= trace.iterations_used + k
                assert calls[0] <= max_iters


def test_kernel_calls_stay_within_a_block_of_a_fixed_point(monkeypatch):
    # the run goes on past the round that finds the fixed point only to the
    # end of its block, and never past the cap
    state = settling_path_state()
    inst = state.instance
    rounds = run(state, "dgtc", 100, 0.0).iterations_used
    calls = [0]
    monkeypatch.setattr(engine, "_dgtc_kernel", counting(engine._dgtc_kernel, calls))
    for k in (1, 2, rounds - 1, rounds, rounds + 1, 64):
        set_block_length(monkeypatch, inst, k)
        for max_iters in (1, rounds, rounds + 1, rounds + 2, 100):
            calls[0] = 0
            trace = run(state, "dgtc", max_iters, 0.0)
            assert trace.fixed_point == (max_iters > rounds)
            assert trace.iterations_used <= calls[0] <= trace.iterations_used + k
            assert calls[0] <= max_iters


def test_run_leaves_no_alias_into_its_buffer(monkeypatch):
    # threshold (also at the start), fixed-point and cap stops: the final
    # profile owns its data, and the state's profile is left as it was
    loc = make_localization_instance(30, 2, 0.4, 0.01, seed=5)
    inst = loc.game_instance
    located = initial_state(inst, loc.layout, step_size=default_step_size(inst))
    metrics = run(located, "dgpc", 60, 0.0).metrics
    settling = settling_path_state()
    stops = [(located, algo, max_iters, threshold) for algo in ("dgtc", "dgpc")
             for max_iters, threshold in ((60, float("inf")), (60, min(metrics[:20])), (13, 0.0))]
    stops.append((settling, "dgtc", 100, 0.0))
    for k in (1, 4):
        for state, algo, max_iters, threshold in stops:
            set_block_length(monkeypatch, state.instance, k)
            start = state.profile.copy()
            trace = run(state, algo, max_iters, threshold)
            final = trace.final_profile
            assert final.flags.owndata and final.base is None
            assert not np.shares_memory(final, state.profile)
            assert state.profile.tobytes() == start.tobytes()
            assert trace.fixed_point == (state is settling)
            monkeypatch.undo()


def test_an_error_after_the_stop_is_dropped_with_its_round(monkeypatch):
    # a threshold stop in the middle of a block at round s: a gradient round
    # that fails in round s + 1 ran past the stop, and the run returns the
    # stopped trace; one that fails in round s, before the stop, raises
    state = fault_state(monkeypatch)
    metrics = run(state, "dgpc", 60, 0.0).metrics
    stop, threshold = next((t, m) for t, m in record_thresholds(metrics, FAULT_K).items()
                           if t % FAULT_K)
    ref = single_round_trace(state, "dgpc", 60, threshold)
    kernel = engine._dgpc_kernel
    failed = []

    def boom(prof):
        failed.append(prof)
        raise RuntimeError("round failed")
    monkeypatch.setattr(engine, "_dgpc_kernel", on_round(kernel, stop + 1, boom))
    trace = run(state, "dgpc", 60, threshold)
    assert len(failed) == 1 and trace.iterations_used == stop and trace.converged
    assert_same_trace(trace, ref, "dgpc")
    monkeypatch.setattr(engine, "_dgpc_kernel", on_round(kernel, stop, boom))
    with pytest.raises(RuntimeError, match="round failed"):
        run(state, "dgpc", 60, threshold)


# the block length and the rounds of the first, a middle and the last round
# of a block at which the fault injection tests place their fault
FAULT_K = 4
FAULT_ROUNDS = (FAULT_K + 1, FAULT_K + 2, 2 * FAULT_K)


def fault_state(monkeypatch):
    loc = make_localization_instance(30, 2, 0.4, 0.01, seed=5)
    inst = loc.game_instance
    set_block_length(monkeypatch, inst, FAULT_K)
    return initial_state(inst, loc.layout, step_size=default_step_size(inst))


def on_round(fn, bad_round, fault, first=1):
    # fn, whose calls count rounds from ``first``, with ``fault`` applied to
    # its result in round ``bad_round``
    calls = [first - 1]

    def wrapped(*args):
        calls[0] += 1
        out = fn(*args)
        return fault(out) if calls[0] == bad_round else out
    return wrapped


def move_far(node, by):
    def fault(prof):
        prof = prof.copy()
        prof[node] += by
        return prof
    return fault


@pytest.mark.parametrize("bad_round", FAULT_ROUNDS)
def test_adjacent_winners_fail_in_their_round(monkeypatch, bad_round):
    state = fault_state(monkeypatch)
    i, k = state.instance.edge_pairs

    def clash(win):
        win = win.copy()
        win[[i[0], k[0]]] = True
        return win
    monkeypatch.setattr(engine, "_select_winners", on_round(engine._select_winners, bad_round, clash))
    with pytest.raises(InvariantError, match=rf"^adjacent winners in round {bad_round} update: \[") as err:
        run(state, "dgtc", 40, 0.0)
    ids = json.loads(str(err.value).split(": ", 1)[1])
    assert i[0] in ids and k[0] in ids


@pytest.mark.parametrize("k, clash_round", [(64, 1), (64, 64), (13, 23), (1, 5)])
def test_packed_independence_check_finds_the_clashing_round(monkeypatch, k, clash_round):
    # a clash in round 1, in the last round of a 64-round block (bit 63),
    # inside a block of 13, not a multiple of 8, and in blocks of one; an
    # infeasible strategy in the next round and a potential decrease in the
    # one after come later
    state = fault_state(monkeypatch)
    set_block_length(monkeypatch, state.instance, k)
    i, k_end = state.instance.edge_pairs
    proj = state.instance.projector
    start = state.profile

    def clash(win):
        win = win.copy()
        win[[i[0], k_end[0]]] = True
        return win
    monkeypatch.setattr(engine, "_select_winners", on_round(engine._select_winners, clash_round, clash))
    monkeypatch.setattr(proj, "project", on_round(proj.project, clash_round + 1, move_far(3, 10.0)))
    monkeypatch.setattr(engine, "_dgtc_kernel", on_round(
        engine._dgtc_kernel, clash_round + 2, lambda out: (start.copy(),) + out[1:]))
    with pytest.raises(InvariantError, match=rf"^adjacent winners in round {clash_round} update: \[") as err:
        run(state, "dgtc", 200, 0.0)
    ids = json.loads(str(err.value).split(": ", 1)[1])
    assert i[0] in ids and k_end[0] in ids


def test_the_round_that_finds_a_fixed_point_is_checked(monkeypatch):
    # the round that finds the fixed point is not kept, but a clash among
    # its winners still fails, wherever it falls in a block
    state = settling_path_state()
    inst = state.instance
    rounds = run(state, "dgtc", 100, 0.0).iterations_used
    i, k = inst.edge_pairs

    def clash(win):
        win = win.copy()
        win[[i[0], k[0]]] = True
        return win
    for block in (1, 2, rounds, 64):
        set_block_length(monkeypatch, inst, block)
        monkeypatch.setattr(engine, "_select_winners", on_round(engine._select_winners, rounds + 1, clash))
        with pytest.raises(InvariantError, match=rf"^adjacent winners in round {rounds + 1} update: "):
            run(state, "dgtc", 100, 0.0)
        monkeypatch.undo()


@pytest.mark.parametrize("algo", ["dgtc", "dgpc"])
@pytest.mark.parametrize("bad_round", FAULT_ROUNDS)
def test_infeasible_strategies_fail_in_their_round(monkeypatch, algo, bad_round):
    # dgpc projects once per round; on dgtc the pushed best response has the
    # largest metric of its neighborhood, so its node wins and moves out
    state = fault_state(monkeypatch)
    proj = state.instance.projector
    monkeypatch.setattr(proj, "project", on_round(proj.project, bad_round, move_far(3, 10.0)))
    with pytest.raises(InvariantError,
                       match=rf"^strategy of node 3 left its set after round {bad_round}: distance "):
        run(state, algo, 40, 0.0)


@pytest.mark.parametrize("bad_round", FAULT_ROUNDS)
def test_potential_decrease_fails_in_its_round(monkeypatch, bad_round):
    # round bad_round returns to the starting profile: feasible, with the
    # kernel's own (independent) winners, but a lower potential
    state = fault_state(monkeypatch)
    clean = run(state, "dgtc", 40, 0.0)
    start = state.profile
    monkeypatch.setattr(engine, "_dgtc_kernel", on_round(
        engine._dgtc_kernel, bad_round, lambda out: (start.copy(),) + out[1:]))
    with pytest.raises(InvariantError) as err:
        run(state, "dgtc", 40, 0.0)
    before, after = clean.potentials[bad_round - 1], potential(state.instance, start)
    assert str(err.value) == f"potential decreased in round {bad_round}: {before!r} -> {after!r}"


@pytest.mark.parametrize("algo, fault, bad_round", [
    ("dgtc", "decrease", 20), ("dgtc", "clash", 64), ("dgtc", "far", 40), ("dgpc", "far", 40)])
def test_a_64_round_block_reports_faults_as_single_rounds(monkeypatch, algo, fault, bad_round):
    # the deep-n100 instance checks 64 rounds per block and gathers their
    # potentials 15 rounds at a time: a potential decrease in the second
    # gather chunk, a winner clash at bit 63 and an infeasible strategy are
    # reported with the round and message of a loop of single rounds
    loc = make_localization_instance(100, 2, 0.3, 0.01, seed=1)
    inst = loc.game_instance
    assert engine._block_length(inst) == 64
    assert game._GATHER_ELEMENTS // (inst.graph.edge_count * inst.q) == 15
    state = initial_state(inst, loc.layout, step_size=default_step_size(inst))
    start, proj = state.profile, inst.projector
    i, k = inst.edge_pairs

    def clash(win):
        win = win.copy()
        win[[i[0], k[0]]] = True
        return win

    def plant():
        if fault == "decrease":
            monkeypatch.setattr(engine, "_dgtc_kernel", on_round(
                engine._dgtc_kernel, bad_round, lambda out: (start.copy(),) + out[1:]))
        elif fault == "clash":
            monkeypatch.setattr(engine, "_select_winners",
                                on_round(engine._select_winners, bad_round, clash))
        else:
            monkeypatch.setattr(proj, "project", on_round(proj.project, bad_round, move_far(3, 10.0)))

    plant()
    with pytest.raises(InvariantError) as blocked:
        run(state, algo, 200, 0.0)
    monkeypatch.undo()
    plant()
    single = dgtc_round if algo == "dgtc" else dgpc_round
    with pytest.raises(InvariantError) as stepped:
        st = state
        for _ in range(bad_round):
            st = single(st)
    assert str(blocked.value) == str(stepped.value)
    assert re.search(rf"round {bad_round}\b", str(blocked.value))


@pytest.mark.parametrize("clash_round, far_round", [(6, 7), (7, 6), (6, 6)])
def test_first_failing_round_of_a_block_is_reported(monkeypatch, clash_round, far_round):
    # two faults in rounds 5-8, one block: the earlier round is reported,
    # and within one round independence is checked before feasibility
    state = fault_state(monkeypatch)
    i, k = state.instance.edge_pairs
    proj = state.instance.projector

    def clash(win):
        win = win.copy()
        win[[i[0], k[0]]] = True
        return win
    monkeypatch.setattr(engine, "_select_winners", on_round(engine._select_winners, clash_round, clash))
    monkeypatch.setattr(proj, "project", on_round(proj.project, far_round, move_far(3, 10.0)))
    if clash_round <= far_round:
        expected = f"^adjacent winners in round {clash_round} update"
    else:
        expected = f"^strategy of node 3 left its set after round {far_round}"
    with pytest.raises(InvariantError, match=expected):
        run(state, "dgtc", 40, 0.0)


def test_pending_failure_is_reported_before_a_later_error(monkeypatch):
    state = fault_state(monkeypatch)
    proj = state.instance.projector
    bad_round = FAULT_K + 1  # the first round of a block, so its check waits
    # a strategy sent to 1e308 leaves its set, and the next gradient step
    # overflows inside the kernel
    monkeypatch.setattr(proj, "project", on_round(proj.project, bad_round, move_far(3, 1e308)))
    with np.errstate(over="ignore"), pytest.raises(InvariantError) as err:
        run(state, "dgpc", 40, 0.0)
    assert str(err.value).startswith(f"strategy of node 3 left its set after round {bad_round}")
    assert str(err.value.__context__) == (f"gradient step with step size {state.step_size!r} "
                                          f"overflowed in round {bad_round + 1}")
    monkeypatch.undo()

    # any other exception leaving the loop: here a gradient-projection
    # round that fails two rounds later, still in the same block
    state = fault_state(monkeypatch)
    proj = state.instance.projector
    kernel = engine._dgpc_kernel

    def boom(value):
        raise RuntimeError("metric failed")
    monkeypatch.setattr(engine, "_dgpc_kernel", on_round(kernel, bad_round + 2, boom))
    with pytest.raises(RuntimeError, match="metric failed"):
        run(state, "dgpc", 40, 0.0)  # nothing pending: the error itself
    monkeypatch.setattr(engine, "_dgpc_kernel", on_round(kernel, bad_round + 2, boom))
    monkeypatch.setattr(proj, "project", on_round(proj.project, bad_round, move_far(3, 10.0)))
    with pytest.raises(InvariantError, match=f"left its set after round {bad_round}") as err:
        run(state, "dgpc", 40, 0.0)
    assert str(err.value.__context__) == "metric failed"


def half_space_chain(monkeypatch, faults):
    # five nodes on a path, each with the half-line x <= 0, checked four
    # rounds at a time; ``faults`` maps a round to a fault on its projection
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    inst = GameInstance(g, tuple(Halfspace((1.0,), 0.0) for _ in range(5)), 1)
    set_block_length(monkeypatch, inst, 4)
    proj = inst.projector
    for bad_round, fault in faults.items():
        monkeypatch.setattr(proj, "project", on_round(proj.project, bad_round, fault))
    return EngineState(inst, np.array([[-1.0], [-3.0], [-8.0], [0.0], [-2.0]]), step_size=0.1)


def leave_domain(prof):
    return prof - 2.0 ** 481


@pytest.mark.parametrize("algo", ["dgtc", "dgpc"])
def test_a_round_outside_the_magnitude_domain_ends_its_block(monkeypatch, algo):
    # round 3 sends its movers past 2**480, still inside their half-spaces:
    # that profile has no metric, so its check fails, from run and from a
    # single round alike, unless the run stops by round 2, before it
    def state(far):
        return half_space_chain(monkeypatch, {3: leave_domain} if far else {})
    clean = run(state(False), algo, 10, 0.0)
    assert clean.iterations_used == 10
    escaped = r"^profile left the magnitude domain after round 3$"
    with pytest.raises(InvariantError, match=escaped):
        run(state(True), algo, 10, 0.0)
    single = dgtc_round if algo == "dgtc" else dgpc_round
    st = state(True)
    with pytest.raises(InvariantError, match=escaped):
        for _ in range(3):
            st = single(st)
    assert st.t == 2
    threshold = min(clean.metrics[1:3])
    stopped, want = (run(state(far), algo, 10, threshold) for far in (True, False))
    assert stopped.iterations_used == want.iterations_used <= 2 and stopped.converged
    assert stopped.metrics.tobytes() == want.metrics.tobytes()


def test_a_decrease_before_a_domain_escape_is_reported(monkeypatch):
    # round 2 moves node 0 to -100, feasible but lowering the potential, and
    # round 3 leaves the magnitude domain: the earlier round's failure wins,
    # within one block and round by round
    def state():
        def to_minus_100(prof):
            prof = prof.copy()
            prof[0] = -100.0
            return prof
        return half_space_chain(monkeypatch, {2: to_minus_100, 3: leave_domain})
    message = r"^potential decreased in round 2: -8\.5 -> -9413\.5$"
    with pytest.raises(InvariantError, match=message):
        run(state(), "dgtc", 10, 0.0)
    st = state()
    with pytest.raises(InvariantError, match=message):
        for _ in range(3):
            st = dgtc_round(st)


def test_trace_records_view_indexing(rng):
    inst, _ = rand_feasible_instance(rng)
    trace = run(initial_state(inst), "dgtc", max_iters=6, threshold=0.0)
    records = trace.records
    ref = list(records)
    n = len(records)
    assert n == trace.iterations_used + 1 >= 3
    for i in range(-n, n):
        assert records[i] == ref[i]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            records[bad]
    tail = records[1:]
    assert not isinstance(tail, list)  # a view, not a copy
    assert len(tail) == n - 1 and tail[0] == ref[1] and tail[-1] == ref[-1]
    assert list(tail) == ref[1:]
    assert list(tail[1:]) == ref[2:]
    assert list(records[::-2]) == ref[::-2]
    assert list(records[n:]) == []
    assert [(a.t, b.t) for a, b in zip(records, records[1:])] == [(t, t + 1) for t in range(n - 1)]


def test_trace_retains_a_few_bytes_per_round():
    # a finished trace keeps typed columns: 8 bytes per value, plus array
    # over-allocation; a per-round record object would cost ~240 bytes
    inst = make_localization_instance(50, 2, 0.25, 0.01, seed=4).game_instance
    step = default_step_size(inst)
    for algo, columns in (("dgtc", 4), ("dgpc", 2)):
        state = initial_state(inst, step_size=step)
        run(state, algo, max_iters=2, threshold=0.0)  # builds the instance's cached arrays
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run(state, algo, max_iters=3000, threshold=0.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rounds = trace.iterations_used
        assert rounds >= 1000
        winner_ids = sum(len(r.updated) for r in trace.records[1:]) if algo == "dgtc" else 0
        budget = 1.25 * 8 * (columns * rounds + winner_ids) + 4096
        assert retained <= budget, (algo, rounds, retained / rounds)
