import math
import re
import warnings

import numpy as np
import pytest

from conftest import rand_connected_graph, rand_feasible_instance, rand_feasible_profile, rand_set, sample_point
from constrained_consensus import game
from constrained_consensus.game import (
    DegenerateInstanceError,
    DegenerateNodeError,
    GameInstance,
    best_response,
    centroid,
    cost_gradient,
    default_step_size,
    lipschitz_constant,
    max_set_distance,
    max_step_size,
    potential,
    update_metric,
    utility,
    utility_gradient,
)
from constrained_consensus.graphs import Graph
from constrained_consensus.sets import Ball, Box, Halfspace, interval


def pair_instance(q=1, big=10.0):
    g = Graph.from_edges(2, [(0, 1)])
    cs = tuple(Ball(np.zeros(q), big) for _ in range(2))
    return GameInstance(g, cs, q)


def path3_instance(q=1, big=100.0):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    return GameInstance(g, tuple(Ball(np.zeros(q), big) for _ in range(3)), q)


def star_instance():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    return GameInstance(g, tuple(Ball(np.zeros(1), 100.0) for _ in range(4)), 1)


def test_utility_examples():
    inst = pair_instance()
    assert utility(inst, [[0.0], [1.0]], 0) == -1.0
    assert utility(inst, [[0.7], [0.7]], 0) == 0.0
    star = star_instance()
    assert utility(star, [[0.0], [2.0], [2.0], [-2.0]], 0) == -12.0


def test_potential_examples():
    inst = pair_instance()
    assert potential(inst, [[0.0], [1.0]]) == -1.0
    assert potential(inst, [[0.7], [0.7]]) == 0.0
    assert potential(path3_instance(), [[0.0], [1.0], [3.0]]) == -5.0


def test_potential_is_nonpositive(rng):
    for _ in range(50):
        inst, _ = rand_feasible_instance(rng)
        assert potential(inst, rng.uniform(-5, 5, (inst.n, inst.q))) <= 0.0


def test_potential_of_a_stack_in_chunks_matches_each_profile(rng, monkeypatch):
    # stacks of 1, 7, 15 and 64 profiles walked 1, 3 or 15 at a time, the
    # gather budget set to that many profiles' edge differences, the last
    # chunk partial where the rows do not divide the stack: each potential
    # has its own profile's bits
    for _ in range(4):
        inst, _ = rand_feasible_instance(rng, n_max=40)
        edges = inst.graph.edge_count
        for k in (1, 7, 15, 64):
            stack = rng.normal(size=(k, inst.n, inst.q)) * 10.0 ** rng.uniform(-6, 3, (k, 1, 1))
            own = np.array([potential(inst, p) for p in stack])
            assert potential(inst, stack).tobytes() == own.tobytes()
            for rows in (1, 3, 15):
                monkeypatch.setattr(game, "_GATHER_ELEMENTS", rows * edges * inst.q)
                phis = potential(inst, stack)
                assert phis.shape == (k,)
                assert phis.tobytes() == own.tobytes(), (k, rows)
                assert potential(inst, stack[:0]).shape == (0,)
            monkeypatch.undo()


def test_potential_without_edges_is_zero():
    # E = 0: the gather budget divides by no edge count
    inst = GameInstance(Graph(2, ((), ())), (Ball((0.0, 0.0), 1.0), Ball((3.0, 0.0), 1.0)), 2)
    profile = np.array([[0.0, 0.0], [3.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert potential(inst, profile) == 0.0
        phis = potential(inst, np.stack([profile] * 3))
    assert phis.shape == (3,) and np.all(phis == 0.0)


def test_utility_gradient_examples():
    inst = pair_instance()
    assert utility_gradient(inst, [[0.0], [1.0]], 0) == pytest.approx([2.0], abs=0)
    assert utility_gradient(inst, [[0.5], [0.5]], 1) == pytest.approx([0.0], abs=0)
    path = path3_instance()
    assert utility_gradient(path, [[0.0], [1.0], [3.0]], 1) == pytest.approx([2.0], abs=0)


def test_cost_gradient_examples():
    inst = pair_instance()
    assert cost_gradient(inst, [[0.0], [1.0]]) == pytest.approx([-2.0, 2.0], abs=0)
    assert cost_gradient(inst, [[0.3], [0.3]]) == pytest.approx([0.0, 0.0], abs=0)


def test_gradient_blocks_equal_negated_utility_gradient(rng):
    # bit for bit, on small instances and on dense ones, whose nodes have
    # the 8 and more neighbors that numpy sums pairwise at q = 1; node 0 of
    # each dense instance is isolated
    instances = [rand_feasible_instance(rng)[0] for _ in range(30)]
    for n, density in ((40, 0.9), (150, 0.5), (150, 0.05)):
        for q in (1, 2, 3):
            upper = np.triu(rng.random((n, n)) < density, 1)
            upper[0] = False
            g = Graph.from_edges(n, zip(*(ends.tolist() for ends in np.nonzero(upper))))
            common = rng.uniform(-1, 1, q)
            instances.append(GameInstance(g, tuple(rand_set(rng, q, common) for _ in range(n)), q))
    for inst in instances:
        p = rand_feasible_profile(inst, rng)
        blocks = [-utility_gradient(inst, p, n) for n in range(inst.n)]
        assert cost_gradient(inst, p).tobytes() == np.concatenate(blocks).tobytes()
    assert {type(s) for inst in instances for s in inst.sets} == {Ball, Box, Halfspace}


def test_cost_gradient_matches_finite_differences(rng):
    # central differences of J = -potential, step 1e-6
    h = 1e-6
    for _ in range(30):
        inst, _ = rand_feasible_instance(rng)
        p = rand_feasible_profile(inst, rng)
        grad = cost_gradient(inst, p)
        fd = np.empty_like(grad)
        flat = p.ravel()
        for j in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (potential(inst, down.reshape(p.shape))
                     - potential(inst, up.reshape(p.shape))) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_centroid_examples():
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    inst = GameInstance(g, tuple(Ball(np.zeros(2), 50.0) for _ in range(3)), 2)
    p = [[9.0, 9.0], [0.0, 0.0], [2.0, 0.0]]
    assert centroid(inst, p, 0) == pytest.approx([1.0, 0.0], abs=0)
    pair = pair_instance()
    assert centroid(pair, [[5.0], [-3.0]], 0) == pytest.approx([-3.0], abs=0)
    path = path3_instance()
    assert centroid(path, [[0.0], [9.0], [2.0]], 1) == pytest.approx([1.0], abs=0)


def test_best_response_examples():
    g = Graph.from_edges(3, [(1, 0), (1, 2)])
    inst = GameInstance(g, (Ball([0.0], 100.0), Ball([0.0], 10.0), Ball([0.0], 100.0)), 1)
    assert best_response(inst, [[0.0], [5.0], [2.0]], 1) == pytest.approx([1.0], abs=0)

    tight = GameInstance(g, (Ball([0.0], 100.0), Ball([0.0], 1.0), Ball([0.0], 100.0)), 1)
    assert best_response(tight, [[4.0], [0.5], [6.0]], 1) == pytest.approx([1.0], abs=1e-12)

    g2 = Graph.from_edges(4, [(3, 0), (3, 1), (3, 2)])
    box = Box((0.0, 0.0), (0.5, 0.5))
    inst2 = GameInstance(g2, (Ball(np.zeros(2), 9.0),) * 3 + (box,), 2)
    p = [[0.0, 0.0], [2.0, 0.0], [1.0, 3.0], [0.2, 0.2]]
    assert best_response(inst2, p, 3) == pytest.approx([0.5, 0.5], abs=0)


def test_best_response_maximizes_utility(rng):
    worst = -np.inf
    for _ in range(40):
        inst, _ = rand_feasible_instance(rng)
        p = rand_feasible_profile(inst, rng)
        n = int(rng.integers(inst.n))
        p_br = p.copy()
        p_br[n] = best_response(inst, p, n)
        u_br = utility(inst, p_br, n)
        for _ in range(25):
            p_cand = p.copy()
            p_cand[n] = sample_point(inst.sets[n], rng)
            worst = max(worst, utility(inst, p_cand, n) - u_br)
    assert worst <= 1e-9


def test_update_metric_examples():
    pair = pair_instance()
    p = [[0.5], [0.5]]
    assert update_metric(pair, p, 0) == 0.0
    g = Graph.from_edges(2, [(0, 1)])
    inst = GameInstance(g, (interval(-1.0, 0.0), interval(-10.0, 10.0)), 1)
    assert update_metric(inst, [[-2.0], [0.0]], 0) == pytest.approx(4.0, abs=0)
    inst2 = GameInstance(
        g, (Box((0.0, 0.0), (0.5, 0.5)), Ball((1.0, 1.0), 10.0)), 2)
    assert update_metric(inst2, [[0.0, 0.0], [1.0, 1.0]], 0) == pytest.approx(0.5, abs=1e-15)


def test_lipschitz_and_step_examples():
    pair = pair_instance(q=1)
    assert lipschitz_constant(pair) == pytest.approx(4 * math.sqrt(2), rel=1e-12)
    assert max_step_size(pair) == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-12)
    assert default_step_size(pair) == pytest.approx(0.99 / (2 * math.sqrt(2)), rel=1e-12)
    assert default_step_size(pair) == pytest.approx(0.350018, abs=1e-6)

    path = path3_instance(q=2)
    assert lipschitz_constant(path) == pytest.approx(4 * math.sqrt(12), rel=1e-12)
    assert lipschitz_constant(path) == pytest.approx(13.856406, abs=1e-6)
    assert max_step_size(path) == pytest.approx(0.144338, abs=1e-6)
    assert default_step_size(path) == pytest.approx(0.142895, abs=1e-6)


def test_step_size_identities(rng):
    for _ in range(20):
        inst, _ = rand_feasible_instance(rng)
        assert max_step_size(inst) == 2.0 / lipschitz_constant(inst)
        assert default_step_size(inst) < max_step_size(inst)


def test_lipschitz_inequality_sampled(rng):
    # ||grad J(x) - grad J(y)|| <= L ||x - y|| on random pairs
    for _ in range(20):
        inst, _ = rand_feasible_instance(rng)
        lip = lipschitz_constant(inst)
        for _ in range(25):
            x = rng.uniform(-3, 3, (inst.n, inst.q))
            y = rng.uniform(-3, 3, (inst.n, inst.q))
            lhs = np.linalg.norm(cost_gradient(inst, x) - cost_gradient(inst, y))
            assert lhs <= lip * np.linalg.norm(x - y) + 1e-12


def test_exact_potential_single_deviation(rng):
    for _ in range(200):
        inst, _ = rand_feasible_instance(rng)
        p1 = rand_feasible_profile(inst, rng)
        n = int(rng.integers(inst.n))
        p2 = p1.copy()
        p2[n] = sample_point(inst.sets[n], rng)
        dphi = potential(inst, p2) - potential(inst, p1)
        dutil = utility(inst, p2, n) - utility(inst, p1, n)
        assert abs(dphi - dutil) <= 1e-9 * max(1.0, abs(dphi), abs(dutil))


def test_exact_potential_independent_set(rng):
    for _ in range(60):
        inst, _ = rand_feasible_instance(rng)
        p1 = rand_feasible_profile(inst, rng)
        chosen: list[int] = []
        for cand in rng.permutation(inst.n):
            if all(inst.adjacency[cand, c] == 0 for c in chosen):
                chosen.append(int(cand))
        p2 = p1.copy()
        for n in chosen:
            p2[n] = sample_point(inst.sets[n], rng)
        dphi = potential(inst, p2) - potential(inst, p1)
        dutil = sum(utility(inst, p2, n) - utility(inst, p1, n) for n in chosen)
        assert abs(dphi - dutil) <= 1e-9 * max(1.0, abs(dphi), abs(dutil))


def test_potential_concavity(rng):
    for _ in range(100):
        inst, _ = rand_feasible_instance(rng)
        x = rand_feasible_profile(inst, rng)
        y = rand_feasible_profile(inst, rng)
        lam = float(rng.random())
        mix = potential(inst, lam * x + (1 - lam) * y)
        assert mix >= lam * potential(inst, x) + (1 - lam) * potential(inst, y) - 1e-9


def test_error_paths():
    inst = pair_instance()
    with pytest.raises(ValueError):
        utility(inst, [[0.0], [1.0]], 5)
    with pytest.raises(ValueError):
        potential(inst, [[0.0, 1.0]])
    isolated = GameInstance(Graph(2, ((), ())), (Ball([0.0], 1.0), Ball([0.0], 1.0)), 1)
    with pytest.raises(DegenerateNodeError):
        centroid(isolated, [[0.0], [1.0]], 0)
    with pytest.raises(DegenerateNodeError):
        best_response(isolated, [[0.0], [1.0]], 1)
    with pytest.raises(DegenerateInstanceError):
        lipschitz_constant(isolated)
    with pytest.raises(ValueError):
        GameInstance(Graph.from_edges(2, [(0, 1)]), (Ball([0.0], 1.0),), 1)
    with pytest.raises(ValueError):
        GameInstance(Graph.from_edges(2, [(0, 1)]),
                     (Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0)), 1)


def test_from_balls_builds_its_sets_once_on_first_read(rng, monkeypatch):
    # the table is the rounds' projector; the Balls, equal to the table's
    # to the bit, are built at the first read of sets and kept
    built = []
    init = Ball.__post_init__
    monkeypatch.setattr(Ball, "__post_init__", lambda ball: built.append(ball) or init(ball))
    for q in (1, 2, 3):
        n = int(rng.integers(2, 20))
        centers, radii = rng.uniform(-1, 1, (n, q)), rng.uniform(0.0, 0.8, n)
        inst = GameInstance.from_balls(rand_connected_graph(rng, n), centers, radii)
        assert (inst.n, inst.q) == (n, q) and "sets" not in vars(inst)
        prof = rng.uniform(-2, 2, (n, q))
        explicit = GameInstance(inst.graph, tuple(Ball(c, r) for c, r in zip(centers, radii)), q)
        built.clear()
        assert inst.projector.project(prof).tobytes() == explicit.projector.project(prof).tobytes()
        assert built == [] and "sets" not in vars(inst)
        sets = inst.sets
        assert len(built) == n
        assert inst.sets is sets and len(built) == n
        assert all(type(s) is Ball for s in sets)
        assert np.stack([s.center for s in sets]).tobytes() == centers.tobytes()
        assert np.array([s.radius for s in sets]).tobytes() == radii.tobytes()
        # the table is a copy: the caller's arrays may change afterwards
        centers[0] += 5.0
        assert inst.projector.project(prof).tobytes() == explicit.projector.project(prof).tobytes()


def test_from_balls_rejects_a_bad_table():
    g = Graph.from_edges(2, [(0, 1)])
    centers, radii = np.zeros((2, 2)), np.ones(2)
    with pytest.raises(ValueError, match=r"^need one set per node: 3 sets for 2 nodes$"):
        GameInstance.from_balls(g, np.zeros((3, 2)), np.ones(3))
    for c, r in ((centers, np.ones(3)), (np.zeros(2), radii), (np.zeros((2, 0)), radii)):
        with pytest.raises(ValueError, match=r"^ball table needs \(n, q\) centers and \(n,\) radii"):
            GameInstance.from_balls(g, c, r)
    for c, r in ((centers, ["a", "b"]), ((Ball((0.0,), 1.0),) * 2, radii)):
        with pytest.raises(ValueError, match="^ball table must be a pair of numeric arrays"):
            GameInstance.from_balls(g, c, r)
    for c, r, fault in ((centers + [[0.0, 1e200]], radii, "^point coordinates must be finite"),
                        (centers + [[0.0, np.nan]], radii, "^point coordinates must be finite"),
                        (centers, [1.0, np.inf], "^radius must be finite"),
                        (centers, [1.0, -0.5], "^radius must be nonnegative, got -0.5")):
        with pytest.raises(ValueError, match=fault):
            GameInstance.from_balls(g, c, r)
    # the explicit constructor keeps its messages
    with pytest.raises(ValueError, match=r"^need one set per node: 1 sets for 2 nodes$"):
        GameInstance(g, (Ball([0.0], 1.0),), 1)
    with pytest.raises(ValueError, match=r"^set of node 1 has dimension 2, expected 1$"):
        GameInstance(g, (Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0)), 1)


def test_max_set_distance():
    g = Graph.from_edges(2, [(0, 1)])
    inst = GameInstance(g, (interval(0.0, 1.0), interval(0.0, 1.0)), 1)
    assert max_set_distance(inst, [[0.5], [3.0]]) == pytest.approx(2.0, abs=0)
    assert max_set_distance(inst, [[0.5], [0.9]]) == 0.0


def test_one_node_id_rule():
    # a node id is what a neighbor list takes, anything operator.index
    # takes, in [0, n); anything else, a negative id too, is a ValueError
    # naming it, and a bool or numpy integer reads the node it stands for
    inst = path3_instance(q=2, big=4.0)
    p = np.array([[0.0, 1.0], [2.0, 3.0], [5.0, 7.0]])
    calls = {
        "degree": inst.graph.degree,
        "utility": lambda n: utility(inst, p, n),
        "utility_gradient": lambda n: utility_gradient(inst, p, n),
        "centroid": lambda n: centroid(inst, p, n),
        "best_response": lambda n: best_response(inst, p, n),
        "update_metric": lambda n: update_metric(inst, p, n),
    }
    for name, read in calls.items():
        want = read(1)
        for n in (True, np.int64(1)):
            got = read(n)
            assert type(got) is type(want) and np.array_equal(got, want), (name, n)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, n)
        for bad, fault in ((-1, "-1 out of range [0, 3)"), (3, "3 out of range [0, 3)"),
                           (1.5, "1.5 is not an integer"), ("1", "'1' is not an integer")):
            with pytest.raises(ValueError, match=rf"^node id {re.escape(fault)}$"):
                read(bad)
    assert type(inst.graph.degree(np.int64(1))) is int
