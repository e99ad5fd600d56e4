import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from constrained_consensus.engine import (
    EngineState,
    InvariantError,
    StepSizeWarning,
    consensus_metric,
    dgpc_round,
    dgtc_round,
    initialize,
    pocs_run,
    run,
)
from constrained_consensus.game import GameInstance, max_set_distance, potential
from constrained_consensus.graphs import Graph
from constrained_consensus.sets import (
    Ball,
    BallStack,
    Box,
    DimensionError,
    Halfspace,
    RowProjector,
    _LIMIT,
    as_point,
)


def test_ball_interior_point_is_unchanged():
    b = Ball((0.0, 0.0), 1.0)
    x = np.array([0.3, 0.4])
    assert np.array_equal(b.project(x), x)


def test_ball_radial_projection():
    b = Ball((0.0, 0.0), 1.0)
    assert b.project((3.0, 4.0)) == pytest.approx([0.6, 0.8], abs=1e-12)


def test_box_clamps_per_coordinate():
    b = Box((0.0, 0.0), (1.0, 1.0))
    assert b.project((2.0, -1.0)) == pytest.approx([1.0, 0.0], abs=0)


def test_halfspace_projection():
    h = Halfspace((1.0, 0.0), 0.0)
    assert h.project((2.0, 5.0)) == pytest.approx([0.0, 5.0], abs=1e-12)


def test_halfspace_rejects_a_normal_whose_squared_norm_leaves_the_float_range():
    # the projection divides by the squared norm: an overflowing one gave
    # NaN coordinates and a subnormal one a point that is not the nearest
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # an overflowing squared norm needs a normal beyond the magnitude domain
        for scale in (1e155, 1e200):
            with pytest.raises(ValueError, match="^point coordinates " + OUT_OF_DOMAIN):
                Halfspace((scale, 0.0), 0.0)
        for scale in (1e-160, 1e-200):
            with pytest.raises(ValueError, match=rf"^half-space normal {re.escape(str([scale, 0.0]))} "
                                                 rf".* squared norm .* its norm reads \S+$"):
                Halfspace((scale, 0.0), 0.0)
        # the range's ends keep their squared norms and projections
        for scale, moved in ((3e144, -1.2325951644078307e-32), (1e-150, 0.0)):
            h = Halfspace((scale, 0.0), 0.0)
            assert h._norm_sq == scale * scale
            assert h.project((1.0, -3.0)).tolist() == [moved, -3.0]
    # the hyperplane must lie within _LIMIT of the origin
    with pytest.raises(ValueError, match=r"^half-space offset 1e\+143 must be at most 2\*\*480 times "
                                         r"the normal's norm 0\.001 in magnitude$"):
        Halfspace((1e-3, 0.0), 1e143)
    assert Halfspace((1e-3, 0.0), 3e141).offset == 3e141


def test_halfspace_projection_with_a_subnormal_offset_stays_finite():
    # the first projection lands on normal @ y = 0 > -5e-324, an excess
    # below the dot's rounding; steps of that size never moved y, and their
    # doubling ran to inf
    h = Halfspace((1.0, 1.0), -5e-324)
    once = h.project((0.0, 5.0))
    assert np.isfinite(once).all() and float(h.normal @ once) - h.offset <= 0.0
    assert np.abs(once - (-2.5, 2.5)).max() <= 1e-15
    assert h.project(once).tobytes() == once.tobytes()


def test_halfspace_projection_lands_inside_by_its_own_test():
    # the plain formula gives normal @ P(x) - offset = 3.6e-15 here, so a
    # second projection moved the point by 1.8e-12
    h = Halfspace((0.0025, 0.0), -17.0)
    once = h.project((0.5, 0.0))
    assert float(h.normal @ once) - h.offset <= 0.0
    assert h.project(once).tobytes() == once.tobytes()
    assert abs(once[0] + 6800.0) <= 1e-11 and once[1] == 0.0
    # about one in seven such projections was left outside by rounding
    rng = np.random.default_rng(3)
    for _ in range(500):
        q = int(rng.integers(1, 5))
        normal = rng.normal(size=q) * 10.0 ** rng.uniform(-4, 1)
        normal[rng.integers(q)] *= rng.integers(2)  # some normals have a zero entry
        if not normal.any():
            normal[0] = 1.0
        h = Halfspace(normal, rng.uniform(-50, 50))
        x = rng.uniform(-50, 50, q)
        once = h.project(x)
        assert h.project(once).tobytes() == once.tobytes()
        if float(normal @ x) - h.offset > 0.0:
            exact = x - (float(normal @ x) - h.offset) / float(normal @ normal) * normal
            assert np.max(np.abs(once - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))
        else:
            assert once.tobytes() == x.tobytes()


def test_contains_examples():
    b = Ball((0.0, 0.0), 1.0)
    assert b.contains((0.0, 0.0), tol=0.0)
    assert b.contains((1.0 + 1e-9, 0.0), tol=1e-8)
    assert not Box((0.0, 0.0), (1.0, 1.0)).contains((2.0, 0.0), tol=0.5)


def test_distance_examples():
    assert Ball((0.0, 0.0), 1.0).distance_to((3.0, 4.0)) == pytest.approx(4.0, abs=1e-12)
    assert Box((0.0, 0.0), (1.0, 1.0)).distance_to((0.5, 0.5)) == 0.0
    assert Halfspace((1.0, 0.0), 0.0).distance_to((2.0, 7.0)) == pytest.approx(2.0, abs=1e-12)


def test_degenerate_radius_zero_ball():
    b = Ball((2.0, -1.0), 0.0)
    assert b.project((5.0, 5.0)) == pytest.approx([2.0, -1.0], abs=0)
    assert b.contains((2.0, -1.0), tol=0.0)


def test_dimension_mismatch_raises():
    b = Ball((0.0, 0.0), 1.0)
    with pytest.raises(DimensionError):
        b.project((1.0, 2.0, 3.0))
    with pytest.raises(DimensionError):
        b.distance_to((1.0,))
    with pytest.raises(DimensionError):
        b.contains((1.0,), tol=0.1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Ball((0.0,), -0.5)
    with pytest.raises(ValueError):
        Halfspace((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        Box((1.0,), (0.0,))
    with pytest.raises(ValueError):
        as_point((np.nan, 0.0))
    with pytest.raises(ValueError):
        as_point((np.inf,))


def test_row_projector_matches_scalar(rng):
    cs = [Ball(rng.uniform(-1, 1, 3), rng.uniform(0.1, 1.0)) for _ in range(6)]
    proj = RowProjector(cs)
    x = rng.uniform(-3, 3, (6, 3))
    batch = proj.project(x)
    for i, s in enumerate(cs):
        assert np.array_equal(batch[i], s.project(x[i]))
    assert proj.distances(x) == pytest.approx([s.distance_to(xi) for s, xi in zip(cs, x)], abs=1e-14)


def test_row_projector_mixed_sets_fallback(rng):
    cs = [Ball((0.0, 0.0), 1.0), Box((0.0, 0.0), (1.0, 1.0)), Halfspace((1.0, 0.0), 0.0)]
    proj = RowProjector(cs)
    x = rng.uniform(-2, 2, (3, 2))
    batch = proj.project(x)
    for i, s in enumerate(cs):
        assert np.array_equal(batch[i], s.project(x[i]))


def test_row_projector_row_at_a_large_ball_center_is_quiet():
    # a row exactly at the center of a ball whose radius / tiny overflows is
    # kept as is, with no divide by zero and no 0 * inf
    proj = RowProjector([Ball((0.0, 0.0), 5.0), Ball((1.0, 1.0), 0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = proj.project([[0.0, 0.0], [3.0, 3.0]])
    assert out[0].tolist() == [0.0, 0.0]
    assert out[1].tolist() == (np.array([1.0, 1.0]) + np.array([2.0, 2.0]) * (0.5 / math.sqrt(8.0))).tolist()


# the magnitude domain's message: every entry point raises it
OUT_OF_DOMAIN = r"must be finite and at most 2\*\*480 \(about 3\.1e144\) in magnitude$"


def _two_balls():
    g = Graph.from_edges(2, [(0, 1)])
    return GameInstance(g, (Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0)), 2)


def test_row_projector_overflowing_rows_land_on_their_ball():
    # rows whose squares overflow (1e200, 1e300, -1.5e308) lie outside the
    # magnitude domain: a profile holding one is rejected where it enters,
    # and a gradient step that reaches one fails its round
    inst = _two_balls()
    for huge in (1e200, 1e300, -1.5e308):
        with pytest.raises(ValueError, match="^profile entries " + OUT_OF_DOMAIN):
            dgpc_round(EngineState(inst, np.array([[huge, 0.0], [0.5, 0.0]]), step_size=0.1))
    start = EngineState(inst, np.array([[0.0, 0.0], [0.5, 0.0]]), step_size=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepSizeWarning)
        with pytest.raises(InvariantError,
                           match=r"^gradient step with step size 1e\+300 overflowed in round 1$"):
            dgpc_round(start)


def test_row_projector_distances_of_overflowing_rows():
    # a start at 1e200 is rejected before the feasibility check measures it
    inst = _two_balls()
    prof = np.array([[1e200, 0.0], [0.5, 0.0]])
    for entry in (lambda: dgtc_round(EngineState(inst, prof)), lambda: max_set_distance(inst, prof)):
        with pytest.raises(ValueError, match="^profile entries " + OUT_OF_DOMAIN):
            entry()


def test_ball_projection_of_a_point_whose_square_overflows():
    # a point whose squared distance overflows is rejected on every path,
    # scalar and stacked
    balls = (Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0))
    mixed = GameInstance(Graph.from_edges(2, [(0, 1)]), (Box((-1.0, -1.0), (1.0, 1.0)), balls[1]), 2)
    for entry in (lambda: balls[0].project([1e200, 0.0]),
                  lambda: Ball((0.0, 0.0), 2.0).project([-3e300, 4e300]),
                  lambda: balls[0].distance_to([1e200, 0.0]),
                  lambda: BallStack([balls]).max_distances([[1e200, 0.0]]),
                  lambda: pocs_run(BallStack([balls]), [[1e200, 0.0]], 2),
                  lambda: pocs_run(mixed, [1e200, 0.0], 2)):
        with pytest.raises(ValueError, match=OUT_OF_DOMAIN):
            entry()


def test_ball_projection_of_a_point_whose_difference_from_the_center_overflows():
    # no ball holds a center, radius or point whose difference can overflow
    for entry in (lambda: Ball((1e308, 0.0), 1.0), lambda: Ball((0.0, 0.0), 1.5e308),
                  lambda: Ball((0.0, 0.0), 1.0).project([-1e308, 0.0]),
                  lambda: pocs_run(BallStack([[Ball((0.0, 0.0), 1.0)]]), np.array([[-1e308, 0.0]]), 1)):
        with pytest.raises(ValueError, match=OUT_OF_DOMAIN):
            entry()


def test_row_projector_distances_in_range_past_an_overflowing_difference():
    # a difference of 2e308 needs rows or balls beyond the domain, and
    # both are rejected
    inst = _two_balls()
    for prof in ([[-1e308, 0.0], [0.5, 0.0]], [[0.0, 0.0], [-0.9e308, 0.9e308]]):
        with pytest.raises(ValueError, match="^profile entries " + OUT_OF_DOMAIN):
            max_set_distance(inst, np.array(prof))
    with pytest.raises(ValueError, match="^radius " + OUT_OF_DOMAIN):
        Ball((0.0, 0.0), 1.5e308)


def test_ball_keeps_a_point_inside_whose_squared_distance_overflows():
    # a ball of radius 1.7e308 is out of the domain; a point inside a ball
    # at the domain's edge is kept as is, bit for bit
    with pytest.raises(ValueError, match="^point coordinates " + OUT_OF_DOMAIN):
        Ball((1e308, 0.0), 1.7e308)
    b = Ball((_LIMIT / 2, 0.0), _LIMIT)
    x = np.array([-_LIMIT / 2, 0.0])  # on the boundary, at distance _LIMIT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert b.project(x).tobytes() == x.tobytes()
        assert b.distance_to(x) == 0.0
        assert RowProjector([b, b]).project(np.array([x, x])).tolist() == [x.tolist()] * 2
        assert RowProjector([b]).distances(x[None]).tolist() == [0.0]


def _domain_entries():
    # each entry takes one bad value v into the place it names
    inst = _two_balls()
    good = np.array([[0.0, 0.0], [0.5, 0.0]])
    stack = BallStack([inst.sets, inst.sets])

    def profile(v):
        prof = good.copy()
        prof[1, 0] = v
        return prof

    def points(v):
        x = good.copy()
        x[0, 1] = v
        return x
    return {
        "Ball.center": lambda v: Ball((0.0, v), 1.0),
        "Ball.radius": lambda v: Ball((0.0, 0.0), v),
        "Box.lower": lambda v: Box((v, 0.0), (1.0, 1.0)),
        "Box.upper": lambda v: Box((0.0, 0.0), (1.0, v)),
        "Halfspace.normal": lambda v: Halfspace((1.0, v), 0.0),
        "Halfspace.offset": lambda v: Halfspace((1.0, 0.0), v),
        "ConvexSet.project": lambda v: Box((0.0, 0.0), (1.0, 1.0)).project((0.5, v)),
        "ConvexSet.distance_to": lambda v: Halfspace((1.0, 0.0), 0.0).distance_to((v, 0.5)),
        "initialize.layout": lambda v: initialize(inst, SimpleNamespace(positions=profile(v))),
        "run": lambda v: run(EngineState(inst, profile(v)), "dgtc", 5),
        "dgtc_round": lambda v: dgtc_round(EngineState(inst, profile(v))),
        "dgpc_round": lambda v: dgpc_round(EngineState(inst, profile(v), step_size=0.1)),
        "max_set_distance": lambda v: max_set_distance(inst, profile(v)),
        "pocs_run.instance": lambda v: pocs_run(inst, (v, 0.0), 1),
        "pocs_run.BallStack": lambda v: pocs_run(stack, points(v), 1),
        "BallStack.max_distances": lambda v: stack.max_distances(points(v)),
    }


@pytest.mark.parametrize("value", [_LIMIT * 2, -math.inf, math.nan], ids=["2*limit", "-inf", "nan"])
@pytest.mark.parametrize("entry", list(_domain_entries()))
def test_every_entry_rejects_values_outside_the_magnitude_domain(entry, value):
    with pytest.raises(ValueError, match=OUT_OF_DOMAIN):
        _domain_entries()[entry](value)


def test_values_at_the_domain_edge_stay_finite_and_exact():
    # sets and points at +-_LIMIT: no square overflows, numpy warns of
    # nothing, and every projection and distance matches math.hypot
    L = _LIMIT
    ball = Ball((L, -L), L)
    box = Box((-L, -L), (-L / 2, L))
    half = Halfspace((L, -L), -L)
    x = np.array([-L, L])
    hypot = math.hypot(*(x - ball.center))
    want_p = ball.center + (x - ball.center) * (L / hypot)
    excess = float(half.normal @ -x) - half.offset  # -x lies outside the half-space
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ball.project(x) == pytest.approx(want_p, rel=1e-15)
        assert ball.distance_to(x) == pytest.approx(hypot - L, rel=1e-15)
        assert box.project((L, L)).tolist() == [-L / 2, L]
        assert box.distance_to((L, L)) == 1.5 * L
        assert half.distance_to(-x) == pytest.approx(excess / math.hypot(L, L), rel=1e-15)
        assert half.contains(half.project(-x)) and half.project(x).tobytes() == x.tobytes()
        rows = RowProjector([ball, ball])
        assert rows.project(np.array([x, -x])).tolist() == [ball.project(x).tolist(), (-x).tolist()]
        assert rows.distances(np.array([x, -x])) == pytest.approx([hypot - L, 0.0], rel=1e-15)
        stack = BallStack([[ball, Ball((-L, L), L)]])
        assert stack.max_distances(x[None]) == pytest.approx([hypot - L], rel=1e-15)
        end, disp = pocs_run(stack, x[None], 3)
        assert np.isfinite(end).all() and disp[0] == pytest.approx(math.hypot(*(end[0] - x)), rel=1e-15)
        # the engine's sums of squares over a profile at the edge
        inst = GameInstance(Graph.from_edges(3, [(0, 1), (1, 2)]), (ball, ball, ball), 2)
        prof = np.array([[L, -L], [-L, L], [L, L]])
        assert potential(inst, prof) == -12.0 * L * L
        dev = (prof - prof.mean(axis=0)).ravel()
        assert consensus_metric(prof) == pytest.approx(math.hypot(*dev), rel=1e-15)


def reference_ball_project(b, x):
    # Ball.project with np.linalg.norm, the formula the scalar path replaced
    diff = x - b.center
    d = float(np.linalg.norm(diff))
    return x if d <= b.radius else b.center + diff * (b.radius / d)


def reference_distance(s, x):
    proj = reference_ball_project(s, x) if isinstance(s, Ball) else s.project(x)
    return float(np.linalg.norm(x - proj))


def _balls_around(rng, x, count):
    # balls that hold x inside, on the boundary (radius = the exact distance),
    # outside, and at the center of a radius-0 ball
    q = x.size
    balls = [Ball(x, 0.0)]
    for _ in range(count):
        center = x + rng.uniform(-2, 2, q)
        d = float(np.linalg.norm(x - center))
        for radius in (d, d * rng.uniform(1.0, 2.0), d * rng.uniform(0.0, 1.0), 0.0):
            balls.append(Ball(center, radius))
    return balls


def test_scalar_set_arithmetic_matches_reference_bit_for_bit(rng):
    for q in (1, 2, 3, 4):
        for _ in range(30):
            x = rng.uniform(-3, 3, q)
            for b in _balls_around(rng, x, 5):
                assert np.array_equal(b.project(x), reference_ball_project(b, x))
                assert b.distance_to(x) == reference_distance(b, x)
            for s in (Box(x - rng.uniform(-1, 1, q), x + rng.uniform(1, 2, q)),
                      Halfspace(rng.normal(size=q), rng.uniform(-1, 1))):
                assert s.distance_to(x) == reference_distance(s, x)


def test_ball_stack_max_distances_match_distance_to_bit_for_bit(rng):
    # compared with ==: each member's largest distance must be
    # max(distance_to) to the bit, inside, outside, on the boundary and at
    # the center of a radius-0 ball, with no warning for d = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (1, 2, 3):
            for _ in range(30):
                x = rng.uniform(-3, 3, q)
                balls = _balls_around(rng, x, 8)
                # one ball per member: every case shows on its own
                single = BallStack([b] for b in balls)
                got = single.max_distances(np.tile(x, (len(balls), 1)))
                assert got.tolist() == [b.distance_to(x) for b in balls]
                assert got.tolist() == [reference_distance(b, x) for b in balls]
                # the radius-0 center, boundary and larger-radius balls all hold x
                assert (got == 0.0).sum() >= 1 + 8 * 2
                # members of many balls: the largest distance, node by node
                members = [balls, balls[::-1], balls[5:] + balls[:5]]
                points = np.array([x, x + 0.5, x - 0.25])
                got = BallStack(members).max_distances(points)
                assert got.tolist() == [max(b.distance_to(p) for b in m)
                                        for m, p in zip(members, points)]


def test_ball_stack_layout_and_rejections():
    members = [(Ball((0.0, 1.0), 0.5), Ball((2.0, 3.0), 1.5)),
               (Ball((4.0, 5.0), 2.5), Ball((6.0, 7.0), 3.5)),
               (Ball((8.0, 9.0), 4.5), Ball((1.0, 1.0), 5.5))]
    stack = BallStack(iter(members))
    assert (stack.size, stack.q) == (3, 2)
    # node-major: node j's balls across all members are one contiguous slab
    assert stack.centers.shape == (2, 3, 2) and stack.radii.shape == (2, 3)
    assert stack.centers[1].flags.c_contiguous and stack.radii[1].flags.c_contiguous
    assert stack.centers[1].tolist() == [[2.0, 3.0], [6.0, 7.0], [1.0, 1.0]]
    assert stack.radii[0].tolist() == [0.5, 2.5, 4.5]
    with pytest.raises(ValueError, match="balls only"):
        BallStack([members[0], (Ball((0.0, 0.0), 1.0), Box((0.0, 0.0), (1.0, 1.0)))])
    with pytest.raises(ValueError, match=r"member 1 has \(n, q\) = \(1, 2\)"):
        BallStack([members[0], members[1][:1]])
    with pytest.raises(ValueError, match=r"member 1 has \(n, q\) = \(2, 3\)"):
        BallStack([members[0], (Ball((0.0, 0.0, 0.0), 1.0), Ball((1.0, 0.0, 0.0), 1.0))])
    with pytest.raises(ValueError, match="at least one"):
        BallStack([])


def test_ball_stack_from_arrays_matches_the_ball_built_stack(rng):
    # compared with ==: the array entry stores the same stack, so cycles and
    # distances keep their bits
    for q in (1, 2, 3):
        x = rng.uniform(-3, 3, q)
        balls = _balls_around(rng, x, 6)
        members = [balls, balls[::-1], balls[3:] + balls[:3]]
        arrays = [(np.array([b.center for b in m]), [b.radius for b in m]) for m in members]
        stacks = BallStack(members), BallStack.from_arrays(iter(arrays))
        points = rng.uniform(-3, 3, (3, q))
        for got, want in zip(*((s.centers, s.radii, s._cycle(points), s.max_distances(points))
                               for s in stacks)):
            assert got.tolist() == want.tolist()
        assert pocs_run(stacks[0], points, 3)[1] == pocs_run(stacks[1], points, 3)[1]


def test_ball_stack_from_arrays_rejections():
    centers, radii = np.zeros((2, 2)), np.ones(2)
    with pytest.raises(ValueError, match=r"member 1 has \(n, q\) = \(1, 2\), expected \(2, 2\)"):
        BallStack.from_arrays([(centers, radii), (centers[:1], radii[:1])])
    with pytest.raises(ValueError, match=r"member 1 has \(n, q\) = \(2, 3\)"):
        BallStack.from_arrays([(centers, radii), (np.zeros((2, 3)), radii)])
    with pytest.raises(ValueError, match="at least one member"):
        BallStack.from_arrays([])
    for c, r in ((np.zeros((0, 2)), np.ones(0)), (np.zeros((2, 0)), radii), (np.zeros(2), radii),
                 (centers, np.ones(3)), (centers, 1.0)):
        with pytest.raises(ValueError, match=r"member 0 needs \(n, q\) centers and \(n,\) radii"):
            BallStack.from_arrays([(c, r)])
    for c, r, fault in ((centers + [[0.0, 1e200]], radii, "point coordinates must be finite"),
                        (centers + [[0.0, np.nan]], radii, "point coordinates must be finite"),
                        (centers, [1.0, np.inf], "radius must be finite"),
                        (centers, [1.0, 1e200], "radius must be finite"),
                        (centers, [1.0, -0.5], "radius must be nonnegative, got -0.5")):
        with pytest.raises(ValueError, match=fault):
            BallStack.from_arrays([(centers, radii), (c, r)])
    # the ball-sequence constructor has the same rules, and -0.0 is a radius
    with pytest.raises(ValueError, match=r"member 0 needs \(n, q\) centers"):
        BallStack([()])
    assert BallStack.from_arrays([(centers, [0.0, -0.0])]).radii.tolist() == [[0.0], [-0.0]]


coords = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def set_with_points(draw):
    q = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["ball", "halfspace", "box"]))
    x = np.array(draw(st.lists(coords, min_size=q, max_size=q)))
    y = np.array(draw(st.lists(coords, min_size=q, max_size=q)))
    if kind == "ball":
        center = np.array(draw(st.lists(coords, min_size=q, max_size=q)))
        s = Ball(center, draw(st.floats(min_value=0, max_value=20)))
    elif kind == "halfspace":
        normal = np.array(draw(st.lists(st.floats(-10, 10), min_size=q, max_size=q)))
        if np.linalg.norm(normal) < 1e-3:
            normal = np.ones(q)
        s = Halfspace(normal, draw(st.floats(-50, 50)))
    else:
        lower = np.array(draw(st.lists(coords, min_size=q, max_size=q)))
        width = np.array(draw(st.lists(st.floats(0, 20), min_size=q, max_size=q)))
        s = Box(lower, lower + width)
    return s, x, y


@given(set_with_points())
@example((Halfspace((0.0025, 0.0), -17.0), np.array([0.5, 0.0]), np.array([0.5, 0.0])))
@settings(max_examples=200, deadline=None)
def test_projection_idempotent(swp):
    s, x, _ = swp
    once = s.project(x)
    assert np.max(np.abs(s.project(once) - once)) <= 1e-12


@given(set_with_points())
@settings(max_examples=200, deadline=None)
def test_projection_nonexpansive(swp):
    s, x, y = swp
    lhs = np.linalg.norm(s.project(x) - s.project(y))
    assert lhs <= np.linalg.norm(x - y) + 1e-12


@given(set_with_points())
@settings(max_examples=200, deadline=None)
def test_projection_lands_in_set(swp):
    s, x, _ = swp
    assert s.contains(s.project(x), tol=1e-9)


@given(set_with_points())
@settings(max_examples=200, deadline=None)
def test_projection_variational_inequality(swp):
    # (x - Px) . (y - Px) <= 0 certifies Px is the nearest point
    s, x, y = swp
    px = s.project(x)
    member = s.project(y)
    assert float((x - px) @ (member - px)) <= 1e-9
