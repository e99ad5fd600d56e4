import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from constrained_consensus.engine import EngineState, InvariantError, dgtc_round, pocs_run
from constrained_consensus.game import GameInstance
from constrained_consensus.graphs import Graph
from constrained_consensus.sets import (
    Ball,
    BallStack,
    Box,
    DimensionError,
    Halfspace,
    RowProjector,
    as_point,
)
from constrained_consensus.tolerances import DEFAULT


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
        for scale in (1e155, 1e200, 1e-160, 1e-200):
            with pytest.raises(ValueError, match=rf"^half-space normal {re.escape(str([scale, 0.0]))} "
                                                 rf".* squared norm .* its norm reads \S+$"):
                Halfspace((scale, 0.0), 0.0)
        # the range's ends keep their squared norms and projections
        for scale, moved in ((1e150, -2.220446049250313e-16), (1e-150, 0.0)):
            h = Halfspace((scale, 0.0), 0.0)
            assert h._norm_sq == scale * scale
            assert h.project((1.0, -3.0)).tolist() == [moved, -3.0]


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


def test_row_projector_overflowing_rows_land_on_their_ball(rng):
    # a finite row whose squared norm overflows goes to the boundary point in
    # its own direction, not to the center, and numpy warns of nothing
    for q in (1, 2, 3):
        cs = [Ball(rng.uniform(-1, 1, q), rng.uniform(0.0, 1.0)) for _ in range(8)]
        proj = RowProjector(cs)
        centers = np.array([b.center for b in cs])
        x = rng.uniform(-3, 3, (8, q))
        x[1] = rng.normal(size=q) * 1e200
        x[4] = rng.normal(size=q) * 1e300
        x[6] = np.full(q, -1.5e308)  # for q >= 2 the norm exceeds the largest float
        huge = np.zeros(8, dtype=bool)
        huge[[1, 4, 6]] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = proj.project(x)
        for i in np.flatnonzero(huge):
            b = cs[i]
            v = out[i] - b.center
            dist = np.linalg.norm(v)
            assert abs(dist - b.radius) <= DEFAULT.membership
            if b.radius > 0.0:
                unit = x[i] / np.abs(x[i]).max()
                unit /= np.linalg.norm(unit)
                assert v / dist == pytest.approx(unit, abs=1e-12)
        # every other row keeps the bits it gets in a batch without huge rows
        tame = np.where(huge[:, None], 0.0, x)
        assert np.array_equal(out[~huge], proj.project(tame)[~huge])
        assert np.isfinite(out).all() and not np.array_equal(out[huge], centers[huge])


def test_row_projector_distances_of_overflowing_rows(rng):
    # a finite row whose squared norm overflows gets a finite distance close
    # to the true one (math.hypot scales), not inf, and numpy warns of nothing
    for q in (1, 2, 3):
        cs = [Ball(rng.uniform(-1, 1, q), rng.uniform(0.0, 1.0)) for _ in range(8)]
        proj = RowProjector(cs)
        x = rng.uniform(-3, 3, (8, q))
        x[1] = rng.normal(size=q) * 1e200
        x[4] = rng.normal(size=q) * 1e300
        x[6] = np.full(q, -1.5e308 / q)  # every component's square overflows
        huge = np.zeros(8, dtype=bool)
        huge[[1, 4, 6]] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = proj.distances(x)
        for i in np.flatnonzero(huge):
            true = math.hypot(*(x[i] - cs[i].center)) - cs[i].radius
            assert math.isfinite(got[i]) and got[i] == pytest.approx(true, rel=1e-12)
        # every other row keeps the bits it gets in a batch without huge rows
        tame = np.where(huge[:, None], 0.0, x)
        assert np.array_equal(got[~huge], proj.distances(tame)[~huge])
    # the feasibility check reports the distance, not inf
    g = Graph.from_edges(2, [(0, 1)])
    inst = GameInstance(g, (Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0)), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantError, match=r"starting profile: distance 1\.000e\+200$"):
            dgtc_round(EngineState(inst, np.array([[1e200, 0.0], [0.5, 0.0]])))


def test_row_projector_row_at_a_large_ball_center_is_quiet():
    # a row exactly at the center of a ball whose radius / tiny overflows is
    # kept as is, with no divide by zero and no 0 * inf
    proj = RowProjector([Ball((0.0, 0.0), 5.0), Ball((1.0, 1.0), 0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = proj.project([[0.0, 0.0], [3.0, 3.0]])
    assert out[0].tolist() == [0.0, 0.0]
    assert out[1].tolist() == (np.array([1.0, 1.0]) + np.array([2.0, 2.0]) * (0.5 / math.sqrt(8.0))).tolist()


def test_ball_projection_of_a_point_whose_square_overflows():
    # the squared distance 1e400 overflows: the point still goes to the
    # boundary in its own direction, in the scalar and the stacked path, its
    # distance reads about 1e200, and so does the cycle's displacement in
    # the stacked and the generic loop, not inf
    balls = (Ball((0.0, 0.0), 1.0), Ball((0.5, 0.0), 1.0))
    mixed = GameInstance(Graph.from_edges(2, [(0, 1)]), (Box((-1.0, -1.0), (1.0, 1.0)), balls[1]), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Ball((0.0, 0.0), 1.0).project([1e200, 0.0]).tolist() == [1.0, 0.0]
        assert Ball((0.0, 0.0), 2.0).project([-3e300, 4e300]).tolist() == pytest.approx([-1.2, 1.6])
        assert Ball((0.0, 0.0), 1.0).distance_to([1e200, 0.0]) == 1e200
        assert BallStack([balls]).max_distances([[1e200, 0.0]]).tolist() == [1e200]
        x, disp = pocs_run(BallStack([balls]), [[1e200, 0.0]], 2)
        mixed_x, mixed_disp = pocs_run(mixed, [1e200, 0.0], 2)
    assert x.tolist() == [[1.0, 0.0]]
    assert disp == [1e200, 0.0]
    assert mixed_x.tolist() == [1.0, 0.0]
    assert mixed_disp == [1e200, 0.0]


def test_ball_projection_of_a_point_whose_difference_from_the_center_overflows():
    # x - center = -2e308 is beyond the largest float: the point still goes
    # to the boundary in its own direction, on every ball path, with no
    # warning, and a distance out of range reads inf, not nan
    near, far = Ball((1e308, 0.0), 1.0), Ball((1e308, 0.0), 1.5e308)
    x = np.array([-1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert near.project(x).tolist() == [1e308 - 1.0, 0.0]
        assert far.project(x).tolist() == [1e308 - 1.5e308, 0.0]
        assert near.distance_to(x) == math.inf
        assert far.distance_to(x) == 1.5e308 - 1e308
        rows = RowProjector([near, far]).project(np.array([x, x]))
        stack = BallStack([[near], [far]])
        cycled = stack.project_cycle(np.array([x, x]))
        farthest = stack.max_distances(np.array([x, x]))
        _, disp = pocs_run(BallStack([[near]]), [x], 1)
    assert rows.tolist() == cycled.tolist() == [[1e308 - 1.0, 0.0], [1e308 - 1.5e308, 0.0]]
    assert farthest.tolist() == [math.inf, 1.5e308 - 1e308]
    assert disp == [math.inf]


def test_row_projector_distances_in_range_past_an_overflowing_difference():
    # each row's difference from its center, or that difference's norm,
    # overflows, yet its distance to the ball is in range: the row reads
    # that distance, as distance_to does, in the 2-D and the stacked call
    balls = [Ball((1e308, 0.0), 1.5e308), Ball((0.8e308, -0.8e308), 1.5e308),
             Ball((-1e308, 1e308), 1e308), Ball((0.0, 0.0), 1.0)]
    x = np.array([[[-1e308, 0.0], [-0.9e308, 0.9e308], [1e308, -0.5e308], [3.0, 4.0]],
                  [[-1.5e308, 1e307], [-1.7e308, -1e308], [1.2e308, 0.7e308], [0.3, 0.4]]])
    proj = RowProjector(balls)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = proj.distances(x)
        for k, rows in enumerate(x):
            got = proj.distances(rows)
            assert got.tobytes() == stacked[k].tobytes()
            want = [b.distance_to(row) for b, row in zip(balls, rows)]
            assert np.isfinite(got).all()
            assert got.tolist() == pytest.approx(want, rel=1e-15, abs=0)
    assert RowProjector(balls[:1]).distances(x[0, :1]).tolist() == [5e307]


def test_ball_keeps_a_point_inside_whose_squared_distance_overflows():
    # the squared distance (1.5e308)^2 overflows, but the distance is inside
    # the radius 1.7e308: the point is kept as is, not sent to the boundary
    b = Ball((1e308, 0.0), 1.7e308)
    x = np.array([-5e307, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert b.project(x).tobytes() == x.tobytes()
        assert b.distance_to(x) == 0.0
        assert RowProjector([b, b]).project(np.array([x, x])).tolist() == [x.tolist()] * 2
        assert RowProjector([b]).distances(x[None]).tolist() == [0.0]


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
