"""Closed convex sets in R^q with closed-form Euclidean projections.

Three families are provided: balls, half-spaces and axis-aligned boxes.
All of them admit an exact projection formula, so the only error in
``project`` is floating point rounding.  Membership is defined through the
distance to the set (``distance_to(x) <= tol``) so a single tolerance
semantics covers every family.

Projection returns its argument *unchanged* (bitwise) whenever the point is
already inside the set; iterative algorithms rely on this to reach literal
fixed points.

Every ball projection (``Ball.project`` and the ball tables of
``RowProjector`` and the lockstep ``BallStack``: (n, q) centers and (n,)
radii, checked by ``_ball_table``) runs through one kernel,
``_project_rows``.  It works on coordinate-first arrays, (q, B) for B
points: callers pass ``.T`` views of their (B, q) rows, and a result's
bits do not depend on the memory layout.  Callers differ only in how a
point's squares are summed, which decides the last bits: ``RowProjector``
sums them as ``np.linalg.norm`` does (``_row_squares``), every other
caller as ``ndarray.dot`` does (``_dot_squares``).

Every value that enters a set's parameters, a ball table, ``as_point``,
``project``, ``distance_to`` or a ``BallStack`` method is finite and at
most ``_LIMIT`` = 2^480 (about 3.1e144) in magnitude, or ``_check_domain``
raises ``ValueError``.  Projections of such values stay within a few
``_LIMIT``, so the differences the kernels meet stay below 2^484 and a sum
of their squares below 2^968 per term: nothing overflows, each kernel has
one path, and numpy warns of nothing.  ``RowProjector`` is internal and
checks nothing; its callers have.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

# The magnitude domain's bound (see the module docstring).
_LIMIT = 2.0 ** 480


def _check_domain(x, what: str) -> None:
    """Raise ``ValueError`` unless every entry of ``x``, an array or a float, is inside (``_inside``)."""
    if not (np.vdot(x, x) <= _LIMIT * _LIMIT or _inside(np.reshape(x, (1, -1)))):
        raise ValueError(f"{what} must be finite and at most 2**480 (about 3.1e144) in magnitude")


def _inside(stack: np.ndarray) -> int:
    """How many leading members of ``stack`` have every entry finite and at
    most ``_LIMIT`` in magnitude.  A rounded sum of squares is at least each
    rounded square, and an entry past the power of two ``_LIMIT`` has a
    rounded square above _LIMIT^2: one dot settles most calls."""
    if np.vdot(stack, stack) <= _LIMIT * _LIMIT:
        return len(stack)
    return int(np.append(np.abs(stack).reshape(len(stack), -1).max(axis=1) <= _LIMIT, False).argmin())


def _check_radii(r) -> None:
    """Raise ``ValueError`` unless every radius in ``r``, an array or a
    float, is in the magnitude domain and nonnegative."""
    _check_domain(r, "radius")
    lowest = np.minimum.reduce(r, axis=None, initial=0.0)
    if lowest < 0:
        raise ValueError(f"radius must be nonnegative, got {lowest}")


def _row_squares(v: np.ndarray) -> np.ndarray:
    """Sum of squares over axis 0 of the coordinate-first v, with the bits
    of ``np.add.reduce(w * w, axis=-1)`` over the rows w = v.T.

    numpy sums fewer than 8 terms of a row in order, and so does a sum
    over axis 0, whatever the layout, so for q < 8 one sum over axis 0 has
    the rows' bits; it runs fastest, coordinate by coordinate over whole
    columns, on a C-contiguous v.  From 8 terms on numpy sums a row
    pairwise, so the rows themselves are summed.
    """
    if len(v) < 8:
        return np.add.reduce(v * v, axis=0)
    w = np.ascontiguousarray(v.T)
    return np.add.reduce(w * w, axis=-1).T


def _dot_squares(v: np.ndarray) -> np.ndarray:
    """Sum of squares over axis 0 of the coordinate-first v, with the bits
    of ``ndarray.dot``: each point is summed as ``w @ w`` sums a vector.
    Fastest where each point's coordinates are contiguous, as in a ``.T``
    view of rows; anything else is copied to rows first."""
    w = np.ascontiguousarray(v.T)
    return np.vecdot(w, w).T


def _project_rows(x: np.ndarray, c: np.ndarray, r: np.ndarray, squares) -> np.ndarray:
    """Point b of the coordinate-first (q, B) x, its column b, projected
    onto the ball (c[:, b], r[b]), its distance to the center taken as
    sqrt(squares(x[:, b] - c[:, b])); c may be one (q, 1) center.

    A point inside its ball keeps its bits, and its quotient's divisor is
    d + 1, so d = 0 divides nothing; when every point is inside, x comes
    back as is.
    """
    diff = x - c
    d = np.sqrt(squares(diff))
    inside = d <= r
    if np.count_nonzero(inside) == inside.size:  # cheaper than a reduce
        return x
    return np.where(inside, x, c + diff * (r / (d + inside)))


class DimensionError(ValueError):
    """A point's dimension does not match the set's."""


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Validate coordinates and return a read-only float64 vector."""
    x = np.array(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-d point with at least one coordinate, got shape {x.shape}")
    _check_domain(x, "point coordinates")
    if dim is not None and x.size != dim:
        raise DimensionError(f"expected dimension {dim}, got {x.size}")
    x.flags.writeable = False
    return x


class ConvexSet(ABC):
    """A closed convex subset of R^q supporting exact projection."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def _project(self, x: np.ndarray) -> np.ndarray: ...

    def project(self, x) -> np.ndarray:
        """Nearest point of the set in Euclidean norm."""
        return self._project(self._coerce(x))

    def distance_to(self, x) -> float:
        return self._distance(self._coerce(x))

    def _distance(self, x: np.ndarray) -> float:
        # np.linalg.norm's arithmetic for a 1-d vector, sqrt of its dot product
        return float(np.sqrt(_dot_squares(x - self._project(x))))

    def contains(self, x, tol: float = 0.0) -> bool:
        """True iff the distance from ``x`` to the set is at most ``tol``."""
        return self.distance_to(x) <= tol

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(lower, upper) corners enclosing the set, or None if unbounded."""
        return None

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionError(f"expected a point of dimension {self.dim}, got shape {x.shape}")
        _check_domain(x, "point coordinates")
        return x


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    """{x : ||x - center|| <= radius}; radius 0 degenerates to a singleton."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        _check_radii(self.radius)

    @property
    def dim(self) -> int:
        return self.center.size

    def _project(self, x):
        return _project_rows(x[:, None], self.center[:, None], self.radius, _dot_squares)[:, 0]

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexSet):
    """{x : normal . x <= offset} with a nonzero normal.

    A projected point passes the set's own test, ``normal . y <= offset``
    in floating point, so projecting it again returns it as is.  The
    normal's squared norm, by which the projection divides, must not be
    subnormal, and |offset| <= _LIMIT * ||normal||, so that a projection
    moves a point by at most its own norm plus ``_LIMIT``.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_point(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        nn = float(np.linalg.norm(self.normal))
        if not np.finfo(float).tiny <= nn * nn:
            raise ValueError(f"half-space normal {self.normal.tolist()} must be nonzero, with a "
                             f"squared norm that is not subnormal; its norm reads {nn!r}")
        _check_domain(self.offset, "half-space offset")
        if not abs(self.offset) <= _LIMIT * nn:
            raise ValueError(f"half-space offset {self.offset!r} must be at most 2**480 times "
                             f"the normal's norm {nn!r} in magnitude")
        object.__setattr__(self, "_norm_sq", nn * nn)

    @property
    def dim(self) -> int:
        return self.normal.size

    def _excess(self, x) -> float:
        return float(self.normal @ x) - self.offset

    def _project(self, x):
        excess = self._excess(x)
        if excess <= 0.0:
            return x
        y = x - (excess / self._norm_sq) * self.normal
        # rounding can leave y just outside: project again, each time twice
        # as far, until y passes the test above, so that projecting it
        # again returns it as is.  An excess below the rounding of the dot
        # itself (a subnormal offset, say) would not move y, so each step
        # covers at least one spacing of the sum of the dot's absolute terms.
        grow = 1.0
        while (excess := self._excess(y)) > 0.0:
            step = max(excess, float(np.spacing(np.abs(self.normal) @ np.abs(y))))
            y = y - (grow * step / self._norm_sq) * self.normal
            grow *= 2.0
        return y


@dataclass(frozen=True, eq=False)
class Box(ConvexSet):
    """Axis-aligned box {x : lower <= x <= upper} (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_point(self.lower))
        object.__setattr__(self, "upper", as_point(self.upper, dim=self.lower.size))
        if np.any(self.lower > self.upper):
            raise ValueError("box needs lower[j] <= upper[j] in every coordinate")

    @property
    def dim(self) -> int:
        return self.lower.size

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)

    def bounding_box(self):
        return self.lower, self.upper


def interval(lo: float, hi: float) -> Box:
    """One-dimensional box [lo, hi]."""
    return Box(np.array([lo]), np.array([hi]))


def _ball_table(pair, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``pair``, (n, q) centers and (n,) radii, as float arrays checked as ``Ball`` checks its fields."""
    try:
        c, r = (np.asarray(a, dtype=float) for a in pair)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a pair of numeric arrays, (n, q) centers and (n,) radii") from None
    if c.ndim != 2 or not c.size or r.shape != c.shape[:1]:
        raise ValueError(f"{what} needs (n, q) centers and (n,) radii with "
                         f"n, q >= 1, got shapes {c.shape} and {r.shape}")
    _check_domain(c, "point coordinates")
    _check_radii(r)
    return c, r


class RowProjector:
    """Projects row n of an (N, q) array onto the ball (centers[n],
    radii[n]), and measures each row's distance to its ball.

    It keeps a copy of the centers coordinate-first, (q, N), projects the
    ``.T`` view of x and returns the ``.T`` view of a (q, N) array, so an x
    that is such a view is read and written in contiguous columns.

    Internal: neither the table nor x is checked, and x must lie within a
    few ``_LIMIT`` of the origin, as the engine's profiles and steps do.
    """

    def __init__(self, centers: np.ndarray, radii: np.ndarray):
        self._centers = np.array(np.asarray(centers, dtype=float).T, order="C")
        self._radii = np.array(radii, dtype=float)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Row n of x projected onto ball n."""
        return _project_rows(np.asarray(x).T, self._centers, self._radii, _row_squares).T

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Distance of each row to its ball: x is one (N, q) array, giving N
        distances, or a stack (K, N, q) of them, giving (K, N); a row's
        distance has the same bits either way."""
        # (q, N) or (q, K, N), C-contiguous for _row_squares
        xt = np.ascontiguousarray(x.T if x.ndim == 2 else x.transpose(2, 0, 1))
        c = self._centers if x.ndim == 2 else self._centers[:, None]
        return np.maximum(np.sqrt(_row_squares(xt - c)) - self._radii, 0.0)


class _SetRows(tuple):
    """A tuple of sets with ``RowProjector``'s methods: row n by set n's formula."""

    def project(self, x: np.ndarray) -> np.ndarray:
        return np.array([s._project(row) for s, row in zip(self, x)])

    def distances(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 3:
            return np.array([self.distances(member) for member in x]).reshape(x.shape[:2])
        return np.array([s._distance(row) for s, row in zip(self, x)])


class BallStack:
    """The ball sets of B members with equal (n, q), stacked node-major.

    Each member is a checked ball table (``_ball_table``).  ``centers`` is
    (n, B, q) and ``radii`` (n, B), so node j's balls across all members
    are one contiguous (B, q) slab.  Its methods take one point per member,
    a (B, q) array in the magnitude domain (``_points``).
    """

    def __init__(self, members):
        centers, radii = [], []
        for i, member in enumerate(members):
            c, r = _ball_table(member, f"member {i}")
            if centers and c.shape != centers[0].shape:
                raise ValueError(f"member {i} has (n, q) = {c.shape}, expected {centers[0].shape}")
            centers.append(c)
            radii.append(r)
        if not centers:
            raise ValueError("a BallStack needs at least one member")
        self.centers = np.stack(centers, axis=1)
        self.radii = np.stack(radii, axis=1)
        # node j's slab as the kernels take it: its (q, B) centers and (B,) radii
        self._slabs = [(c.T, r) for c, r in zip(self.centers, self.radii)]

    @property
    def size(self) -> int:
        """B, the number of members."""
        return self.centers.shape[1]

    @property
    def q(self) -> int:
        return self.centers.shape[2]

    def _cycle(self, x: np.ndarray) -> np.ndarray:
        """Member b's point x[b] projected onto its balls in ascending node
        order, all members in lockstep, with ``Ball._project``'s bits.
        Unchecked: a cycle's result, up to |center| + radius from the
        origin, may be past ``_LIMIT`` and is cycled again."""
        xt = x.T
        for c, r in self._slabs:
            xt = _project_rows(xt, c, r, _dot_squares)
        return xt.T

    def _points(self, x) -> np.ndarray:
        """x as a new (B, q) float array, one point per member, or
        ``ValueError`` if its shape differs or it leaves the magnitude domain."""
        x = np.array(x, dtype=float)
        if x.shape != (self.size, self.q):
            raise ValueError(f"expected {self.size} points of dimension {self.q}, one per member, "
                             f"got shape {x.shape}")
        _check_domain(x, "point coordinates")
        return x

    def max_distances(self, x) -> np.ndarray:
        """``max(s.distance_to(x[b]) for s in member b's balls)`` per member,
        bit for bit, computed one node at a time over (B, q) slabs."""
        best = np.zeros(self.size)
        xt = self._points(x).T
        for c, r in self._slabs:
            p = _project_rows(xt, c, r, _dot_squares)
            if p is not xt:  # a slab with every row inside adds only zero distances
                np.maximum(best, np.sqrt(_dot_squares(xt - p)), out=best)
        return best

