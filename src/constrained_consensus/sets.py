"""Closed convex sets in R^q with closed-form Euclidean projections.

Three families are provided: balls, half-spaces and axis-aligned boxes.
All of them admit an exact projection formula, so the only error in
``project`` is floating point rounding.  Membership is defined through the
distance to the set (``distance_to(x) <= tol``) so a single tolerance
semantics covers every family.

Projection returns its argument *unchanged* (bitwise) whenever the point is
already inside the set; iterative algorithms rely on this to reach literal
fixed points.

Every ball projection (``Ball.project``, ``RowProjector`` and the lockstep
``BallStack``) runs through one kernel, ``_project_rows``, and every
distance through one row norm, ``_norms``.  A finite point whose squared
distance overflows still lands on the boundary and reads a finite distance:
both take the norm of the point scaled by its largest component.  Callers
differ only in how a row's squares are summed, which decides the last bits:
``RowProjector`` sums them as ``np.linalg.norm`` does, every other caller as
``ndarray.dot`` does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


def _reduce_squares(a: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis with np.linalg.norm(a, axis=-1)'s
    bits, without its Python-level dispatch."""
    return np.add.reduce(a * a, axis=-1)


def _dot_squares(a: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis with ``ndarray.dot``'s bits: a row
    is summed as ``v @ v`` sums a vector."""
    return np.vecdot(a, a)


def _overflowed_rows(v: np.ndarray, squares):
    """The shared rescue, for a v in which some sum of squares overflows:
    the norms d = sqrt(squares(v)) as a writable array, with numpy's
    overflow warning silenced, and the finite rows whose norm overflowed to
    inf: their mask, largest absolute components m, and norms ||row / m||."""
    with np.errstate(over="ignore"):
        d = np.array(np.sqrt(squares(v)))
    rows = np.isinf(d) & np.logical_and.reduce(np.isfinite(v), axis=-1)
    big = v[rows]
    m = np.maximum.reduce(np.abs(big), axis=-1)
    return d, rows, m, np.sqrt(_reduce_squares(big / m[:, None]))


def _norms(v: np.ndarray, squares) -> np.ndarray:
    """Euclidean norm of each row of v (along the last axis; a 1-d v is one
    row), sqrt(squares(v)), except that a finite row whose sum of squares
    overflows gets m * ||row / m||, m its largest absolute component."""
    # one dot bounds every row's sum of squares: finite means none overflows
    if np.vdot(v, v) < np.inf:
        return np.sqrt(squares(v))
    d, rows, m, unit_norms = _overflowed_rows(v, squares)
    d[rows] = m * unit_norms
    return d


def _project_rows(x: np.ndarray, c: np.ndarray, r: np.ndarray, squares) -> np.ndarray:
    """Row b of the (B, q) array x projected onto the ball (c[b], r[b]), its
    distance d to the center taken as sqrt(squares(x[b] - c[b])).

    A row inside its ball keeps its bits, and its quotient's divisor is 1,
    so d = 0 divides nothing; when every row is inside, x comes back as is.
    A finite row whose squared distance overflows gets the scale
    (r / m) / ||diff / m|| with m its largest absolute component, so it
    lands on its boundary even where d itself overflows.
    """
    diff = x - c
    rows = None
    if np.vdot(diff, diff) < np.inf:  # as in _norms
        d = np.sqrt(squares(diff))
    else:
        d, rows, m, unit_norms = _overflowed_rows(diff, squares)
    inside = d <= r
    if np.count_nonzero(inside) == inside.size:  # cheaper than a reduce
        return x
    scale = r / np.where(inside, 1.0, d)
    if rows is not None:
        scale[rows] = (r[rows] / m) / unit_norms
    return np.where(inside[:, None], x, c + diff * scale[:, None])


class DimensionError(ValueError):
    """A point's dimension does not match the set's."""


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Validate coordinates and return a read-only float64 vector."""
    x = np.array(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-d point with at least one coordinate, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point coordinates must be finite")
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
        x = self._coerce(x)
        # np.linalg.norm's arithmetic for a 1-d vector, sqrt of its dot product,
        # except that a finite distance whose square overflows stays finite
        return float(_norms(x - self._project(x), _dot_squares))

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
        return x


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    """{x : ||x - center|| <= radius}; radius 0 degenerates to a singleton."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.size

    def _project(self, x):
        return _project_rows(x[None], self.center[None], np.array([self.radius]), _dot_squares)[0]

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexSet):
    """{x : normal . x <= offset} with a nonzero normal.

    A projected point passes the set's own test, ``normal . y <= offset``
    in floating point, so projecting it again returns it as is.  The
    normal's squared norm, by which the projection divides, must be a
    normal float: neither overflowing nor subnormal.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_point(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        with np.errstate(over="ignore"):
            nn = float(np.linalg.norm(self.normal))
        if not np.finfo(float).tiny <= nn * nn < np.inf:
            raise ValueError(f"half-space normal {self.normal.tolist()} must be nonzero, with a "
                             f"squared norm that neither overflows nor is subnormal; its norm "
                             f"reads {nn!r}")
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
        # again returns it as is
        grow = 1.0
        while (excess := self._excess(y)) > 0.0:
            y = y - (grow * excess / self._norm_sq) * self.normal
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


class RowProjector:
    """Projects row n of an (N, q) array onto sets[n], and measures each
    row's distance to its set.

    All-ball collections (the localization scenario) get a vectorized path;
    anything else falls back to a per-row loop.
    """

    def __init__(self, sets):
        self.sets = tuple(sets)
        self._centers = self._radii = None
        if self.sets and all(isinstance(s, Ball) for s in self.sets):
            self._centers = np.array([s.center for s in self.sets])
            self._radii = np.array([s.radius for s in self.sets])

    def project(self, x: np.ndarray) -> np.ndarray:
        if self._centers is not None:
            return _project_rows(x, self._centers, self._radii, _reduce_squares)
        return np.array([s.project(row) for s, row in zip(self.sets, x)])

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Distance of each row to its set: x is one (N, q) array, giving N
        distances, or a stack (K, N, q) of them, giving (K, N); a row's
        distance has the same bits either way."""
        if self._centers is not None:
            return np.maximum(_norms(x - self._centers, _reduce_squares) - self._radii, 0.0)
        if x.ndim == 3:
            return np.array([self.distances(member) for member in x]).reshape(x.shape[:2])
        return np.array([s.distance_to(row) for s, row in zip(self.sets, x)])


class BallStack:
    """The ball sets of B members with equal (n, q), stacked node-major.

    ``centers`` is (n, B, q) and ``radii`` (n, B), so node j's balls across
    all members are one contiguous (B, q) slab.  Built from the members' set
    sequences one at a time; only the two arrays are kept.
    """

    def __init__(self, members):
        centers, radii = [], []
        for sets in members:
            sets = tuple(sets)
            if not all(isinstance(s, Ball) for s in sets):
                raise ValueError("a BallStack holds balls only")
            c = np.array([s.center for s in sets])
            if centers and c.shape != centers[0].shape:
                raise ValueError(f"member {len(centers)} has (n, q) = {c.shape}, "
                                 f"expected {centers[0].shape}")
            centers.append(c)
            radii.append([s.radius for s in sets])
        if not centers or not centers[0].size:
            raise ValueError("a BallStack needs at least one member with at least one ball")
        self.centers = np.stack(centers, axis=1)
        self.radii = np.array(radii).T.copy()

    @property
    def size(self) -> int:
        """B, the number of members."""
        return self.centers.shape[1]

    @property
    def q(self) -> int:
        return self.centers.shape[2]

    def project_cycle(self, x: np.ndarray) -> np.ndarray:
        """Member b's point x[b] projected onto its balls in ascending node
        order, all members in lockstep, with ``Ball._project``'s bits."""
        for c, r in zip(self.centers, self.radii):
            x = _project_rows(x, c, r, _dot_squares)
        return x

    def max_distances(self, x: np.ndarray) -> np.ndarray:
        """``max(s.distance_to(x[b]) for s in member b's balls)`` per member,
        bit for bit, computed one node at a time over (B, q) slabs."""
        best = np.zeros(self.size)
        for c, r in zip(self.centers, self.radii):
            p = _project_rows(x, c, r, _dot_squares)
            if p is not x:  # a slab with every row inside adds only zero distances
                np.maximum(best, _norms(x - p, _dot_squares), out=best)
        return best

