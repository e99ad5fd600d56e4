"""Closed convex sets in R^q with closed-form Euclidean projections.

Three families are provided: balls, half-spaces and axis-aligned boxes.
All of them admit an exact projection formula, so the only error in
``project`` is floating point rounding.  Membership is defined through the
distance to the set (``distance_to(x) <= tol``) so a single tolerance
semantics covers every family.

Projection returns its argument *unchanged* (bitwise) whenever the point is
already inside the set; iterative algorithms rely on this to reach literal
fixed points.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (along the last axis): np.linalg.norm(a,
    axis=-1)'s arithmetic, without its Python-level dispatch."""
    return np.sqrt(np.add.reduce(a * a, axis=-1))


def _overflowed_rows(diff: np.ndarray, d: np.ndarray):
    """The finite rows of ``diff`` whose norm ``d`` overflowed to inf: their
    mask, largest absolute components m, and the norms ||row / m||."""
    rows = np.isinf(d) & np.logical_and.reduce(np.isfinite(diff), axis=-1)
    big = diff[rows]
    m = np.maximum.reduce(np.abs(big), axis=-1)
    return rows, m, _row_norms(big / m[:, None])


def _ball_scales(diff: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of ``diff`` lie inside their balls (norm d <= radius), and
    the radial scales ``radii / d`` of the others.

    A row inside gets the divisor 1, so a row at its center divides nothing.
    A finite row whose squared norm overflows gets the norm inf, and its
    scale is formed as (radius / m) / ||diff / m|| with m its largest
    absolute component, so it stays finite; every other row gets the plain
    formula's bits.
    """
    # one dot bounds every row's sum of squares: finite means none overflows
    if np.vdot(diff, diff) < np.inf:
        d = _row_norms(diff)
        inside = d <= radii
        return inside, radii / np.where(inside, 1.0, d)
    with np.errstate(over="ignore"):
        d = _row_norms(diff)
    inside = d <= radii
    scale = radii / np.where(inside, 1.0, d)
    rows, m, unit_norms = _overflowed_rows(diff, d)
    scale[rows] = (radii[rows] / m) / unit_norms
    return inside, scale


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
        # np.linalg.norm's arithmetic for a 1-d vector: sqrt of its dot product
        v = x - self._project(x)
        return math.sqrt(v @ v)

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
        diff = x - self.center
        with np.errstate(over="ignore"):
            d = math.sqrt(diff @ diff)
        if d <= self.radius:
            return x
        if d == math.inf and np.logical_and.reduce(np.isfinite(diff)):
            # the squared distance overflowed: scale by the largest component
            m = np.maximum.reduce(np.abs(diff))
            return self.center + diff * ((self.radius / m) / _row_norms(diff / m))
        return self.center + diff * (self.radius / d)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True, eq=False)
class Halfspace(ConvexSet):
    """{x : normal . x <= offset} with a nonzero normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_point(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        nn = float(np.linalg.norm(self.normal))
        if nn <= 0.0:
            raise ValueError("half-space normal must be nonzero")
        object.__setattr__(self, "_norm_sq", nn * nn)

    @property
    def dim(self) -> int:
        return self.normal.size

    def _project(self, x):
        excess = float(self.normal @ x) - self.offset
        if excess <= 0.0:
            return x
        return x - (excess / self._norm_sq) * self.normal


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
            diff = x - self._centers
            inside, scale = _ball_scales(diff, self._radii)
            # rows already inside keep their exact bit pattern
            return np.where(inside[:, None], x, self._centers + diff * scale[:, None])
        return np.array([s.project(row) for s, row in zip(self.sets, x)])

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Distance of each row to its set: x is one (N, q) array, giving N
        distances, or a stack (K, N, q) of them, giving (K, N); a row's
        distance has the same bits either way."""
        if self._centers is not None:
            diff = x - self._centers
            # as in _ball_scales: a finite row whose squared norm overflows
            # gets the norm m * ||diff / m||, and every other row its plain bits
            if np.vdot(diff, diff) < np.inf:
                d = _row_norms(diff)
            else:
                with np.errstate(over="ignore"):
                    d = _row_norms(diff)
                    rows, m, unit_norms = _overflowed_rows(diff, d)
                    d[rows] = m * unit_norms
            return np.maximum(d - self._radii, 0.0)
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
        with np.errstate(over="ignore"):
            for c, r in zip(self.centers, self.radii):
                x = _project_slab(x, c, r)
        return x

    def max_distances(self, x: np.ndarray) -> np.ndarray:
        """``max(s.distance_to(x[b]) for s in member b's balls)`` per member,
        bit for bit, computed one node at a time over (B, q) slabs."""
        best = np.zeros(self.size)
        with np.errstate(over="ignore"):
            for c, r in zip(self.centers, self.radii):
                v = x - _project_slab(x, c, r)
                np.maximum(best, np.sqrt(np.vecdot(v, v)), out=best)
        return best


def _project_slab(x: np.ndarray, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Row b of x projected onto the ball (c[b], r[b]), as ``Ball._project``
    does it: ``np.vecdot`` sums a row as ``ndarray.dot`` sums a vector.

    A row inside its ball keeps its bits, and its quotient's divisor is 1,
    so d = 0 divides nothing; when every row is inside, x comes back as is.
    A finite row whose squared distance overflows (the caller silences that)
    gets the scale (r / m) / ||diff / m|| with m its largest absolute
    component, as in ``Ball._project``, and lands on its boundary.
    """
    diff = x - c
    d = np.sqrt(np.vecdot(diff, diff))
    inside = d <= r
    if np.logical_and.reduce(inside):
        return x
    scale = r / np.where(inside, 1.0, d)
    if np.maximum.reduce(d) == np.inf:
        rows, m, unit_norms = _overflowed_rows(diff, d)
        scale[rows] = (r[rows] / m) / unit_norms
    return np.where(inside[:, None], x, c + diff * scale[:, None])


def _dot_norms(v: np.ndarray) -> np.ndarray:
    """Norm of each row of v with ``ndarray.dot``'s bits, sqrt(vecdot(v, v)),
    except that a finite row whose sum of squares overflows gets
    m * ||row / m||, m its largest absolute component.  The caller silences
    the overflow."""
    d = np.sqrt(np.vecdot(v, v))
    if np.maximum.reduce(d) == np.inf:
        rows, m, unit_norms = _overflowed_rows(v, d)
        d[rows] = m * unit_norms
    return d
