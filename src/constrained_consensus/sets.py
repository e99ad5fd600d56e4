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
distance through one norm of a difference, ``_norms``.  Both work on
coordinate-first arrays, (q, B) for B points: callers pass ``.T`` views of
their (B, q) rows, and a result's bits do not depend on the memory layout.
A finite point whose difference from the center, or whose squared
distance, overflows still lands on the boundary, with no warning: both
kernels scale such a point by its largest component, in ``_rescue``,
and ``RowProjector.distances`` takes a ball's radius off inside that
scale, so a distance in range stays finite.  Callers differ only
in how a point's squares are summed, which decides the last bits:
``RowProjector`` sums them as ``np.linalg.norm`` does (``_row_squares``),
every other caller as ``ndarray.dot`` does (``_dot_squares``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# An array whose squares sum below this "fits": the difference of two
# fitting arrays neither overflows nor has a point whose squares sum to
# inf, since ||a - b||^2 <= 2 ||a||^2 + 2 ||b||^2 < max / 2.
_ROOM = np.finfo(float).max / 8


def _fits(*arrays) -> bool:
    """True when every array fits (see ``_ROOM``): one dot per array, which
    copies an array that is not C-contiguous."""
    for v in arrays:
        if not np.vdot(v, v) < _ROOM:  # NaN fails too
            return False
    return True


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


def _rescue(a: np.ndarray, b: np.ndarray, squares):
    """The shared rescue, for coordinate-first (q, B) a and b in which a
    difference or a point's sum of squares may overflow; numpy warns of
    nothing.

    Returns diff = a - b and the norms d = sqrt(squares(diff)) of its
    points, and for the finite points whose norm overflowed to inf, their
    mask ``rows`` and the scaled difference: with h = 1, or h = 2 where
    the difference itself overflows, half = a / h - b / h, m its largest
    absolute component and unit = ||half / m||, so that the point's norm,
    stored in d, is h * (m * unit).  The last item is h.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a - b
        d = np.array(np.sqrt(squares(diff)))
        rows = np.isinf(d) & np.logical_and.reduce(np.isfinite(a) & np.isfinite(b), axis=0)
        h = np.where(np.logical_and.reduce(np.isfinite(diff[:, rows]), axis=0), 1.0, 2.0)
        half = a[:, rows] / h - b[:, rows] / h
        m = np.maximum.reduce(np.abs(half), axis=0)
        unit = np.sqrt(_row_squares(half / m))
        d[rows] = h * (m * unit)
    return diff, d, rows, half, m, unit, h


def _norms(a: np.ndarray, b: np.ndarray, squares, fits: bool) -> np.ndarray:
    """Euclidean norm of a - b over axis 0 of the coordinate-first a and b
    (broadcast together), sqrt(squares(a - b)).  ``fits`` is True when the
    caller knows the difference fits (see ``_fits``); otherwise a finite
    point whose norm overflows is rescued (see ``_rescue``) and reads
    h * (m * unit), which is inf only where the norm is out of range."""
    if fits:
        return np.sqrt(squares(a - b))
    a, b = np.broadcast_arrays(a, b)
    d = _rescue(a.reshape(len(a), -1), b.reshape(len(b), -1), squares)[1]
    return d.reshape(a.shape[1:])


def _project_rows(x: np.ndarray, c: np.ndarray, r: np.ndarray, squares, fits: bool) -> np.ndarray:
    """Point b of the coordinate-first (q, B) x, its column b, projected
    onto the ball (c[:, b], r[b]), its distance to the center taken as
    sqrt(squares(x[:, b] - c[:, b])); c may be one (q, 1) center.

    A point inside its ball keeps its bits, and its quotient's divisor is
    d + 1, so d = 0 divides nothing; when every point is inside, x comes
    back as is.  ``fits`` is True when x - c is known to fit (see ``_fits``);
    otherwise a finite point whose difference from the center or squared
    distance overflows is scaled as ``_rescue`` scales it, and lands on
    its boundary at c + half * ((r / m) / unit): its distance is
    h * (m * unit), and diff = h * half.
    """
    if fits:
        diff = x - c
        d = np.sqrt(squares(diff))
    else:
        cs = np.broadcast_to(c, x.shape)
        r = np.broadcast_to(r, x.shape[1:])
        diff, d, rows, half, m, unit, _ = _rescue(x, cs, squares)
    inside = d <= r
    if np.count_nonzero(inside) == inside.size:  # cheaper than a reduce
        return x
    if fits:
        return np.where(inside, x, c + diff * (r / (d + inside)))
    with np.errstate(invalid="ignore"):  # inf * 0 at a rescued point, replaced below
        out = np.where(inside, x, c + diff * (r / (d + inside)))
    far = ~inside[rows]
    out[:, rows & ~inside] = (cs[:, rows] + half * ((r[rows] / m) / unit))[:, far]
    return out


class DimensionError(ValueError):
    """A point's dimension does not match the set's."""


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Validate coordinates and return a read-only float64 vector."""
    x = np.array(coords, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-d point with at least one coordinate, got shape {x.shape}")
    if np.count_nonzero(np.isfinite(x)) != x.size:  # cheaper than a reduce
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
        p = self._project(x)
        # np.linalg.norm's arithmetic for a 1-d vector, sqrt of its dot product,
        # except that a finite distance whose square overflows stays finite
        return float(_norms(x, p, _dot_squares, _fits(x, p)))

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
        if not (math.isfinite(self.radius) and self.radius >= 0):
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.center.size

    @cached_property
    def _kernel_args(self):
        """The kernel's (q, 1) center, (1,) radius and the center's fit,
        built at the first projection."""
        return self.center[:, None], np.array([self.radius]), _fits(self.center)

    def _project(self, x):
        c, r, fits = self._kernel_args
        return _project_rows(x[:, None], c, r, _dot_squares, fits and _fits(x))[:, 0]

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


class RowProjector:
    """Projects row n of an (N, q) array onto sets[n], and measures each
    row's distance to its set.

    All-ball collections (the localization scenario) get a vectorized path:
    it keeps the centers coordinate-first, (q, N), projects the ``.T``
    view of x and returns the ``.T`` view of a (q, N) array, so an x that
    is such a view is read and written in contiguous columns.  Anything
    else falls back to a per-row loop.
    """

    def __init__(self, sets):
        self.sets = tuple(sets)
        self._centers = self._radii = None
        if self.sets and all(isinstance(s, Ball) for s in self.sets):
            self._centers = np.array([s.center for s in self.sets]).T.copy()
            self._radii = np.array([s.radius for s in self.sets])
            self._fits = _fits(self._centers)

    def project(self, x: np.ndarray, fits: bool | None = None) -> np.ndarray:
        """Row n of x projected onto sets[n].  ``fits`` is ``_fits(x.T)``
        when the caller has computed it already, so it is not recomputed."""
        if self._centers is not None:
            xt = np.asarray(x).T
            return _project_rows(xt, self._centers, self._radii, _row_squares,
                                 self._fits and (_fits(xt) if fits is None else fits)).T
        return np.array([s.project(row) for s, row in zip(self.sets, x)])

    def distances(self, x: np.ndarray) -> np.ndarray:
        """Distance of each row to its set: x is one (N, q) array, giving N
        distances, or a stack (K, N, q) of them, giving (K, N); a row's
        distance has the same bits either way."""
        if self._centers is not None:
            # (q, N) or (q, K, N), C-contiguous for _row_squares
            xt = np.ascontiguousarray(x.T if x.ndim == 2 else x.transpose(2, 0, 1))
            c = self._centers if x.ndim == 2 else self._centers[:, None]
            if self._fits and _fits(xt):
                return np.maximum(np.sqrt(_row_squares(xt - c)) - self._radii, 0.0)
            # the radius comes off inside a rescued point's scale: m * unit may overflow
            xt, c = np.broadcast_arrays(xt, c)
            r = np.broadcast_to(self._radii, xt.shape[1:]).reshape(-1)
            _, d, rows, _, m, unit, h = _rescue(xt.reshape(len(xt), -1), c.reshape(len(c), -1),
                                                _row_squares)
            d -= r
            with np.errstate(over="ignore"):
                d[rows] = h * (m * (unit - (r[rows] / h) / m))
            return np.maximum(d, 0.0).reshape(xt.shape[1:])
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
        # node j's slab as the kernels take it: its (q, B) centers and (B,) radii
        self._slabs = [(c.T, r) for c, r in zip(self.centers, self.radii)]
        # with every ||c||^2 and r^2 below _ROOM / 4, a point in one ball is
        # within 3 sqrt(max / 32) of the next one's center, so a cycle or a
        # scan from a fitting x needs one guard, not one per slab
        with np.errstate(over="ignore"):
            self._fits = _fits(2.0 * self.centers, 2.0 * self.radii)

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
        xt = x.T
        fits = self._fits and _fits(x)
        for c, r in self._slabs:
            xt = _project_rows(xt, c, r, _dot_squares, fits)
        return xt.T

    def max_distances(self, x: np.ndarray) -> np.ndarray:
        """``max(s.distance_to(x[b]) for s in member b's balls)`` per member,
        bit for bit, computed one node at a time over (B, q) slabs."""
        best = np.zeros(self.size)
        x = np.asarray(x, dtype=float)
        xt = x.T
        # a projection moves a point by at most its distance to the center,
        # so where x - c fits, x - p fits too
        fits = self._fits and _fits(x)
        for c, r in self._slabs:
            p = _project_rows(xt, c, r, _dot_squares, fits)
            if p is not xt:  # a slab with every row inside adds only zero distances
                np.maximum(best, _norms(xt, p, _dot_squares, fits), out=best)
        return best

