"""Planar points and small vector helpers.

Octant performs its region algebra (intersection, union, subtraction of
constraint areas) in a local planar coordinate system obtained by projecting
latitude/longitude onto a plane (see :mod:`repro.geometry.projection`).  This
module provides the planar :class:`Point2D` primitive and the handful of
vector operations the polygon machinery needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Point2D",
    "cross",
    "dot",
    "orientation",
    "segment_intersection",
    "point_segment_distance",
    "centroid_of_points",
]

#: Tolerance used for geometric predicates on planar coordinates expressed in
#: kilometres.  One centimetre is far below any meaningful geolocation error.
EPSILON = 1e-9


@dataclass(frozen=True, slots=True)
class Point2D:
    """An immutable planar point (or 2-D vector), coordinates in kilometres."""

    x: float
    y: float

    # -- vector arithmetic ------------------------------------------------ #
    def __add__(self, other: "Point2D") -> "Point2D":
        return Point2D(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2D") -> "Point2D":
        return Point2D(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Point2D":
        return Point2D(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Point2D":
        return Point2D(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Point2D":
        return Point2D(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # -- geometry --------------------------------------------------------- #
    def norm(self) -> float:
        """Euclidean length of the vector from the origin to this point."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Point2D") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Point2D":
        """Unit vector in the same direction; raises on the zero vector."""
        n = self.norm()
        if n < EPSILON:
            raise ValueError("cannot normalize a zero-length vector")
        return Point2D(self.x / n, self.y / n)

    def perpendicular(self) -> "Point2D":
        """The vector rotated 90 degrees counter-clockwise."""
        return Point2D(-self.y, self.x)

    def rotated(self, angle_rad: float) -> "Point2D":
        """The vector rotated ``angle_rad`` radians counter-clockwise."""
        c, s = math.cos(angle_rad), math.sin(angle_rad)
        return Point2D(c * self.x - s * self.y, s * self.x + c * self.y)

    def almost_equal(self, other: "Point2D", tol: float = 1e-6) -> bool:
        """True when both coordinates agree within ``tol``."""
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)


def dot(a: Point2D, b: Point2D) -> float:
    """Dot product of two vectors."""
    return a.x * b.x + a.y * b.y


def cross(a: Point2D, b: Point2D) -> float:
    """Z-component of the 3-D cross product of two planar vectors."""
    return a.x * b.y - a.y * b.x


def orientation(a: Point2D, b: Point2D, c: Point2D) -> int:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns ``+1`` for a counter-clockwise turn, ``-1`` for clockwise and
    ``0`` for (numerically) collinear points.
    """
    val = cross(b - a, c - a)
    if val > EPSILON:
        return 1
    if val < -EPSILON:
        return -1
    return 0


def segment_intersection(
    p1: Point2D,
    p2: Point2D,
    q1: Point2D,
    q2: Point2D,
) -> tuple[float, float] | None:
    """Intersection of segments ``p1p2`` and ``q1q2`` as interpolation parameters.

    Returns ``(alpha, beta)`` such that the intersection point is
    ``p1 + alpha * (p2 - p1)`` and also ``q1 + beta * (q2 - q1)``, with both
    parameters strictly inside ``(0, 1)`` up to a small tolerance.  Returns
    ``None`` when the segments do not properly intersect (including parallel
    and collinear-overlap cases, which callers handle via perturbation).
    """
    r = p2 - p1
    s = q2 - q1
    denom = cross(r, s)
    if abs(denom) < EPSILON:
        return None
    qp = q1 - p1
    alpha = cross(qp, s) / denom
    beta = cross(qp, r) / denom
    lo, hi = -EPSILON, 1.0 + EPSILON
    if lo < alpha < hi and lo < beta < hi:
        return (min(1.0, max(0.0, alpha)), min(1.0, max(0.0, beta)))
    return None


def point_segment_distance(p: Point2D, a: Point2D, b: Point2D) -> float:
    """Euclidean distance from point ``p`` to the segment ``ab``."""
    ab = b - a
    ab_len2 = dot(ab, ab)
    if ab_len2 < EPSILON * EPSILON:
        return p.distance_to(a)
    t = dot(p - a, ab) / ab_len2
    t = max(0.0, min(1.0, t))
    proj = a + ab * t
    return p.distance_to(proj)


def centroid_of_points(points: Sequence[Point2D] | Iterable[Point2D]) -> Point2D:
    """Arithmetic mean of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("centroid_of_points requires at least one point")
    sx = sum(p.x for p in pts)
    sy = sum(p.y for p in pts)
    return Point2D(sx / len(pts), sy / len(pts))
