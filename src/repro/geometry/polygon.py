"""Simple planar polygons.

A :class:`Polygon` is a simple (non-self-intersecting) closed polygon given by
its vertex list.  Polygons are the workhorse region representation: the paper
bounds regions with Bezier curves, and this reproduction works with their
flattened polygonal form throughout; the boolean algebra over them
lives in :mod:`repro.geometry.clipping` and the weighted multi-piece region
abstraction in :mod:`repro.geometry.region`.

Interior regions with holes (for example an annulus: the positive constraint
disk minus the negative constraint disk of the same landmark) are represented
as a single simple polygon using the classic *keyhole* construction
(:meth:`Polygon.with_hole`), which keeps every downstream algorithm working on
simple polygons only.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .bbox import BoundingBox
from .point import EPSILON as _EPSILON
from .point import Point2D, cross

__all__ = ["Polygon"]

#: Vertices closer together than this (km) are merged during cleaning.
MERGE_TOLERANCE_KM = 1e-6


class Polygon:
    """A simple closed polygon defined by an ordered vertex list.

    Vertices are stored without repeating the first vertex at the end.  The
    orientation (clockwise vs counter-clockwise) is preserved as given;
    :meth:`ensure_ccw` returns a counter-clockwise copy when a canonical
    orientation is needed.
    """

    __slots__ = ("_vertices", "_xy", "_bbox", "_signed_area", "_is_convex")

    def __init__(self, vertices: Sequence[Point2D] | Iterable[Point2D]):
        verts = _clean_vertices(list(vertices))
        if len(verts) < 3:
            raise ValueError(
                f"a polygon requires at least 3 distinct vertices, got {len(verts)}"
            )
        self._vertices = verts
        # Raw coordinate tuples for the allocation-free hot loops below.
        # Polygons are immutable, so derived values (bounding box, signed
        # area) are computed once and cached.
        self._xy: tuple[tuple[float, float], ...] = tuple(
            (v.x, v.y) for v in verts
        )
        self._bbox: BoundingBox | None = None
        self._signed_area: float | None = None
        self._is_convex: bool | None = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> list[Point2D]:
        """The vertex list (copy) in boundary order."""
        return list(self._vertices)

    @property
    def coords(self) -> tuple[tuple[float, float], ...]:
        """Vertex coordinates as raw ``(x, y)`` tuples, in boundary order.

        Used by the clipping hot paths to avoid :class:`Point2D` boxing;
        the tuple is the polygon's own cache, so callers must not mutate it.
        """
        return self._xy

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Polygon({len(self._vertices)} vertices, area={self.area():.1f})"

    def edges(self) -> list[tuple[Point2D, Point2D]]:
        """The boundary edges as ``(start, end)`` pairs, in order."""
        n = len(self._vertices)
        return [(self._vertices[i], self._vertices[(i + 1) % n]) for i in range(n)]

    # ------------------------------------------------------------------ #
    # Basic metrics
    # ------------------------------------------------------------------ #
    def signed_area(self) -> float:
        """Signed area via the shoelace formula (positive when CCW)."""
        if self._signed_area is None:
            total = 0.0
            xy = self._xy
            n = len(xy)
            for i in range(n):
                ax, ay = xy[i]
                bx, by = xy[(i + 1) % n]
                total += ax * by - bx * ay
            self._signed_area = total / 2.0
        return self._signed_area

    def area(self) -> float:
        """Unsigned enclosed area."""
        return abs(self.signed_area())

    def area_km2(self) -> float:
        """Enclosed area in square kilometres.

        Planar coordinates are produced by the kilometre-scaled projections in
        :mod:`repro.geometry.projection`, so the shoelace area *is* the area
        in km^2; this alias exists so callers filtering slivers by physical
        size use one consistently-named unit (see
        :class:`repro.core.solver.WeightedRegionSolver`).
        """
        return self.area()

    def perimeter(self) -> float:
        """Total boundary length."""
        return sum(a.distance_to(b) for a, b in self.edges())

    def centroid(self) -> Point2D:
        """Area centroid of the polygon.

        Falls back to the vertex mean for (numerically) degenerate polygons
        whose area is close to zero.
        """
        a2 = 0.0
        cx = 0.0
        cy = 0.0
        n = len(self._vertices)
        for i in range(n):
            p = self._vertices[i]
            q = self._vertices[(i + 1) % n]
            w = p.x * q.y - q.x * p.y
            a2 += w
            cx += (p.x + q.x) * w
            cy += (p.y + q.y) * w
        if abs(a2) < 1e-12:
            sx = sum(p.x for p in self._vertices)
            sy = sum(p.y for p in self._vertices)
            return Point2D(sx / n, sy / n)
        return Point2D(cx / (3.0 * a2), cy / (3.0 * a2))

    def bounding_box(self) -> BoundingBox:
        """Axis-aligned bounding box of the vertices (cached)."""
        if self._bbox is None:
            self._bbox = BoundingBox.from_points(self._vertices)
        return self._bbox

    # ------------------------------------------------------------------ #
    # Orientation
    # ------------------------------------------------------------------ #
    def is_ccw(self) -> bool:
        """True when the boundary is counter-clockwise oriented."""
        return self.signed_area() > 0.0

    def reversed(self) -> "Polygon":
        """The same polygon with reversed vertex order."""
        return Polygon(list(reversed(self._vertices)))

    def ensure_ccw(self) -> "Polygon":
        """This polygon if already CCW, otherwise the reversed copy."""
        return self if self.is_ccw() else self.reversed()

    def is_convex(self) -> bool:
        """True when every interior angle turns the same way (cached)."""
        if self._is_convex is None:
            self._is_convex = self._compute_is_convex()
        return self._is_convex

    def _compute_is_convex(self) -> bool:
        xy = self._xy
        n = len(xy)
        sign = 0
        for i in range(n):
            ax, ay = xy[i]
            bx, by = xy[(i + 1) % n]
            cx, cy = xy[(i + 2) % n]
            z = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if abs(z) < 1e-12:
                continue
            s = 1 if z > 0 else -1
            if sign == 0:
                sign = s
            elif s != sign:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Containment and distance
    # ------------------------------------------------------------------ #
    def contains_point(self, p: Point2D, include_boundary: bool = True) -> bool:
        """Point-in-polygon test using the even-odd (ray casting) rule.

        The even-odd rule makes keyholed polygons (see :meth:`with_hole`)
        behave like true regions-with-holes for containment purposes.
        """
        box = self.bounding_box()
        x, y = p.x, p.y
        tol = MERGE_TOLERANCE_KM
        if not (
            box.min_x - tol <= x <= box.max_x + tol
            and box.min_y - tol <= y <= box.max_y + tol
        ):
            return False
        if self.point_on_boundary(p):
            return include_boundary
        inside = False
        xy = self._xy
        n = len(xy)
        j = n - 1
        for i in range(n):
            xi, yi = xy[i]
            xj, yj = xy[j]
            if (yi > y) != (yj > y):
                x_int = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_int:
                    inside = not inside
            j = i
        return inside

    def point_on_boundary(self, p: Point2D, tol: float = MERGE_TOLERANCE_KM) -> bool:
        """True when ``p`` lies on (within ``tol`` of) the polygon boundary."""
        return self._boundary_distance(p.x, p.y, stop_at=tol) <= tol

    def distance_to_point(self, p: Point2D) -> float:
        """Distance from ``p`` to the region: 0 inside, else boundary distance."""
        if self.contains_point(p):
            return 0.0
        return self._boundary_distance(p.x, p.y)

    def _boundary_distance(self, px: float, py: float, stop_at: float = -1.0) -> float:
        """Minimum distance from ``(px, py)`` to any boundary segment.

        Identical arithmetic to :func:`repro.geometry.point.point_segment_distance`
        applied per edge, unrolled onto raw floats to keep this hot path free
        of :class:`Point2D` allocations.  When ``stop_at`` is non-negative the
        scan returns early once a distance at or below it is found (the
        boundary-membership predicate does not need the exact minimum).
        """
        hypot = math.hypot
        eps2 = _EPSILON * _EPSILON
        xy = self._xy
        n = len(xy)
        best = math.inf
        ax, ay = xy[n - 1]
        for i in range(n):
            bx, by = xy[i]
            abx = bx - ax
            aby = by - ay
            ab_len2 = abx * abx + aby * aby
            if ab_len2 < eps2:
                d = hypot(px - ax, py - ay)
            else:
                t = ((px - ax) * abx + (py - ay) * aby) / ab_len2
                t = max(0.0, min(1.0, t))
                d = hypot(px - (ax + abx * t), py - (ay + aby * t))
            if d < best:
                best = d
                if 0.0 <= stop_at and best <= stop_at:
                    return best
            ax, ay = bx, by
        return best

    def max_distance_to_point(self, p: Point2D) -> float:
        """Largest distance from ``p`` to any vertex of the polygon."""
        return max(p.distance_to(v) for v in self._vertices)

    def contains_polygon(self, other: "Polygon") -> bool:
        """True when every vertex of ``other`` lies inside this polygon.

        This is an approximation valid when the boundaries do not cross,
        which is exactly the situation in which the clipping code needs it.
        """
        return all(self.contains_point(v) for v in other.vertices)

    # ------------------------------------------------------------------ #
    # Transformation and construction helpers
    # ------------------------------------------------------------------ #
    def transformed(self, fn: Callable[[Point2D], Point2D]) -> "Polygon":
        """Polygon with every vertex mapped through ``fn``."""
        return Polygon([fn(v) for v in self._vertices])

    def translated(self, offset: Point2D) -> "Polygon":
        """Polygon rigidly translated by ``offset``."""
        return self.transformed(lambda v: v + offset)

    def scaled(self, factor: float, origin: Point2D | None = None) -> "Polygon":
        """Polygon scaled by ``factor`` about ``origin`` (default: centroid)."""
        o = origin if origin is not None else self.centroid()
        return self.transformed(lambda v: o + (v - o) * factor)

    def simplified(self, tolerance: float) -> "Polygon":
        """Polygon with nearly-collinear vertices removed (Douglas-Peucker-lite).

        Repeatedly drops vertices whose removal displaces the boundary by less
        than ``tolerance``.  Never reduces below a triangle.
        """
        verts = list(self._vertices)
        changed = True
        while changed and len(verts) > 3:
            changed = False
            kept: list[Point2D] = []
            n = len(verts)
            i = 0
            while i < n:
                a = verts[(i - 1) % n]
                b = verts[i]
                c = verts[(i + 1) % n]
                from .point import point_segment_distance

                if len(verts) - (1 if changed else 0) > 3 and point_segment_distance(b, a, c) < tolerance:
                    changed = True
                    i += 1
                    continue
                kept.append(b)
                i += 1
            if len(kept) >= 3:
                verts = kept
            else:
                break
        return Polygon(verts)

    @classmethod
    def regular(cls, center: Point2D, radius: float, sides: int) -> "Polygon":
        """Regular ``sides``-gon inscribed in a circle of ``radius``."""
        if sides < 3:
            raise ValueError("a polygon needs at least 3 sides")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius!r}")
        verts = [
            Point2D(
                center.x + radius * math.cos(2.0 * math.pi * i / sides),
                center.y + radius * math.sin(2.0 * math.pi * i / sides),
            )
            for i in range(sides)
        ]
        return cls(verts)

    @classmethod
    def rectangle(cls, box: BoundingBox) -> "Polygon":
        """Axis-aligned rectangle polygon for a bounding box."""
        return cls(box.corners())

    def with_hole(self, hole: "Polygon") -> "Polygon":
        """Return a keyholed simple polygon equal to this polygon minus ``hole``.

        The hole (which must lie strictly inside this polygon) is connected to
        the outer boundary with an infinitesimally thin slit: the outer ring
        is traversed in its own orientation, then a bridge jumps to the hole,
        the hole is traversed in the *opposite* orientation, and the bridge
        returns.  The result is a single simple polygon whose even-odd
        containment and shoelace area match the region-with-hole.
        """
        outer = self.ensure_ccw()
        inner = hole.ensure_ccw().reversed()  # hole traversed clockwise

        outer_verts = outer.vertices
        inner_verts = inner.vertices

        # Pick the bridge between the closest (outer vertex, inner vertex) pair
        # to keep the slit short and avoid crossing the hole.  Compared on
        # squared distance (same minimizer, no sqrt per pair).
        best = (0, 0)
        best_dist2 = math.inf
        inner_xy = [(v.x, v.y) for v in inner_verts]
        for i, ov in enumerate(outer_verts):
            ox, oy = ov.x, ov.y
            for j, (ix, iy) in enumerate(inner_xy):
                dx = ox - ix
                dy = oy - iy
                d2 = dx * dx + dy * dy
                if d2 < best_dist2:
                    best_dist2 = d2
                    best = (i, j)
        oi, ij = best
        outer_rot = outer_verts[oi:] + outer_verts[:oi]
        inner_rot = inner_verts[ij:] + inner_verts[:ij]
        # outer loop ... bridge out ... inner loop ... bridge back.
        combined = outer_rot + [outer_rot[0]] + inner_rot + [inner_rot[0]]
        return Polygon(combined)

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_interior(self, spacing: float) -> list[Point2D]:
        """Grid sample of interior points at roughly ``spacing`` km apart.

        Always returns at least one point (the centroid, or the first vertex
        if the centroid falls outside a non-convex shape).
        """
        if spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing!r}")
        box = self.bounding_box()
        points: list[Point2D] = []
        y = box.min_y + spacing / 2.0
        while y <= box.max_y:
            x = box.min_x + spacing / 2.0
            while x <= box.max_x:
                p = Point2D(x, y)
                if self.contains_point(p):
                    points.append(p)
                x += spacing
            y += spacing
        if not points:
            c = self.centroid()
            points.append(c if self.contains_point(c) else self._vertices[0])
        return points


def _clean_vertices(vertices: list[Point2D]) -> list[Point2D]:
    """Drop consecutive (nearly) duplicate vertices, including wrap-around."""
    if not vertices:
        return []
    tol = MERGE_TOLERANCE_KM
    cleaned: list[Point2D] = [vertices[0]]
    last = vertices[0]
    for v in vertices[1:]:
        if not (abs(v.x - last.x) <= tol and abs(v.y - last.y) <= tol):
            cleaned.append(v)
            last = v
    first = cleaned[0]
    while len(cleaned) > 1 and (
        abs(cleaned[-1].x - first.x) <= tol and abs(cleaned[-1].y - first.y) <= tol
    ):
        cleaned.pop()
    return cleaned
