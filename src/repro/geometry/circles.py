"""Geodesic disks, rings and their planar representations.

The raw material of Octant's constraint system is the *disk*: a positive
constraint from a landmark with calibrated bound ``R_L(d)`` is "the target is
inside the disk of radius ``R_L(d)`` centred at the landmark", and a negative
constraint with bound ``r_L(d)`` removes the disk of radius ``r_L(d)``.

Disks live on the sphere but are clipped and accumulated on the projected
plane.  This module constructs them in both representations:

* :func:`geodesic_circle_points` -- points of a circle of constant
  great-circle radius around a geographic centre (computed with destination
  points so the circle is correct on the sphere, not merely in projection).
* :func:`disk_polygon` / :func:`disk_bezier` -- planar polygon / Bezier-path
  representation of such a disk under a given projection.
* :func:`annulus_polygon` -- the ring between an outer (positive) and inner
  (negative) bound from the same landmark, keyholed into a simple polygon.
* :func:`dilate_polygon` / :func:`erode_polygon` -- approximate Minkowski
  sum/difference with a disk, used to turn a *secondary* landmark's location
  region into positive/negative constraints (Section 2 of the paper).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .._lru import BoundedLRU

from .bezier import KAPPA, BezierPath, CubicBezier
from .convexhull import convex_hull
from .point import Point2D
from .polygon import Polygon
from .projection import Projection
from .sphere import GeoPoint

__all__ = [
    "DEFAULT_CIRCLE_SEGMENTS",
    "CircleCache",
    "geodesic_circle_points",
    "disk_polygon",
    "disk_bezier",
    "annulus_polygon",
    "planar_circle_polygon",
    "dilate_polygon",
    "erode_polygon",
    "polygon_from_geopoints",
]

#: Number of boundary vertices used when flattening a disk to a polygon.  At
#: 64 segments the polygon under-estimates the true disk radius by less than
#: 0.13 %, far below measurement noise.
DEFAULT_CIRCLE_SEGMENTS = 64


def geodesic_circle_points(
    center: GeoPoint,
    radius_km: float,
    segments: int = DEFAULT_CIRCLE_SEGMENTS,
) -> list[GeoPoint]:
    """Points of the circle of great-circle radius ``radius_km`` around ``center``.

    Points are returned in counter-clockwise order (as seen looking down on
    the northern hemisphere) starting from due north of the centre.
    """
    if radius_km <= 0:
        raise ValueError(f"radius must be positive, got {radius_km!r}")
    if segments < 3:
        raise ValueError(f"need at least 3 segments, got {segments!r}")
    points = []
    for i in range(segments):
        bearing = 360.0 * i / segments
        points.append(center.destination(bearing, radius_km))
    # Destination bearings advance clockwise; reverse for CCW planar order.
    points.reverse()
    return points


class CircleCache:
    """Cross-target cache of circle geometry, geodesic and planar.

    Two content-addressed layers, both bounded LRU:

    * **Geodesic boundaries.**  A circle's boundary on the sphere depends
      only on its centre, radius and segment count -- never on the
      projection a particular localization works in.  Batch studies
      therefore compute each boundary once per cohort, keyed
      ``(lat, lon, radius_km, segments)``, and re-project the cached
      coordinate arrays per target as one vectorized array operation
      (:meth:`Projection.forward_array`).
    * **Planar polygons.**  Repeated-target serving re-realizes the *same*
      circles under the *same* projection on every request (the projection
      is derived from the landmark set and the target, both stable between
      requests).  :meth:`planar_disk` therefore memoizes the fully projected
      constraint polygon keyed ``(projection_key, circle_key)``, where
      ``projection_key`` comes from :meth:`Projection.cache_key`;
      :meth:`planar_ring` does the same for fixed geographic rings (oceans,
      uninhabited areas).  Entries are exactly the polygons the uncached
      path would construct, so cache hits are bit-identical by construction
      (polygons are immutable).

    Because every entry is immutable and deterministic, a shared instance is
    safe under concurrent use (the :class:`~repro._lru.BoundedLRU` layers
    tolerate racing inserts/evicts; hit/miss counters may undercount under
    races, which only affects reporting) and pickles into process-pool
    workers with whatever it has accumulated.  ``capacity`` bounds each
    layer independently so an online service cannot leak geometry without
    bound (``SolverConfig.circle_cache_size`` is the usual source of the
    bound).
    """

    __slots__ = (
        "_entries",
        "_planar",
        "boundary_hits",
        "boundary_misses",
        "planar_hits",
        "planar_misses",
    )

    def __init__(self, capacity: int = 4096):
        self._entries: BoundedLRU[tuple[np.ndarray, np.ndarray]] = BoundedLRU(capacity)
        self._planar: BoundedLRU[Polygon] = BoundedLRU(capacity)
        self.boundary_hits = 0
        self.boundary_misses = 0
        self.planar_hits = 0
        self.planar_misses = 0

    @property
    def capacity(self) -> int:
        """The per-layer entry bound."""
        return self._entries.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def boundary_arrays(
        self, center: GeoPoint, radius_km: float, segments: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Latitude/longitude arrays of the circle boundary (cached, LRU)."""
        key = (center.lat, center.lon, radius_km, segments)
        cached = self._entries.get(key)
        if cached is not None:
            self.boundary_hits += 1
            return cached
        self.boundary_misses += 1
        boundary = geodesic_circle_points(center, radius_km, segments)
        lats = np.array([p.lat for p in boundary])
        lons = np.array([p.lon for p in boundary])
        self._entries.put(key, (lats, lons))
        return lats, lons

    def warm_boundaries(
        self, specs: "Sequence[tuple[GeoPoint, float, int]]"
    ) -> int:
        """Realize missing geodesic boundaries in one pooled vectorized pass.

        ``specs`` is an iterable of ``(center, radius_km, segments)``.  The
        cohort-axis pipeline collects every circle an entire batch of targets
        will realize (constraint disks, router localization disks) and warms
        them here with a single :func:`~repro.geometry.sphere.destination_arrays`
        call instead of ``segments`` scalar destination points per circle.
        Warmed entries are bitwise identical to what
        :meth:`boundary_arrays` would build on a miss (pinned by the batched
        equivalence suites), so scalar and batched callers stay
        interchangeable.  Invalid specs (non-positive radius, too few
        segments) are skipped -- the scalar path is the one that raises.
        Returns the number of boundaries realized.
        """
        from .sphere import destination_arrays

        missing: dict[tuple, tuple[GeoPoint, float, int]] = {}
        for center, radius_km, segments in specs:
            if radius_km <= 0 or segments < 3:
                continue
            key = (center.lat, center.lon, radius_km, segments)
            if key in missing or self._entries.get(key) is not None:
                continue
            missing[key] = (center, radius_km, segments)
        if not missing:
            return 0

        lats: list[float] = []
        lons: list[float] = []
        bearings: list[float] = []
        dists: list[float] = []
        for center, radius_km, segments in missing.values():
            for i in range(segments):
                lats.append(center.lat)
                lons.append(center.lon)
                bearings.append(360.0 * i / segments)
                dists.append(radius_km)
        out_lat, out_lon = destination_arrays(lats, lons, bearings, dists)

        offset = 0
        for key, (_center, _radius, segments) in missing.items():
            # Scalar geodesic_circle_points reverses into CCW planar order.
            chunk_lat = out_lat[offset : offset + segments][::-1].copy()
            chunk_lon = out_lon[offset : offset + segments][::-1].copy()
            offset += segments
            self.boundary_misses += 1
            self._entries.put(key, (chunk_lat, chunk_lon))
        return len(missing)

    # ------------------------------------------------------------------ #
    # Planar layer: (projection, circle) -> constraint polygon
    # ------------------------------------------------------------------ #
    def planar_disk(
        self,
        center: GeoPoint,
        radius_km: float,
        projection: Projection,
        segments: int,
    ) -> Polygon:
        """The projected disk polygon, memoized per ``(projection, circle)``.

        Falls back to an uncached build (still using the cached geodesic
        boundary) when the projection does not expose a cache key.
        """
        projection_key = projection.cache_key()
        if projection_key is None:
            return self._project_disk(center, radius_km, projection, segments)
        key = (projection_key, center.lat, center.lon, radius_km, segments)
        cached = self._planar.get(key)
        if cached is not None:
            self.planar_hits += 1
            return cached
        self.planar_misses += 1
        polygon = self._project_disk(center, radius_km, projection, segments)
        self._planar.put(key, polygon)
        return polygon

    def planar_ring(
        self, ring: tuple[GeoPoint, ...], projection: Projection
    ) -> Polygon:
        """A projected fixed geographic ring, memoized per ``(projection, ring)``.

        The ring tuple itself is the circle key: geographic constraint rings
        (oceans, uninhabited areas) are module-level constants, so hashing
        the coordinates is cheap relative to re-projecting them.
        """
        projection_key = projection.cache_key()
        if projection_key is None:
            return polygon_from_geopoints(list(ring), projection)
        key = (projection_key, ring)
        cached = self._planar.get(key)
        if cached is not None:
            self.planar_hits += 1
            return cached
        self.planar_misses += 1
        polygon = polygon_from_geopoints(list(ring), projection)
        self._planar.put(key, polygon)
        return polygon

    def warm_planar_disks(
        self,
        projection: Projection,
        specs: "Sequence[tuple[GeoPoint, float, int]]",
    ) -> int:
        """Project missing disk polygons under ``projection`` in one pooled pass.

        The per-projection companion of :meth:`warm_boundaries`: all missing
        ``(center, radius_km, segments)`` disks are projected through a
        single ``forward_array`` call over the concatenated boundaries, and
        the resulting polygons (identical to :meth:`planar_disk` misses) are
        memoized.  No-op (returns 0) when the projection exposes no cache
        key.  Returns the number of polygons realized.
        """
        projection_key = projection.cache_key()
        if projection_key is None:
            return 0
        missing: dict[tuple, tuple[GeoPoint, float, int]] = {}
        for center, radius_km, segments in specs:
            if radius_km <= 0 or segments < 3:
                continue
            key = (projection_key, center.lat, center.lon, radius_km, segments)
            if key in missing or self._planar.get(key) is not None:
                continue
            missing[key] = (center, radius_km, segments)
        if not missing:
            return 0

        boundaries = [
            self.boundary_arrays(center, radius_km, segments)
            for center, radius_km, segments in missing.values()
        ]
        planar = projection.forward_array(
            np.concatenate([lats for lats, _ in boundaries]),
            np.concatenate([lons for _, lons in boundaries]),
        )
        offset = 0
        for key, (lats, _lons) in zip(missing, boundaries):
            count = len(lats)
            chunk = planar[offset : offset + count]
            offset += count
            polygon = Polygon(
                [Point2D(x, y) for x, y in chunk.tolist()]
            ).ensure_ccw()
            self.planar_misses += 1
            self._planar.put(key, polygon)
        return len(missing)

    def _project_disk(
        self,
        center: GeoPoint,
        radius_km: float,
        projection: Projection,
        segments: int,
    ) -> Polygon:
        """Project the cached geodesic boundary in one array operation."""
        lats, lons = self.boundary_arrays(center, radius_km, segments)
        planar = projection.forward_array(lats, lons)
        return Polygon([Point2D(x, y) for x, y in planar.tolist()]).ensure_ccw()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def planar_entries(self) -> int:
        """Number of cached planar polygons (both disks and rings)."""
        return len(self._planar)

    def stats(self) -> dict[str, int]:
        """Hit/miss counters and sizes for cache-effectiveness reporting."""
        return {
            "boundary_entries": len(self._entries),
            "planar_entries": len(self._planar),
            "boundary_hits": self.boundary_hits,
            "boundary_misses": self.boundary_misses,
            "planar_hits": self.planar_hits,
            "planar_misses": self.planar_misses,
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (entries are kept)."""
        self.boundary_hits = 0
        self.boundary_misses = 0
        self.planar_hits = 0
        self.planar_misses = 0


def disk_polygon(
    center: GeoPoint,
    radius_km: float,
    projection: Projection,
    segments: int = DEFAULT_CIRCLE_SEGMENTS,
    cache: CircleCache | None = None,
) -> Polygon:
    """Planar polygon approximating the geodesic disk under ``projection``.

    ``cache`` optionally supplies the geometry from a :class:`CircleCache`:
    the geodesic boundary comes from the boundary layer and the fully
    projected polygon is memoized per ``(projection, circle)`` in the planar
    layer.  Both cached paths produce a polygon bitwise-identical to the
    uncached one (``forward_array`` matches ``forward`` point for point, and
    a planar hit returns the very polygon a miss would have built).
    """
    if cache is not None:
        return cache.planar_disk(center, radius_km, projection, segments)
    boundary = geodesic_circle_points(center, radius_km, segments)
    return Polygon(projection.forward_many(boundary)).ensure_ccw()


def disk_bezier(
    center: GeoPoint,
    radius_km: float,
    projection: Projection,
    arcs: int = 8,
) -> BezierPath:
    """Bezier-bounded representation of the geodesic disk under ``projection``.

    The disk boundary is sampled at ``arcs`` geodesic points and each arc is
    fitted with a cubic segment whose control points follow the local tangent
    directions -- the compact representation the paper advocates.
    """
    if arcs < 3:
        raise ValueError(f"need at least 3 arcs, got {arcs!r}")
    boundary = geodesic_circle_points(center, radius_km, arcs)
    planar = projection.forward_many(boundary)
    center_planar = projection.forward(center)

    segments: list[CubicBezier] = []
    # The KAPPA handle length is exact for quarter-circle arcs; scale it to
    # the actual arc angle for other segment counts.
    arc_angle = 2.0 * math.pi / arcs
    handle = (4.0 / 3.0) * math.tan(arc_angle / 4.0)
    for i in range(arcs):
        p0 = planar[i]
        p3 = planar[(i + 1) % arcs]
        r0 = p0 - center_planar
        r3 = p3 - center_planar
        # Tangents are perpendicular to the local radius, oriented CCW.
        t0 = r0.perpendicular()
        t3 = r3.perpendicular()
        p1 = p0 + t0 * handle
        p2 = p3 - t3 * handle
        segments.append(CubicBezier(p0, p1, p2, p3))
    return BezierPath(segments)


def planar_circle_polygon(
    center: Point2D,
    radius_km: float,
    segments: int = DEFAULT_CIRCLE_SEGMENTS,
) -> Polygon:
    """Plain planar circle polygon (no projection involved)."""
    if radius_km <= 0:
        raise ValueError(f"radius must be positive, got {radius_km!r}")
    return Polygon.regular(center, radius_km, segments)


def annulus_polygon(
    center: GeoPoint,
    outer_radius_km: float,
    inner_radius_km: float,
    projection: Projection,
    segments: int = DEFAULT_CIRCLE_SEGMENTS,
) -> Polygon:
    """The ring ``inner_radius <= distance <= outer_radius`` as a keyholed polygon.

    This is exactly the constraint a single landmark with calibrated bounds
    ``r_L(d) < R_L(d)`` contributes: the target is inside the outer disk but
    outside the inner one.  When ``inner_radius_km`` is zero or negative the
    plain outer disk is returned.
    """
    if outer_radius_km <= 0:
        raise ValueError(f"outer radius must be positive, got {outer_radius_km!r}")
    if inner_radius_km >= outer_radius_km:
        raise ValueError(
            "inner radius must be smaller than outer radius: "
            f"{inner_radius_km!r} >= {outer_radius_km!r}"
        )
    outer = disk_polygon(center, outer_radius_km, projection, segments)
    if inner_radius_km <= 0:
        return outer
    inner = disk_polygon(center, inner_radius_km, projection, segments)
    return outer.with_hole(inner)


def dilate_polygon(polygon: Polygon, radius_km: float, segments: int = 16) -> Polygon:
    """Convex over-approximation of the Minkowski sum of ``polygon`` with a disk.

    A positive constraint observed from a *secondary* landmark whose own
    position is only known to be somewhere inside a region beta is the union
    of disks of radius ``d`` centred at every point of beta -- i.e. the
    Minkowski sum of beta with the disk.  Octant approximates this by the
    convex hull of disks placed at the region's vertices, which always
    *contains* the exact sum (so the constraint stays sound) and is convex,
    keeping the downstream clipping on the fast path.
    """
    if radius_km < 0:
        raise ValueError(f"radius must be non-negative, got {radius_km!r}")
    if radius_km == 0:
        return polygon
    points: list[Point2D] = []
    for v in polygon.vertices:
        for i in range(segments):
            angle = 2.0 * math.pi * i / segments
            points.append(
                Point2D(v.x + radius_km * math.cos(angle), v.y + radius_km * math.sin(angle))
            )
    hull = convex_hull(points)
    return Polygon(hull)


def erode_polygon(polygon: Polygon, radius_km: float) -> Polygon | None:
    """Approximate Minkowski erosion of ``polygon`` by a disk of ``radius_km``.

    A negative constraint observed from a secondary landmark must only exclude
    points that are within distance ``d`` of *every* possible landmark
    position -- the erosion of the exclusion disk by the landmark's region.
    Octant approximates the erosion by shrinking the polygon about its
    centroid so that the maximum vertex distance decreases by ``radius_km``.
    The approximation under-estimates the eroded area, so the resulting
    negative constraint never excludes a point it should not (it stays sound).
    Returns ``None`` when the erosion is empty.
    """
    if radius_km < 0:
        raise ValueError(f"radius must be non-negative, got {radius_km!r}")
    if radius_km == 0:
        return polygon
    centroid = polygon.centroid()
    max_extent = polygon.max_distance_to_point(centroid)
    if max_extent <= radius_km:
        return None
    factor = (max_extent - radius_km) / max_extent
    return polygon.scaled(factor, origin=centroid)


def polygon_from_geopoints(
    points: Sequence[GeoPoint],
    projection: Projection,
    cache: CircleCache | None = None,
) -> Polygon:
    """Project a closed ring of geographic points into a planar polygon.

    ``cache`` memoizes the projected ring per ``(projection, ring)`` in the
    planar layer of a :class:`CircleCache` (rings used as constraints are
    fixed module-level data, so repeated-target serving re-projects them
    constantly).
    """
    if len(points) < 3:
        raise ValueError("need at least three geographic points")
    if cache is not None:
        return cache.planar_ring(tuple(points), projection)
    return Polygon(projection.forward_many(points))
