"""Weighted, possibly disconnected location regions.

The output of an Octant localization -- and the intermediate state of the
solver -- is a :class:`Region`: a set of planar polygon pieces, each carrying
a weight that captures how strongly the constraint system believes the target
lies in that piece.  Regions may be non-convex and disconnected, the same
generality the paper obtains from its Bezier-bounded representation (here the
piece boundaries are polygons).

A region is tied to the projection it was built under so that its pieces can
be mapped back to geographic coordinates (for the final point estimate, for
containment checks against the target's true position, and for reporting
region sizes in square miles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .bbox import BoundingBox
from .clipping import intersect_polygons, subtract_polygons, union_polygons
from .point import Point2D
from .polygon import Polygon
from .projection import Projection
from .sphere import GeoPoint, km_to_miles

__all__ = ["RegionPiece", "Region"]


@dataclass(frozen=True)
class RegionPiece:
    """One connected piece of a region, with its accumulated weight."""

    polygon: Polygon
    weight: float = 1.0

    def area_km2(self) -> float:
        """Area of the piece in square kilometres."""
        return self.polygon.area_km2()

    def weighted_area(self) -> float:
        """Area multiplied by the piece weight."""
        return self.weight * self.polygon.area_km2()


class Region:
    """A weighted union of polygon pieces in a shared projected plane."""

    __slots__ = ("_pieces", "_projection")

    def __init__(
        self,
        pieces: Sequence[RegionPiece] | Iterable[RegionPiece],
        projection: Projection | None = None,
    ):
        self._pieces = [p for p in pieces if p.polygon.area() > 0.0]
        self._projection = projection

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, projection: Projection | None = None) -> "Region":
        """A region with no pieces."""
        return cls([], projection)

    @classmethod
    def from_polygon(
        cls,
        polygon: Polygon,
        projection: Projection | None = None,
        weight: float = 1.0,
    ) -> "Region":
        """A region consisting of a single polygon piece."""
        return cls([RegionPiece(polygon, weight)], projection)

    @classmethod
    def from_polygons(
        cls,
        polygons: Iterable[Polygon],
        projection: Projection | None = None,
        weight: float = 1.0,
    ) -> "Region":
        """A region made of several pieces sharing one weight."""
        return cls([RegionPiece(p, weight) for p in polygons], projection)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def pieces(self) -> list[RegionPiece]:
        """The weighted pieces (copy)."""
        return list(self._pieces)

    @property
    def projection(self) -> Projection | None:
        """The projection the planar coordinates are expressed in."""
        return self._projection

    def __len__(self) -> int:
        return len(self._pieces)

    def __iter__(self) -> Iterator[RegionPiece]:
        return iter(self._pieces)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Region({len(self._pieces)} pieces, area={self.area_km2():.1f} km^2)"

    def is_empty(self) -> bool:
        """True when the region contains no area."""
        return not self._pieces or self.area_km2() <= 0.0

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def area_km2(self) -> float:
        """Total area in square kilometres (pieces assumed non-overlapping)."""
        return sum(p.area_km2() for p in self._pieces)

    def area_square_miles(self) -> float:
        """Total area in square statute miles."""
        return self.area_km2() * (km_to_miles(1.0) ** 2)

    def max_weight(self) -> float:
        """Largest piece weight, or 0 for an empty region."""
        return max((p.weight for p in self._pieces), default=0.0)

    def bounding_box(self) -> BoundingBox | None:
        """Bounding box of all pieces, or ``None`` for an empty region."""
        if not self._pieces:
            return None
        box = self._pieces[0].polygon.bounding_box()
        for piece in self._pieces[1:]:
            box = box.union(piece.polygon.bounding_box())
        return box

    # ------------------------------------------------------------------ #
    # Point estimates and containment
    # ------------------------------------------------------------------ #
    def weighted_centroid(self) -> Point2D | None:
        """Weight-and-area weighted centroid of all pieces (planar)."""
        if not self._pieces:
            return None
        total = 0.0
        sx = sy = 0.0
        for piece in self._pieces:
            w = piece.weighted_area()
            c = piece.polygon.centroid()
            sx += w * c.x
            sy += w * c.y
            total += w
        if total <= 0.0:
            return None
        return Point2D(sx / total, sy / total)

    def representative_point(self) -> Point2D | None:
        """A planar point guaranteed to lie inside the region.

        The point estimate is anchored to the *heaviest* piece -- the area
        where the most constraint weight accumulated -- so that including
        lower-weight surrounding pieces in the final region (to reach the
        configured size threshold) widens the region without dragging the
        point estimate away from the strongest evidence.  Falls back to the
        overall weighted centroid, then to an interior sample, for degenerate
        shapes.
        """
        best = self.heaviest_piece()
        if best is None:
            return None
        c = best.polygon.centroid()
        if best.polygon.contains_point(c):
            return c
        centroid = self.weighted_centroid()
        if centroid is not None and self.contains_planar(centroid):
            return centroid
        interior = best.polygon.sample_interior(
            spacing=max(1.0, math.sqrt(best.polygon.area()) / 4.0)
        )
        return interior[0]

    def point_estimate(self) -> GeoPoint | None:
        """Geographic point estimate (requires the region to carry a projection)."""
        planar = self.representative_point()
        if planar is None:
            return None
        if self._projection is None:
            raise ValueError("region has no projection; cannot produce a GeoPoint")
        return self._projection.inverse(planar)

    def heaviest_piece(self) -> RegionPiece | None:
        """The piece with the largest weight (ties broken by area)."""
        if not self._pieces:
            return None
        return max(self._pieces, key=lambda p: (p.weight, p.area_km2()))

    def contains_planar(self, point: Point2D) -> bool:
        """True when a planar point lies inside any piece."""
        return any(p.polygon.contains_point(point) for p in self._pieces)

    def contains_geopoint(self, point: GeoPoint) -> bool:
        """True when a geographic point lies inside the region."""
        if self._projection is None:
            raise ValueError("region has no projection; cannot test a GeoPoint")
        return self.contains_planar(self._projection.forward(point))

    def distance_to_geopoint_km(self, point: GeoPoint) -> float:
        """Planar distance (km) from a geographic point to the region (0 if inside)."""
        if self._projection is None:
            raise ValueError("region has no projection; cannot test a GeoPoint")
        planar = self._projection.forward(point)
        if not self._pieces:
            return math.inf
        return min(p.polygon.distance_to_point(planar) for p in self._pieces)

    # ------------------------------------------------------------------ #
    # Boolean algebra
    # ------------------------------------------------------------------ #
    def intersect_polygon(self, polygon: Polygon, weight_increment: float = 0.0) -> "Region":
        """Intersect every piece with ``polygon``; weights gain ``weight_increment``."""
        pieces: list[RegionPiece] = []
        for piece in self._pieces:
            for poly in intersect_polygons(piece.polygon, polygon):
                pieces.append(RegionPiece(poly, piece.weight + weight_increment))
        return Region(pieces, self._projection)

    def subtract_polygon(self, polygon: Polygon) -> "Region":
        """Remove ``polygon`` from every piece, keeping piece weights."""
        pieces: list[RegionPiece] = []
        for piece in self._pieces:
            for poly in subtract_polygons(piece.polygon, polygon):
                pieces.append(RegionPiece(poly, piece.weight))
        return Region(pieces, self._projection)

    def union_with(self, other: "Region") -> "Region":
        """Union of two regions.

        Pieces are concatenated; overlapping pieces from the two operands are
        merged pairwise when they actually intersect, keeping the larger of
        the two weights for the merged piece (the paper unions the weighted
        pieces sorted by weight, so the stronger belief wins).
        """
        if not self._pieces:
            return Region(other.pieces, self._projection or other.projection)
        if not other.pieces:
            return Region(self._pieces, self._projection)
        merged: list[RegionPiece] = list(self._pieces)
        for addition in other.pieces:
            overlapping_idx = [
                i
                for i, existing in enumerate(merged)
                if existing.polygon.bounding_box().intersects(addition.polygon.bounding_box())
                and intersect_polygons(existing.polygon, addition.polygon)
            ]
            if not overlapping_idx:
                merged.append(addition)
                continue
            # Merge the addition with the first overlapping piece.
            i = overlapping_idx[0]
            existing = merged[i]
            unioned = union_polygons(existing.polygon, addition.polygon)
            weight = max(existing.weight, addition.weight)
            replacement = [RegionPiece(poly, weight) for poly in unioned]
            merged = merged[:i] + replacement + merged[i + 1 :]
        return Region(merged, self._projection or other.projection)

    def filter_by_weight(self, min_weight: float) -> "Region":
        """Keep only pieces whose weight is at least ``min_weight``."""
        return Region(
            [p for p in self._pieces if p.weight >= min_weight], self._projection
        )

    def top_pieces(self, count: int) -> "Region":
        """Keep the ``count`` heaviest pieces."""
        if count <= 0:
            return Region.empty(self._projection)
        ranked = sorted(self._pieces, key=lambda p: (p.weight, p.area_km2()), reverse=True)
        return Region(ranked[:count], self._projection)

    def transformed(self, fn: Callable[[Point2D], Point2D]) -> "Region":
        """Region with every piece polygon transformed point-wise."""
        return Region(
            [RegionPiece(p.polygon.transformed(fn), p.weight) for p in self._pieces],
            self._projection,
        )

    # ------------------------------------------------------------------ #
    # Sampling / export
    # ------------------------------------------------------------------ #
    def sample_geopoints(self, spacing_km: float) -> list[GeoPoint]:
        """Geographic grid sample of the region interior."""
        if self._projection is None:
            raise ValueError("region has no projection; cannot sample GeoPoints")
        points: list[GeoPoint] = []
        for piece in self._pieces:
            for planar in piece.polygon.sample_interior(spacing_km):
                points.append(self._projection.inverse(planar))
        return points

    def boundary_geopoints(self) -> list[list[GeoPoint]]:
        """Boundary rings of every piece in geographic coordinates."""
        if self._projection is None:
            raise ValueError("region has no projection; cannot export GeoPoints")
        return [
            self._projection.inverse_many(piece.polygon.vertices) for piece in self._pieces
        ]
