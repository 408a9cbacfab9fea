"""Constraint model: regions where the target can or cannot be.

A constraint pairs a region on the globe with a weight expressing how much
the system believes it (Section 2 and 2.4 of the paper).  Constraints come in
two polarities:

* **positive** -- the target lies inside the region,
* **negative** -- the target lies outside the region.

Concrete constraint types cover the sources the paper uses:

* :class:`DistanceConstraint` -- an annulus ``r <= distance(L, target) <= R``
  around a landmark whose own position is either a point (primary landmark)
  or a region (secondary landmark).
* :class:`GeoRegionConstraint` -- an arbitrary geographic polygon, used for
  oceans and uninhabited areas (negative) or zipcode neighbourhoods
  (positive).
* :class:`DiskConstraint` -- a plain disk around a point, used for DNS-hinted
  router positions and WHOIS-registered cities.

Constraints are *descriptions*; they are turned into planar polygons only at
solve time, under the projection chosen for the particular localization, via
:meth:`Constraint.to_planar`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..geometry import (
    CircleCache,
    GeoPoint,
    Polygon,
    Projection,
    Region,
    dilate_polygon,
    disk_polygon,
    erode_polygon,
    polygon_from_geopoints,
)

__all__ = [
    "Polarity",
    "PlanarConstraint",
    "Constraint",
    "DistanceConstraint",
    "DiskConstraint",
    "GeoRegionConstraint",
    "ConstraintSet",
    "latency_weight",
    "LOWER_BOUND_SEGMENTS",
]

#: Vertices of every lower-bound (exclusion) disk.  The polygon is inscribed:
#: its vertices lie on the geodesic circle, so it lies inside the disk and
#: excluding it can never exclude a point the true lower bound would keep --
#: the bound stays sound and only gets looser.  The octagon covers 90.0% of
#: the disk's area.  Against 32-gons, over warm leave-one-out solves of the
#: tracked 30-host cohort, it cut the wedge chains' clipped vertices per
#: target from 8,081 to 1,751 and the exclusion phase from 18.0 to 10.9 ms
#: (2-core x86 host, NumPy backend), and moved Octant's median error from
#: 116.2 to 114.4 mi and its containment from 3/30 to 5/30.  Six- and 4-gons
#: cost median error; upper bounds keep ``SolverConfig.circle_segments``.
LOWER_BOUND_SEGMENTS = 8


class Polarity(enum.Enum):
    """Whether a constraint asserts presence inside or absence from its region."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class PlanarConstraint:
    """A constraint realized as planar geometry under a specific projection.

    ``inclusion`` is the polygon the target should be inside (``None`` for a
    purely negative constraint), ``exclusion`` the polygon it should be
    outside (``None`` when there is no negative component).  A calibrated
    latency measurement produces both at once: the outer disk as inclusion and
    the inner disk as exclusion.
    """

    inclusion: Polygon | None
    exclusion: Polygon | None
    weight: float
    label: str

    def __post_init__(self) -> None:
        if self.inclusion is None and self.exclusion is None:
            raise ValueError("a planar constraint needs an inclusion or an exclusion")
        if self.weight < 0:
            raise ValueError(f"constraint weight must be non-negative, got {self.weight!r}")


class Constraint:
    """Base class for location constraints."""

    #: Human-readable label identifying the source of the constraint.
    label: str
    #: Strength of the belief in this constraint (Section 2.4).
    weight: float

    def to_planar(self, projection: Projection) -> PlanarConstraint | None:
        """Realize the constraint as planar polygons under ``projection``.

        Returns ``None`` when the constraint degenerates to nothing under the
        given configuration (for example an erosion that comes out empty).
        """
        raise NotImplementedError

    def disk_specs(self) -> list[tuple[GeoPoint, float, int]]:
        """The ``(center, radius_km, segments)`` disks :meth:`to_planar` realizes.

        :meth:`ConstraintPipeline.planarize_many` warms the circle cache with
        exactly these, so the realization that follows finds every disk
        cached.  A constraint built from no circle returns an empty list.
        """
        return []


@dataclass(frozen=True)
class DistanceConstraint(Constraint):
    """Distance bounds from a landmark: ``min_km <= dist(landmark, target) <= max_km``.

    For a primary landmark ``landmark_region`` is ``None`` and the bounds are
    measured from ``landmark_location``.  For a secondary landmark the
    landmark's own position is uncertain: ``landmark_region`` holds its
    estimated location region (in the *same projection* the constraint will be
    realized under), and the bounds are dilated/eroded accordingly so the
    resulting constraint stays sound (Section 2 of the paper).

    The upper bound is a ``circle_segments``-gon; the lower bound, when
    ``min_km > 0``, is an inscribed :data:`LOWER_BOUND_SEGMENTS`-gon, which
    lies inside its disk and so never excludes a point the bound would keep.
    """

    landmark_id: str
    landmark_location: GeoPoint
    max_km: float
    min_km: float = 0.0
    weight: float = 1.0
    label: str = ""
    landmark_region: Region | None = None
    circle_segments: int = 48
    #: Optional shared cache of geodesic circle boundaries (see
    #: :class:`~repro.geometry.circles.CircleCache`); excluded from equality
    #: because it is plumbing, not part of the constraint's meaning.
    geometry_cache: CircleCache | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_km <= 0:
            raise ValueError(f"max_km must be positive, got {self.max_km!r}")
        if self.min_km < 0:
            raise ValueError(f"min_km must be non-negative, got {self.min_km!r}")
        if self.min_km >= self.max_km:
            raise ValueError(
                f"min_km must be smaller than max_km, got {self.min_km!r} >= {self.max_km!r}"
            )
        if not self.label:
            object.__setattr__(self, "label", f"latency:{self.landmark_id}")

    def _is_secondary(self) -> bool:
        return self.landmark_region is not None and not self.landmark_region.is_empty()

    def disk_specs(self) -> list[tuple[GeoPoint, float, int]]:
        """The upper-bound disk (primary landmarks only), then the lower bound."""
        specs = []
        if not self._is_secondary():
            specs.append((self.landmark_location, self.max_km, self.circle_segments))
        if self.min_km > 0:
            specs.append((self.landmark_location, self.min_km, LOWER_BOUND_SEGMENTS))
        return specs

    def to_planar(self, projection: Projection) -> PlanarConstraint | None:
        disks = [
            disk_polygon(center, radius_km, projection, segments, cache=self.geometry_cache)
            for center, radius_km, segments in self.disk_specs()
        ]
        inner: Polygon | None = disks.pop() if self.min_km > 0 else None
        if not self._is_secondary():
            return PlanarConstraint(
                inclusion=disks[0], exclusion=inner, weight=self.weight, label=self.label
            )
        # Secondary landmark: the positive bound grows by the landmark's own
        # positional uncertainty (Minkowski dilation) and the negative bound
        # shrinks by it (erosion), keeping both sides sound.
        pieces = self.landmark_region.pieces
        base = max(pieces, key=lambda p: p.weighted_area()).polygon
        uncertainty = base.max_distance_to_point(base.centroid())
        outer = dilate_polygon(base, self.max_km, segments=self.circle_segments // 2)
        if inner is not None:
            if self.min_km - uncertainty <= 0:
                inner = None
            else:
                inner = erode_polygon(inner, uncertainty)
        return PlanarConstraint(
            inclusion=outer, exclusion=inner, weight=self.weight, label=self.label
        )


@dataclass(frozen=True)
class DiskConstraint(Constraint):
    """A plain disk around a geographic point, positive or negative."""

    center: GeoPoint
    radius_km: float
    polarity: Polarity = Polarity.POSITIVE
    weight: float = 1.0
    label: str = "disk"
    circle_segments: int = 48
    geometry_cache: CircleCache | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.radius_km <= 0:
            raise ValueError(f"radius_km must be positive, got {self.radius_km!r}")

    def disk_specs(self) -> list[tuple[GeoPoint, float, int]]:
        return [(self.center, self.radius_km, self.circle_segments)]

    def to_planar(self, projection: Projection) -> PlanarConstraint | None:
        ((center, radius_km, segments),) = self.disk_specs()
        disk = disk_polygon(
            center, radius_km, projection, segments, cache=self.geometry_cache
        )
        if self.polarity is Polarity.POSITIVE:
            return PlanarConstraint(disk, None, self.weight, self.label)
        return PlanarConstraint(None, disk, self.weight, self.label)


@dataclass(frozen=True)
class GeoRegionConstraint(Constraint):
    """An arbitrary geographic polygon used as a constraint region."""

    ring: tuple[GeoPoint, ...]
    polarity: Polarity = Polarity.NEGATIVE
    weight: float = 1.0
    label: str = "region"
    geometry_cache: CircleCache | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.ring) < 3:
            raise ValueError("a region constraint needs at least 3 boundary points")

    def to_planar(self, projection: Projection) -> PlanarConstraint | None:
        polygon = polygon_from_geopoints(
            list(self.ring), projection, cache=self.geometry_cache
        ).ensure_ccw()
        if self.polarity is Polarity.POSITIVE:
            return PlanarConstraint(polygon, None, self.weight, self.label)
        return PlanarConstraint(None, polygon, self.weight, self.label)


class ConstraintSet:
    """An ordered collection of constraints feeding one localization."""

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self._constraints: list[Constraint] = list(constraints)

    def add(self, constraint: Constraint | None) -> None:
        """Append a constraint; ``None`` is ignored to simplify call sites."""
        if constraint is not None:
            self._constraints.append(constraint)

    def extend(self, constraints: Iterable[Constraint]) -> None:
        """Append several constraints."""
        for constraint in constraints:
            self.add(constraint)

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __bool__(self) -> bool:
        return bool(self._constraints)

    @property
    def constraints(self) -> list[Constraint]:
        """The constraints in insertion order (copy)."""
        return list(self._constraints)

    def sorted_by_weight(self) -> list[Constraint]:
        """Constraints sorted by decreasing weight (the solver's processing order)."""
        return sorted(self._constraints, key=lambda c: c.weight, reverse=True)

    def total_weight(self) -> float:
        """Sum of all constraint weights."""
        return sum(c.weight for c in self._constraints)

    def distance_constraints(self) -> list["DistanceConstraint"]:
        """Only the latency-derived distance constraints."""
        return [c for c in self._constraints if isinstance(c, DistanceConstraint)]

    def geographic_constraints(self) -> list[Constraint]:
        """Only the non-latency constraints (geographic, WHOIS, DNS hints)."""
        return [c for c in self._constraints if not isinstance(c, DistanceConstraint)]


def latency_weight(
    latency_ms: float,
    decay_ms: float = 50.0,
    floor: float = 0.02,
) -> float:
    """The paper's exponentially decaying confidence weight for a latency.

    Constraints from nearby (low-latency) landmarks are more trustworthy than
    those from distant ones; the weight decays as ``exp(-latency / decay)``
    and is clamped below by ``floor`` so distant landmarks still contribute.
    """
    if latency_ms < 0:
        raise ValueError(f"latency must be non-negative, got {latency_ms!r}")
    if decay_ms <= 0:
        raise ValueError(f"decay_ms must be positive, got {decay_ms!r}")
    return max(floor, math.exp(-latency_ms / decay_ms))
