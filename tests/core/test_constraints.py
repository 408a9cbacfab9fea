"""Tests for the constraint model: distance, disk and region constraints."""

import pytest

from repro.core import (
    ConstraintSet,
    DiskConstraint,
    DistanceConstraint,
    GeoRegionConstraint,
    Polarity,
    latency_weight,
)
from repro.core.constraints import LOWER_BOUND_SEGMENTS
from repro.geometry import (
    AzimuthalEquidistantProjection,
    GeoPoint,
    Region,
    disk_polygon,
)

DENVER = GeoPoint(39.7392, -104.9903)
CHICAGO = GeoPoint(41.8781, -87.6298)
PROJ = AzimuthalEquidistantProjection(DENVER)


class TestLatencyWeight:
    def test_decreasing_in_latency(self):
        assert latency_weight(5.0) > latency_weight(50.0) > latency_weight(200.0)

    def test_zero_latency_is_full_weight(self):
        assert latency_weight(0.0) == pytest.approx(1.0)

    def test_floor_applies(self):
        assert latency_weight(10000.0, floor=0.05) == 0.05

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            latency_weight(-1.0)
        with pytest.raises(ValueError):
            latency_weight(10.0, decay_ms=0.0)


class TestDistanceConstraint:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistanceConstraint("lm", DENVER, max_km=0.0)
        with pytest.raises(ValueError):
            DistanceConstraint("lm", DENVER, max_km=100.0, min_km=-1.0)
        with pytest.raises(ValueError):
            DistanceConstraint("lm", DENVER, max_km=100.0, min_km=100.0)

    def test_default_label(self):
        constraint = DistanceConstraint("lm-7", DENVER, max_km=500.0)
        assert constraint.label == "latency:lm-7"

    def test_positive_only_planar(self):
        constraint = DistanceConstraint("lm", DENVER, max_km=500.0)
        planar = constraint.to_planar(PROJ)
        assert planar.exclusion is None
        assert planar.inclusion.contains_point(PROJ.forward(DENVER))

    def test_annulus_planar(self):
        constraint = DistanceConstraint("lm", DENVER, max_km=800.0, min_km=300.0)
        planar = constraint.to_planar(PROJ)
        assert planar.inclusion is not None
        assert planar.exclusion is not None
        # A point 500 km east of Denver is inside the inclusion, outside the exclusion.
        mid = PROJ.forward(DENVER.destination(90.0, 500.0))
        assert planar.inclusion.contains_point(mid)
        assert not planar.exclusion.contains_point(mid)
        near = PROJ.forward(DENVER.destination(90.0, 100.0))
        assert planar.exclusion.contains_point(near)

    def test_lower_bound_is_an_inscribed_polygon(self):
        """The exclusion has LOWER_BOUND_SEGMENTS vertices, all on the circle.

        Vertices on the geodesic circle of radius ``min_km`` make the polygon
        inscribed: it lies inside the disk, so the bound stays sound.  The
        tolerance covers the projection round trip.
        """
        constraint = DistanceConstraint(
            "lm", DENVER, max_km=800.0, min_km=300.0, circle_segments=32
        )
        planar = constraint.to_planar(PROJ)
        assert len(planar.exclusion) == LOWER_BOUND_SEGMENTS
        assert len(planar.inclusion) == 32
        for vertex in planar.exclusion.vertices:
            assert PROJ.inverse(vertex).distance_km(DENVER) == pytest.approx(
                300.0, abs=1e-6
            )

    def test_disk_specs_are_the_realized_disks(self):
        constraint = DistanceConstraint(
            "lm", DENVER, max_km=800.0, min_km=300.0, circle_segments=32
        )
        assert constraint.disk_specs() == [
            (DENVER, 800.0, 32),
            (DENVER, 300.0, LOWER_BOUND_SEGMENTS),
        ]
        planar = constraint.to_planar(PROJ)
        assert planar.inclusion.coords == disk_polygon(DENVER, 800.0, PROJ, 32).coords
        assert planar.exclusion.coords == (
            disk_polygon(DENVER, 300.0, PROJ, LOWER_BOUND_SEGMENTS).coords
        )
        upper_only = DistanceConstraint("lm", DENVER, max_km=800.0, circle_segments=32)
        assert upper_only.disk_specs() == [(DENVER, 800.0, 32)]

    def test_planar_respects_distance_semantics(self):
        constraint = DistanceConstraint("lm", DENVER, max_km=1600.0)
        planar = constraint.to_planar(PROJ)
        assert planar.inclusion.contains_point(PROJ.forward(CHICAGO))
        tight = DistanceConstraint("lm", DENVER, max_km=800.0).to_planar(PROJ)
        assert not tight.inclusion.contains_point(PROJ.forward(CHICAGO))

    def test_secondary_landmark_dilates_bound(self):
        region = Region.from_polygon(disk_polygon(DENVER, 200.0, PROJ), PROJ)
        primary = DistanceConstraint("lm", DENVER, max_km=500.0).to_planar(PROJ)
        secondary = DistanceConstraint(
            "lm", DENVER, max_km=500.0, landmark_region=region
        ).to_planar(PROJ)
        assert secondary.inclusion.area() > primary.inclusion.area()

    def test_secondary_landmark_erodes_negative_bound(self):
        region = Region.from_polygon(disk_polygon(DENVER, 200.0, PROJ), PROJ)
        secondary = DistanceConstraint(
            "lm", DENVER, max_km=900.0, min_km=300.0, landmark_region=region
        ).to_planar(PROJ)
        primary = DistanceConstraint(
            "lm", DENVER, max_km=900.0, min_km=300.0
        ).to_planar(PROJ)
        if secondary.exclusion is not None:
            assert secondary.exclusion.area() < primary.exclusion.area()

    def test_secondary_landmark_uncertainty_larger_than_min_drops_exclusion(self):
        region = Region.from_polygon(disk_polygon(DENVER, 500.0, PROJ), PROJ)
        secondary = DistanceConstraint(
            "lm", DENVER, max_km=900.0, min_km=300.0, landmark_region=region
        ).to_planar(PROJ)
        assert secondary.exclusion is None


class TestDiskConstraint:
    def test_positive_disk(self):
        constraint = DiskConstraint(DENVER, 300.0, Polarity.POSITIVE, weight=0.5)
        planar = constraint.to_planar(PROJ)
        assert planar.inclusion is not None
        assert planar.exclusion is None
        assert planar.weight == 0.5

    def test_negative_disk(self):
        constraint = DiskConstraint(DENVER, 300.0, Polarity.NEGATIVE)
        planar = constraint.to_planar(PROJ)
        assert planar.inclusion is None
        assert planar.exclusion is not None

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            DiskConstraint(DENVER, 0.0)

    def test_negative_disk_keeps_its_segments(self):
        constraint = DiskConstraint(DENVER, 300.0, Polarity.NEGATIVE, circle_segments=32)
        assert constraint.disk_specs() == [(DENVER, 300.0, 32)]
        assert len(constraint.to_planar(PROJ).exclusion) == 32


class TestGeoRegionConstraint:
    def _ring(self):
        return (
            GeoPoint(40.0, -110.0),
            GeoPoint(40.0, -100.0),
            GeoPoint(35.0, -100.0),
            GeoPoint(35.0, -110.0),
        )

    def test_negative_region(self):
        constraint = GeoRegionConstraint(self._ring(), Polarity.NEGATIVE, weight=5.0)
        planar = constraint.to_planar(PROJ)
        assert planar.inclusion is None
        assert planar.exclusion.contains_point(PROJ.forward(GeoPoint(37.0, -105.0)))

    def test_positive_region(self):
        constraint = GeoRegionConstraint(self._ring(), Polarity.POSITIVE)
        planar = constraint.to_planar(PROJ)
        assert planar.exclusion is None
        assert planar.inclusion is not None

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            GeoRegionConstraint((GeoPoint(0, 0), GeoPoint(1, 1)))


class TestConstraintSet:
    def test_add_ignores_none(self):
        cs = ConstraintSet()
        cs.add(None)
        cs.add(DiskConstraint(DENVER, 100.0))
        assert len(cs) == 1
        assert bool(cs)

    def test_sorted_by_weight(self):
        cs = ConstraintSet(
            [
                DiskConstraint(DENVER, 100.0, weight=0.2, label="light"),
                DiskConstraint(DENVER, 100.0, weight=2.0, label="heavy"),
            ]
        )
        ordered = cs.sorted_by_weight()
        assert ordered[0].label == "heavy"
        assert cs.total_weight() == pytest.approx(2.2)

    def test_partition_by_kind(self):
        cs = ConstraintSet(
            [
                DistanceConstraint("lm", DENVER, max_km=100.0),
                DiskConstraint(DENVER, 100.0),
            ]
        )
        assert len(cs.distance_constraints()) == 1
        assert len(cs.geographic_constraints()) == 1

    def test_planar_constraint_requires_geometry(self):
        from repro.core import PlanarConstraint

        with pytest.raises(ValueError):
            PlanarConstraint(None, None, 1.0, "empty")

    def test_planar_constraint_rejects_negative_weight(self):
        from repro.core import PlanarConstraint

        disk = disk_polygon(DENVER, 100.0, PROJ)
        with pytest.raises(ValueError):
            PlanarConstraint(disk, None, -1.0, "bad")
