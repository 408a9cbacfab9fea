"""Tests for the weighted geometric solver."""

import pytest

from repro.core import PlanarConstraint, SolverConfig, WeightedRegionSolver
from repro.geometry import (
    AzimuthalEquidistantProjection,
    GeoPoint,
    Point2D,
    Polygon,
    disk_polygon,
)

CENTER = GeoPoint(40.0, -95.0)
PROJ = AzimuthalEquidistantProjection(CENTER)


def disk_at(bearing_deg, distance_km, radius_km):
    """A planar disk whose centre is offset from the projection centre."""
    centre = CENTER.destination(bearing_deg, distance_km) if distance_km > 0 else CENTER
    return disk_polygon(centre, radius_km, PROJ)


def positive(polygon, weight=1.0, label="pos"):
    return PlanarConstraint(polygon, None, weight, label)


def negative(polygon, weight=1.0, label="neg"):
    return PlanarConstraint(None, polygon, weight, label)


class TestWeightedSolver:
    def test_no_constraints_is_empty(self):
        solver = WeightedRegionSolver()
        region = solver.solve([], PROJ)
        assert region.is_empty()

    def test_single_disk(self):
        solver = WeightedRegionSolver()
        disk = disk_at(0, 0, 300.0)
        region = solver.solve([positive(disk)], PROJ)
        assert not region.is_empty()
        assert region.contains_geopoint(CENTER)
        assert region.area_km2() == pytest.approx(disk.area(), rel=0.05)

    def test_two_overlapping_disks_intersect(self):
        solver = WeightedRegionSolver()
        a = disk_at(0, 0, 400.0)
        b = disk_at(90.0, 300.0, 400.0)
        region = solver.solve([positive(a), positive(b)], PROJ)
        # The heaviest piece is the lens where both constraints hold.
        heavy = region.heaviest_piece()
        assert heavy.weight == pytest.approx(2.0)
        assert heavy.polygon.area() < min(a.area(), b.area())

    def test_conflicting_constraint_is_outvoted(self):
        """A single erroneous constraint must not collapse the region (Section 2.4)."""
        solver = WeightedRegionSolver()
        good = [positive(disk_at(0, 0, 400.0), weight=1.0, label=f"good{i}") for i in range(3)]
        # A far-away disk that is inconsistent with the rest.
        bad = positive(disk_at(90.0, 3000.0, 200.0), weight=1.0, label="bad")
        region = solver.solve(good + [bad], PROJ)
        assert not region.is_empty()
        assert region.contains_geopoint(CENTER)

    def test_negative_constraint_carves_hole(self):
        solver = WeightedRegionSolver()
        outer = positive(disk_at(0, 0, 500.0), weight=1.0)
        hole = negative(disk_at(0, 0, 150.0), weight=1.0)
        region = solver.solve([outer, hole], PROJ)
        heavy = region.heaviest_piece()
        assert heavy.weight == pytest.approx(2.0)
        assert not heavy.polygon.contains_point(PROJ.forward(CENTER))

    def test_annulus_constraint(self):
        solver = WeightedRegionSolver()
        annulus = PlanarConstraint(
            disk_at(0, 0, 600.0), disk_at(0, 0, 200.0), 1.0, "annulus"
        )
        region = solver.solve([annulus], PROJ)
        probe_inside_ring = CENTER.destination(45.0, 400.0)
        probe_in_hole = CENTER.destination(45.0, 50.0)
        assert region.contains_geopoint(probe_inside_ring)
        heavy = region.heaviest_piece()
        assert not heavy.polygon.contains_point(PROJ.forward(probe_in_hole))

    def test_weights_control_which_piece_wins(self):
        solver = WeightedRegionSolver()
        heavy_disk = positive(disk_at(0, 0, 300.0), weight=5.0, label="heavy")
        light_disk = positive(disk_at(90.0, 2000.0, 300.0), weight=0.5, label="light")
        region = solver.solve([heavy_disk, light_disk], PROJ)
        assert region.contains_geopoint(CENTER)
        estimate = region.point_estimate()
        assert estimate.distance_km(CENTER) < 400.0

    def test_diagnostics_populated(self):
        solver = WeightedRegionSolver()
        constraints = [positive(disk_at(0, 0, 400.0)), positive(disk_at(45.0, 200.0, 400.0))]
        solver.solve(constraints, PROJ)
        assert solver.diagnostics.constraints_applied == 2
        assert solver.diagnostics.constraints_skipped == 0
        assert solver.diagnostics.final_piece_count >= 1
        assert solver.diagnostics.max_weight == pytest.approx(2.0)

    def test_all_covering_negative_constraint_gains_no_weight(self):
        """A negative constraint that would erase everything cannot win:
        the accumulated evidence keeps its weight and the region survives."""
        config = SolverConfig()
        solver = WeightedRegionSolver(config)
        a = positive(disk_at(0, 0, 200.0), weight=2.0, label="anchor")
        wipe = negative(disk_at(0, 0, 5000.0), weight=1.0, label="wipe")
        region = solver.solve([a, wipe], PROJ)
        assert not region.is_empty()
        assert region.max_weight() == pytest.approx(2.0)
        assert region.contains_geopoint(CENTER)

    def test_exact_mode_partitions_area(self):
        """Exact-complement mode keeps disjoint pieces whose areas add up."""
        config = SolverConfig(exact_complements=True, max_pieces=64)
        solver = WeightedRegionSolver(config)
        a = positive(disk_at(0, 0, 300.0), weight=2.0, label="anchor")
        hole = negative(disk_at(0, 0, 100.0), weight=1.0, label="hole")
        region = solver.solve([a, hole], PROJ)
        assert not region.is_empty()
        heavy = region.heaviest_piece()
        assert heavy.weight == pytest.approx(3.0)
        # The heaviest piece is the annulus between the two disks.
        expected = disk_at(0, 0, 300.0).area() - disk_at(0, 0, 100.0).area()
        assert heavy.polygon.area() == pytest.approx(expected, rel=0.1)

    def test_piece_cap_respected(self):
        config = SolverConfig(max_pieces=4)
        solver = WeightedRegionSolver(config)
        constraints = [
            positive(disk_at(b, 500.0, 350.0), weight=1.0, label=f"c{b}")
            for b in range(0, 360, 45)
        ]
        solver.solve(constraints, PROJ)
        assert solver.diagnostics.max_pieces_seen <= 4

    def test_exact_complement_mode_area_accounting(self):
        config = SolverConfig(exact_complements=True, max_pieces=32)
        solver = WeightedRegionSolver(config)
        disk = disk_at(0, 0, 300.0)
        region = solver.solve([positive(disk)], PROJ)
        # With exact complements, the pieces partition the world square: the
        # heaviest piece is the disk, the rest is the remainder.
        heavy = region.heaviest_piece()
        assert heavy.weight == pytest.approx(1.0)
        assert heavy.polygon.area() == pytest.approx(disk.area(), rel=0.05)


class TestSliverFilteringUnits:
    """The weighted solver filters slivers in km^2 (``area_km2``)."""

    def test_polygon_area_km2_matches_planar_area(self):
        disk = disk_at(0, 0, 300.0)
        assert disk.area_km2() == disk.area()

    def test_sliver_lens_dropped_consistently(self):
        # Two disks whose overlap is a thin lens well under the threshold.
        a = positive(disk_at(0, 0, 200.0))
        b = positive(disk_at(90.0, 399.0, 200.0))
        solver = WeightedRegionSolver(
            SolverConfig(min_piece_area_km2=500.0, max_pieces=64)
        )
        weighted = solver.solve([a, b], PROJ)
        # The weighted solver drops the lens; no surviving piece is smaller
        # than the km^2 threshold.
        assert all(p.area_km2() >= 500.0 for p in weighted.pieces)
        assert weighted.heaviest_piece().weight < 2.0


class TestSolverConfigEngine:
    def test_default_engine_is_fused(self):
        assert SolverConfig().engine == "fused"

    @pytest.mark.parametrize("engine", ["fuesd", "vector", ""])
    def test_unknown_engine_rejected(self, engine):
        """A misspelt or retired engine fails at construction instead of
        silently running the slow object reference."""
        with pytest.raises(ValueError, match=r"\('fused', 'object'\)"):
            SolverConfig(engine=engine)

    def test_override_is_validated_too(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(SolverConfig(), engine="vector")
