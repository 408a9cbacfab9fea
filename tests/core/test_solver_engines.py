"""Vector-vs-object solver engine equivalence.

The vectorized flat-buffer kernel (``repro.geometry.kernel``) must be
*bit-identical* to the object engine on everything an estimate exposes: the
point estimate, region area, piece count and coordinates, the selected and
maximum weights, and the solver diagnostics that feed reporting.  This suite
pins that contract on randomized synthetic constraint systems (both
polarities, annuli, keyholed exclusions) plus targeted edge cases for empty
clips, degenerate slivers and the prefilter's classifications.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import PlanarConstraint, SolverConfig, WeightedRegionSolver
from repro.core.solver import strict_intersection, universe_polygon
from repro.geometry import (
    AzimuthalEquidistantProjection,
    GeoPoint,
    Point2D,
    Polygon,
    disk_polygon,
)
from repro.geometry.kernel import PieceBuffer

CENTER = GeoPoint(40.0, -95.0)
PROJ = AzimuthalEquidistantProjection(CENTER)


def disk_at(bearing_deg, distance_km, radius_km, segments=32):
    centre = CENTER.destination(bearing_deg, distance_km) if distance_km > 0 else CENTER
    return disk_polygon(centre, radius_km, PROJ, segments)


def positive(polygon, weight=1.0, label="pos"):
    return PlanarConstraint(polygon, None, weight, label)


def negative(polygon, weight=1.0, label="neg"):
    return PlanarConstraint(None, polygon, weight, label)


def annulus(outer, inner, weight=1.0, label="annulus"):
    return PlanarConstraint(outer, inner, weight, label)


def solve_both(constraints, config_kwargs=None):
    """Run the same constraint set through both engines."""
    kwargs = dict(config_kwargs or {})
    vector = WeightedRegionSolver(SolverConfig(engine="vector", **kwargs))
    obj = WeightedRegionSolver(SolverConfig(engine="object", **kwargs))
    region_v = vector.solve(constraints, PROJ)
    region_o = obj.solve(constraints, PROJ)
    return (vector, region_v), (obj, region_o)


def assert_identical(constraints, config_kwargs=None):
    """The full bit-identity contract between the two engines."""
    (vector, region_v), (obj, region_o) = solve_both(constraints, config_kwargs)

    # Estimate metrics: exact float equality, no tolerances.
    assert region_v.area_km2() == region_o.area_km2()
    assert len(region_v.pieces) == len(region_o.pieces)
    pv = region_v.representative_point()
    po = region_o.representative_point()
    if po is None:
        assert pv is None
    else:
        assert (pv.x, pv.y) == (po.x, po.y)
    gv = region_v.point_estimate() if region_v else None
    go = region_o.point_estimate() if region_o else None
    if go is None:
        assert gv is None
    else:
        assert (gv.lat, gv.lon) == (go.lat, go.lon)

    # Piece-level identity: weights and every vertex coordinate, in order.
    for piece_v, piece_o in zip(region_v.pieces, region_o.pieces):
        assert piece_v.weight == piece_o.weight
        assert piece_v.polygon.coords == piece_o.polygon.coords

    # Diagnostics the reports consume.
    dv, do = vector.diagnostics, obj.diagnostics
    assert dv.constraints_applied == do.constraints_applied
    assert dv.constraints_skipped == do.constraints_skipped
    assert dv.dropped_constraints == do.dropped_constraints
    assert dv.final_piece_count == do.final_piece_count
    assert dv.max_weight == do.max_weight
    assert dv.selected_weight == do.selected_weight
    assert dv.max_pieces_seen == do.max_pieces_seen
    assert dv.engine == "vector" and do.engine == "object"
    return region_v, region_o


# --------------------------------------------------------------------------- #
# Randomized equivalence sweep
# --------------------------------------------------------------------------- #
def random_constraints(rng: random.Random):
    """A seeded synthetic constraint system like a real localization's."""
    constraints = []
    count = rng.randint(3, 12)
    for i in range(count):
        bearing = rng.uniform(0.0, 360.0)
        distance = rng.uniform(0.0, 1200.0)
        outer_radius = rng.uniform(80.0, 1500.0)
        weight = rng.choice([1.0, rng.uniform(0.02, 5.0)])
        segments = rng.choice([16, 32])
        kind = rng.random()
        if kind < 0.45:
            constraints.append(
                positive(
                    disk_at(bearing, distance, outer_radius, segments),
                    weight,
                    f"pos{i}",
                )
            )
        elif kind < 0.65:
            inner = rng.uniform(0.05, 0.9) * outer_radius
            constraints.append(
                annulus(
                    disk_at(bearing, distance, outer_radius, segments),
                    disk_at(bearing, distance, inner, segments),
                    weight,
                    f"ann{i}",
                )
            )
        else:
            radius = rng.uniform(30.0, 600.0)
            constraints.append(
                negative(disk_at(bearing, distance, radius, segments), weight, f"neg{i}")
            )
    return constraints


@pytest.mark.parametrize("seed", range(20))
def test_randomized_equivalence(seed):
    rng = random.Random(1000 + seed)
    constraints = random_constraints(rng)
    assert_identical(constraints)


@pytest.mark.parametrize("seed", range(5))
def test_randomized_equivalence_small_pieces(seed):
    """Tight piece caps force heavy pruning interaction in both engines."""
    rng = random.Random(2000 + seed)
    constraints = random_constraints(rng)
    assert_identical(constraints, {"max_pieces": 4})


@pytest.mark.parametrize("seed", range(5))
def test_randomized_equivalence_sliver_threshold(seed):
    """A large sliver threshold exercises the area filter identically."""
    rng = random.Random(3000 + seed)
    constraints = random_constraints(rng)
    assert_identical(constraints, {"min_piece_area_km2": 500.0})


# --------------------------------------------------------------------------- #
# Targeted cases
# --------------------------------------------------------------------------- #
class TestTargetedEquivalence:
    def test_single_disk(self):
        region_v, _ = assert_identical([positive(disk_at(0, 0, 300.0))])
        assert region_v.contains_geopoint(CENTER)

    def test_annulus_keyholes_identically(self):
        """Outer disk + strictly interior exclusion: the keyhole path."""
        constraints = [annulus(disk_at(0, 0, 600.0), disk_at(0, 0, 150.0))]
        region_v, _ = assert_identical(constraints)
        probe_hole = PROJ.forward(CENTER.destination(10.0, 30.0))
        heavy = region_v.heaviest_piece()
        assert not heavy.polygon.contains_point(probe_hole)

    def test_exclusion_crossing_boundary(self):
        """Exclusion partially overlapping pieces: the wedge-chain path."""
        constraints = [
            positive(disk_at(0, 0, 400.0)),
            negative(disk_at(90.0, 380.0, 200.0)),
        ]
        assert_identical(constraints)

    def test_empty_clip_disjoint_disks(self):
        """Disjoint positives: one side always clips to nothing."""
        constraints = [
            positive(disk_at(0, 0, 200.0), weight=2.0),
            positive(disk_at(90.0, 3000.0, 200.0), weight=1.0),
        ]
        assert_identical(constraints)

    def test_total_exclusion_vanishes_piece(self):
        """Exclusion covering everything: pieces vanish, constraint skipped."""
        constraints = [
            positive(disk_at(0, 0, 200.0), weight=2.0),
            negative(disk_at(0, 0, 5000.0), weight=1.0),
        ]
        region_v, _ = assert_identical(constraints)
        assert not region_v.is_empty()

    def test_degenerate_sliver_lens(self):
        """A nearly-tangent lens lands under the sliver threshold in both."""
        constraints = [
            positive(disk_at(0, 0, 200.0)),
            positive(disk_at(90.0, 399.0, 200.0)),
        ]
        assert_identical(constraints, {"min_piece_area_km2": 500.0})

    def test_non_convex_exclusion_falls_back(self):
        """A non-convex exclusion rides the object fallback inside the kernel."""
        ring = [
            Point2D(-500.0, -500.0),
            Point2D(500.0, -500.0),
            Point2D(500.0, 500.0),
            Point2D(0.0, 0.0),  # concave notch
            Point2D(-500.0, 500.0),
        ]
        constraints = [
            positive(disk_at(0, 0, 900.0)),
            negative(Polygon(ring)),
        ]
        assert_identical(constraints)

    def test_non_convex_inclusion_falls_back(self):
        ring = [
            Point2D(-800.0, -800.0),
            Point2D(800.0, -800.0),
            Point2D(800.0, 800.0),
            Point2D(0.0, -100.0),  # deep concave notch
            Point2D(-800.0, 800.0),
        ]
        constraints = [
            positive(Polygon(ring)),
            positive(disk_at(0, 0, 500.0)),
        ]
        assert_identical(constraints)

    def test_no_constraints(self):
        (v, region_v), (o, region_o) = solve_both([])
        assert region_v.is_empty() and region_o.is_empty()

    def test_weight_ordering_ties(self):
        """Equal weights: processing order and pruning must stay stable."""
        constraints = [
            positive(disk_at(b, 150.0, 400.0), weight=1.0, label=f"tie{b}")
            for b in (0.0, 72.0, 144.0, 216.0, 288.0)
        ]
        assert_identical(constraints, {"max_pieces": 6})


# --------------------------------------------------------------------------- #
# Prefilter classification
# --------------------------------------------------------------------------- #
class TestPrefilter:
    def test_fully_inside_skips_clipper(self):
        """A piece wholly inside a huge disk is classified, not clipped."""
        solver = WeightedRegionSolver(SolverConfig(engine="vector"))
        small = positive(disk_at(0, 0, 100.0), weight=2.0, label="small")
        huge = positive(disk_at(0, 0, 5000.0), weight=1.0, label="huge")
        solver.solve([small, huge], PROJ)
        assert solver.diagnostics.prefilter_inside > 0

    def test_fully_outside_disjoint_bbox(self):
        """Disjoint geometry resolves by bounding boxes alone."""
        solver = WeightedRegionSolver(SolverConfig(engine="vector"))
        a = positive(disk_at(0, 0, 100.0), weight=2.0, label="a")
        b = positive(disk_at(90.0, 8000.0, 100.0), weight=1.0, label="b")
        solver.solve([a, b], PROJ)
        assert solver.diagnostics.prefilter_bbox > 0

    def test_fully_excluded_piece_vanishes(self):
        """Pieces strictly inside an exclusion are dropped without clipping.

        Several overlapping small disks build up enough pieces that the
        batched wedge classifier (not the small-batch scalar fallback) sees
        them, and every one of them lies inside the wipe exclusion.
        """
        solver = WeightedRegionSolver(SolverConfig(engine="vector"))
        smalls = [
            positive(disk_at(b, 60.0, 80.0), weight=2.0, label=f"small{b}")
            for b in (0.0, 120.0, 240.0)
        ]
        wipe = negative(disk_at(0, 0, 3000.0), weight=1.0, label="wipe")
        solver.solve(smalls + [wipe], PROJ)
        assert solver.diagnostics.prefilter_outside > 0

    def test_crossing_pieces_are_clipped(self):
        constraints = [
            positive(disk_at(b, 300.0, 400.0), label=f"c{b}")
            for b in (0.0, 60.0, 120.0, 180.0, 240.0, 300.0)
        ]
        solver = WeightedRegionSolver(SolverConfig(engine="vector"))
        solver.solve(constraints, PROJ)
        # Plenty of overlapping boundaries: pieces must reach the clipper,
        # and with enough of them at once the batched passes run too.
        assert solver.diagnostics.pieces_clipped > 0
        assert solver.diagnostics.vertices_clipped > 0

    def test_phase_timings_recorded(self):
        solver = WeightedRegionSolver(SolverConfig(engine="vector"))
        solver.solve([positive(disk_at(0, 0, 300.0))], PROJ)
        assert "inclusion" in solver.diagnostics.phase_seconds
        assert solver.diagnostics.solve_seconds > 0.0
        summary = solver.diagnostics.kernel_summary()
        assert summary["engine"] == "vector"


# --------------------------------------------------------------------------- #
# Flat buffer unit behaviour
# --------------------------------------------------------------------------- #
class TestPieceBuffer:
    def test_roundtrip_polygon(self):
        disk = disk_at(0, 0, 250.0)
        buffer = PieceBuffer.from_polygons([(disk, 1.5)])
        assert len(buffer) == 1
        assert buffer.polygon(0).coords == disk.coords
        assert float(buffer.signed_areas[0]) == disk.signed_area()
        assert float(buffer.weights[0]) == 1.5

    def test_bboxes_match_polygon(self):
        disk = disk_at(45.0, 200.0, 300.0)
        buffer = PieceBuffer.from_polygons([(disk, 1.0)])
        box = disk.bounding_box()
        assert tuple(buffer.bboxes[0]) == (box.min_x, box.min_y, box.max_x, box.max_y)

    def test_subset_preserves_order(self):
        disks = [(disk_at(b, 100.0, 150.0), float(i)) for i, b in enumerate((0, 90, 180))]
        buffer = PieceBuffer.from_polygons(disks)
        sub = buffer.subset([2, 0])
        assert [float(w) for w in sub.weights] == [2.0, 0.0]
        assert sub.polygon(0).coords == disks[2][0].coords
        assert sub.polygon(1).coords == disks[0][0].coords

    def test_empty_buffer(self):
        buffer = PieceBuffer.from_parts([], [])
        assert len(buffer) == 0


# --------------------------------------------------------------------------- #
# Hoisted universe helper
# --------------------------------------------------------------------------- #
class TestUniversePolygon:
    def test_matches_legacy_method(self):
        """The universe is the union of constraint extents plus the margin."""
        constraints = [
            positive(disk_at(0, 0, 300.0)),
            negative(disk_at(90.0, 500.0, 200.0)),
        ]
        margin = WeightedRegionSolver().config.universe_margin_km
        hoisted = universe_polygon(constraints, margin)
        box = constraints[0].inclusion.bounding_box().union(
            constraints[1].exclusion.bounding_box()
        )
        assert hoisted.coords == Polygon.rectangle(box.expanded(margin)).coords

    def test_no_geometry_returns_none(self):
        assert universe_polygon([], 500.0) is None

    def test_strict_intersection_uses_helper(self):
        constraints = [positive(disk_at(0, 0, 300.0))]
        region = strict_intersection(constraints, PROJ)
        assert not region.is_empty()
        assert region.area_km2() == pytest.approx(
            disk_at(0, 0, 300.0).area(), rel=0.05
        )


# --------------------------------------------------------------------------- #
# Planar geometry cache: cached repeated-target solves are bit-identical
# --------------------------------------------------------------------------- #
def random_distance_constraints(rng: random.Random):
    """Constraint *descriptions* (not yet planarized), like a localization's."""
    from repro.core import DistanceConstraint

    constraints = []
    for i in range(rng.randint(4, 10)):
        bearing = rng.uniform(0.0, 360.0)
        distance = rng.uniform(0.0, 1200.0)
        centre = CENTER.destination(bearing, distance) if distance > 0 else CENTER
        outer = rng.uniform(120.0, 1500.0)
        inner = rng.choice([0.0, rng.uniform(0.05, 0.9) * outer])
        constraints.append(
            DistanceConstraint(
                landmark_id=f"lm{i}",
                landmark_location=centre,
                max_km=outer,
                min_km=inner,
                weight=rng.choice([1.0, rng.uniform(0.02, 5.0)]),
                circle_segments=rng.choice([16, 32]),
            )
        )
    return constraints


class TestPlanarCacheEquivalence:
    """A planar-cache hit must reproduce the uncached localization bitwise.

    This is the serving warm path: the same target requested twice realizes
    the same circles under the same projection, and the second request reads
    every constraint polygon out of the (projection, circle) cache.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_cache_hits_are_bit_identical(self, seed):
        import dataclasses

        from repro.geometry import CircleCache

        rng = random.Random(4000 + seed)
        constraints = random_distance_constraints(rng)
        cache = CircleCache()

        def planarize(with_cache):
            realized = []
            for c in constraints:
                bound = dataclasses.replace(
                    c, geometry_cache=cache if with_cache else None
                )
                p = bound.to_planar(PROJ)
                if p is not None:
                    realized.append(p)
            return realized

        uncached = planarize(False)
        cold = planarize(True)
        assert cache.planar_hits == 0 and cache.planar_misses > 0
        warm = planarize(True)
        assert cache.planar_hits > 0

        # Identical planar geometry on every realization path.
        for base, c, w in zip(uncached, cold, warm):
            for attr in ("inclusion", "exclusion"):
                pb, pc, pw = (getattr(x, attr) for x in (base, c, w))
                if pb is None:
                    assert pc is None and pw is None
                else:
                    assert pb.coords == pc.coords == pw.coords

        # ... and identical solver output (both engines) from the warm pass.
        for engine in ("vector", "object"):
            solver_u = WeightedRegionSolver(SolverConfig(engine=engine))
            solver_w = WeightedRegionSolver(SolverConfig(engine=engine))
            region_u = solver_u.solve(uncached, PROJ)
            region_w = solver_w.solve(warm, PROJ)
            assert region_u.area_km2() == region_w.area_km2()
            assert len(region_u.pieces) == len(region_w.pieces)
            for piece_u, piece_w in zip(region_u.pieces, region_w.pieces):
                assert piece_u.weight == piece_w.weight
                assert piece_u.polygon.coords == piece_w.polygon.coords

    def test_ring_cache_matches_uncached(self):
        from repro.core import GeoRegionConstraint, Polarity
        from repro.geometry import CircleCache

        ring = tuple(
            CENTER.destination(b, 2000.0) for b in (0.0, 60.0, 140.0, 200.0, 300.0)
        )
        plain = GeoRegionConstraint(ring=ring, polarity=Polarity.NEGATIVE)
        cached = GeoRegionConstraint(
            ring=ring, polarity=Polarity.NEGATIVE, geometry_cache=CircleCache()
        )
        base = plain.to_planar(PROJ).exclusion
        first = cached.to_planar(PROJ).exclusion
        second = cached.to_planar(PROJ).exclusion
        assert base.coords == first.coords == second.coords
        assert cached.geometry_cache.planar_hits == 1

    def test_lru_cap_bounds_entries(self):
        from repro.geometry import CircleCache, disk_polygon

        cache = CircleCache(capacity=8)
        for i in range(30):
            disk_polygon(
                CENTER.destination(float(i), 100.0 + i), 150.0, PROJ, 16, cache=cache
            )
        assert len(cache) <= 8
        assert cache.planar_entries <= 8

    def test_lru_keeps_recently_used(self):
        from repro.geometry import CircleCache, disk_polygon

        cache = CircleCache(capacity=4)
        hot_center = CENTER
        disk_polygon(hot_center, 100.0, PROJ, 16, cache=cache)
        for i in range(10):
            # Touch the hot entry between evicting strangers.
            disk_polygon(hot_center, 100.0, PROJ, 16, cache=cache)
            disk_polygon(
                CENTER.destination(float(i * 17 + 1), 500.0), 90.0 + i, PROJ, 16, cache=cache
            )
        before = cache.planar_hits
        disk_polygon(hot_center, 100.0, PROJ, 16, cache=cache)
        assert cache.planar_hits == before + 1  # survived every eviction round


class TestChainRunnerOrientation:
    def test_cw_part_short_circuit_matches_scalar(self):
        """A CW-stored part must come back CCW-rebuilt, like clip_halfplane.

        Regression: the chain runner's no-crossing short-circuit used to
        keep the original (CW) vertex order and stale signed area, while the
        scalar reference rebuilds the polygon CCW before the pass.
        """
        import numpy as np

        from repro.geometry.clipping import clip_halfplane
        from repro.geometry.kernel import _halfplane_chain_rows, _part_from_polygon

        square_cw = Polygon(
            [Point2D(0, 0), Point2D(0, 100), Point2D(100, 100), Point2D(100, 0)]
        )
        assert not square_cw.is_ccw()
        part = _part_from_polygon(square_cw)
        # An edge the whole square is inside: the pass short-circuits.
        a, b = Point2D(-10.0, 1.0), Point2D(-10.0, 0.0)
        seq = np.array([[a.x, a.y, b.x, b.y]])
        (result,) = _halfplane_chain_rows([part], [seq])
        scalar = clip_halfplane(square_cw, a, b, keep_left=True)
        assert scalar is not None and result is not None
        got = tuple(zip(result[0].tolist(), result[1].tolist()))
        assert got == scalar.coords
        assert result[2] == scalar.signed_area()

    def test_cw_piece_through_solver_engines(self):
        """End-to-end: a CW exclusion interacting with clipped pieces."""
        cw_disk = disk_at(0, 0, 250.0).reversed()
        assert not cw_disk.is_ccw()
        constraints = [
            positive(disk_at(0, 0, 400.0)),
            PlanarConstraint(None, cw_disk, 1.0, "cw-exclusion"),
            positive(disk_at(45.0, 200.0, 300.0), weight=0.5),
        ]
        assert_identical(constraints)


# --------------------------------------------------------------------------- #
# Fused cohort engine: lockstep multi-target solves are bit-identical
# --------------------------------------------------------------------------- #
def solve_cohort_both(cohort, config_kwargs=None):
    """Solve a cohort fused (one lockstep run) and per-target vector."""
    from repro.core.solver import solve_systems

    kwargs = dict(config_kwargs or {})
    fused = solve_systems(
        SolverConfig(engine="fused", **kwargs), [(c, PROJ) for c in cohort]
    )
    vector = []
    for constraints in cohort:
        solver = WeightedRegionSolver(SolverConfig(engine="vector", **kwargs))
        region = solver.solve(constraints, PROJ)
        vector.append((region, solver.diagnostics))
    return fused, vector


def assert_cohort_identical(cohort, config_kwargs=None):
    fused, vector = solve_cohort_both(cohort, config_kwargs)
    assert len(fused) == len(vector) == len(cohort)
    for (region_f, diag_f), (region_v, diag_v) in zip(fused, vector):
        assert region_f.area_km2() == region_v.area_km2()
        assert len(region_f.pieces) == len(region_v.pieces)
        pf = region_f.representative_point()
        pv = region_v.representative_point()
        if pv is None:
            assert pf is None
        else:
            assert (pf.x, pf.y) == (pv.x, pv.y)
        gf = region_f.point_estimate() if region_f else None
        gv = region_v.point_estimate() if region_v else None
        if gv is None:
            assert gf is None
        else:
            assert (gf.lat, gf.lon) == (gv.lat, gv.lon)
        for piece_f, piece_v in zip(region_f.pieces, region_v.pieces):
            assert piece_f.weight == piece_v.weight
            assert piece_f.polygon.coords == piece_v.polygon.coords
        assert diag_f.constraints_applied == diag_v.constraints_applied
        assert diag_f.constraints_skipped == diag_v.constraints_skipped
        assert diag_f.dropped_constraints == diag_v.dropped_constraints
        assert diag_f.final_piece_count == diag_v.final_piece_count
        assert diag_f.max_weight == diag_v.max_weight
        assert diag_f.selected_weight == diag_v.selected_weight
        assert diag_f.max_pieces_seen == diag_v.max_pieces_seen
        assert diag_f.engine == "fused" and diag_v.engine == "vector"
    return fused, vector


@pytest.mark.parametrize("seed", range(15))
def test_randomized_cohort_equivalence(seed):
    """Uneven cohorts (including singletons) solve bit-identically fused."""
    rng = random.Random(5000 + seed)
    cohort_size = rng.choice([1, 2, 3, 5, 8])
    cohort = [random_constraints(rng) for _ in range(cohort_size)]
    assert_cohort_identical(cohort)


@pytest.mark.parametrize("seed", range(5))
def test_randomized_cohort_equivalence_pruned(seed):
    """Tight piece caps: pruning interleaves with the lockstep identically."""
    rng = random.Random(6000 + seed)
    cohort = [random_constraints(rng) for _ in range(rng.randint(2, 5))]
    assert_cohort_identical(cohort, {"max_pieces": 4})


@pytest.mark.parametrize("seed", range(5))
def test_randomized_cohort_equivalence_slivers(seed):
    rng = random.Random(6500 + seed)
    cohort = [random_constraints(rng) for _ in range(rng.randint(2, 5))]
    assert_cohort_identical(cohort, {"min_piece_area_km2": 500.0})


class TestFusedEngine:
    def test_single_solve_dispatches_fused(self):
        """engine='fused' through WeightedRegionSolver is a cohort of one."""
        solver_f = WeightedRegionSolver(SolverConfig(engine="fused"))
        solver_v = WeightedRegionSolver(SolverConfig(engine="vector"))
        constraints = [
            positive(disk_at(0, 0, 400.0)),
            annulus(disk_at(30.0, 100.0, 500.0), disk_at(30.0, 100.0, 120.0)),
            negative(disk_at(90.0, 380.0, 150.0)),
        ]
        region_f = solver_f.solve(constraints, PROJ)
        region_v = solver_v.solve(constraints, PROJ)
        assert solver_f.diagnostics.engine == "fused"
        assert region_f.area_km2() == region_v.area_km2()
        for piece_f, piece_v in zip(region_f.pieces, region_v.pieces):
            assert piece_f.weight == piece_v.weight
            assert piece_f.polygon.coords == piece_v.polygon.coords

    def test_exact_complements_falls_back_to_object(self):
        solver = WeightedRegionSolver(
            SolverConfig(engine="fused", exact_complements=True)
        )
        solver.solve([positive(disk_at(0, 0, 300.0))], PROJ)
        assert solver.diagnostics.engine == "object"

    def test_fused_counters_surface_in_kernel_summary(self):
        """Cohort instrumentation: passes, rows, targets per pass."""
        rng = random.Random(7777)
        cohort = [random_constraints(rng) for _ in range(4)]
        fused, _ = solve_cohort_both(cohort)
        diag = fused[0][1]
        assert diag.fused_cohort_targets == 4
        assert diag.fused_pass_count > 0
        assert diag.fused_rows_clipped > 0
        assert diag.fused_targets_per_pass > 0
        summary = diag.kernel_summary()
        assert summary["engine"] == "fused"
        assert summary["fused_cohort_targets"] == 4
        assert summary["fused_pass_count"] == diag.fused_pass_count
        assert summary["fused_rows_per_pass"] > 0
        # Vector solves report zeroed fused counters under the same schema.
        solver = WeightedRegionSolver(SolverConfig(engine="vector"))
        solver.solve(cohort[0], PROJ)
        vector_summary = solver.diagnostics.kernel_summary()
        assert vector_summary["fused_cohort_targets"] == 0
        assert vector_summary["fused_pass_count"] == 0

    def test_empty_and_nonempty_systems_mix(self):
        """Degenerate systems (no constraints) coexist with real ones."""
        from repro.core.solver import solve_systems

        cohort = [[], [positive(disk_at(0, 0, 300.0))], []]
        results = solve_systems(
            SolverConfig(engine="fused"), [(c, PROJ) for c in cohort]
        )
        assert results[0][0].is_empty()
        assert results[2][0].is_empty()
        assert not results[1][0].is_empty()
        reference = WeightedRegionSolver(SolverConfig(engine="vector")).solve(
            cohort[1], PROJ
        )
        assert results[1][0].area_km2() == reference.area_km2()


# --------------------------------------------------------------------------- #
# CohortPieceBuffer: segment-indexed stacking
# --------------------------------------------------------------------------- #
class TestCohortPieceBuffer:
    def _buffers(self):
        disks = [
            [(disk_at(0, 0, 200.0), 1.0), (disk_at(90.0, 300.0, 150.0), 2.0)],
            [(disk_at(180.0, 500.0, 250.0), 0.5)],
        ]
        return [PieceBuffer.from_polygons(d) for d in disks]

    def test_stacks_preserve_per_target_layout(self):
        import numpy as np

        from repro.geometry.kernel import CohortPieceBuffer

        buffers = self._buffers()
        cohort = CohortPieceBuffer(buffers, cursors=[3, 7])
        assert len(cohort) == 3
        assert cohort.piece_target.tolist() == [0, 0, 1]
        assert cohort.cursors.tolist() == [3, 7]
        assert cohort.target_pieces(0) == slice(0, 2)
        assert cohort.target_pieces(1) == slice(2, 3)
        # Coordinates and boxes are the per-target arrays, verbatim.
        assert np.array_equal(
            cohort.xs, np.concatenate([buffers[0].xs, buffers[1].xs])
        )
        assert np.array_equal(
            cohort.bboxes, np.vstack([buffers[0].bboxes, buffers[1].bboxes])
        )
        # Rebased offsets delimit the same pieces.
        for t, buffer in enumerate(buffers):
            pieces = cohort.target_pieces(t)
            for local, cohort_piece in enumerate(range(pieces.start, pieces.stop)):
                lo = cohort.offsets[cohort_piece]
                hi = cohort.offsets[cohort_piece + 1]
                assert np.array_equal(
                    cohort.xs[lo:hi], buffer.xs[buffer.offsets[local]:buffer.offsets[local + 1]]
                )

    def test_broadcasts_and_reductions(self):
        import numpy as np

        from repro.geometry.kernel import CohortPieceBuffer

        buffers = self._buffers()
        cohort = CohortPieceBuffer(buffers)
        per_target = np.array([10.0, 20.0])
        assert cohort.broadcast_pieces(per_target).tolist() == [10.0, 10.0, 20.0]
        per_vertex = cohort.broadcast_vertices(per_target)
        assert len(per_vertex) == len(cohort.xs)
        assert per_vertex[0] == 10.0 and per_vertex[-1] == 20.0
        union = cohort.union_boxes()
        for t, buffer in enumerate(buffers):
            assert union[t, 0] == buffer.bboxes[:, 0].min()
            assert union[t, 3] == buffer.bboxes[:, 3].max()
        max_x = cohort.piece_max(cohort.xs)
        assert max_x.tolist() == cohort.bboxes[:, 2].tolist()

    def test_empty_cohort_and_empty_target(self):
        from repro.geometry.kernel import CohortPieceBuffer

        empty = CohortPieceBuffer([])
        assert len(empty) == 0
        assert empty.union_boxes().shape == (0, 4)
        mixed = CohortPieceBuffer(
            [PieceBuffer.from_parts([], []), self._buffers()[0]]
        )
        assert len(mixed) == 2
        assert mixed.target_pieces(0) == slice(0, 0)
        union = mixed.union_boxes()
        assert union[0, 0] == float("inf")  # inverted box: never intersects


# --------------------------------------------------------------------------- #
# PieceBuffer hardening: empty buffers and zero-vertex pieces
# --------------------------------------------------------------------------- #
class TestPieceBufferHardening:
    def test_empty_buffer_padded_and_subset(self):
        buffer = PieceBuffer.from_parts([], [])
        X, Y, counts = buffer.padded()
        assert X.shape[0] == 0 and len(counts) == 0
        sub = buffer.subset([])
        assert len(sub) == 0
        assert buffer.parts() == []

    def test_zero_vertex_piece_gets_inverted_bbox(self):
        import numpy as np

        zero = (np.zeros(0), np.zeros(0), 0.0)
        tri = (
            np.array([0.0, 10.0, 10.0]),
            np.array([0.0, 0.0, 10.0]),
            50.0,
        )
        buffer = PieceBuffer.from_parts([tri, zero], [1.0, 2.0])
        assert len(buffer) == 2
        # The empty piece's box rejects every intersection test.
        assert buffer.bboxes[1, 0] == float("inf")
        assert buffer.bboxes[1, 2] == float("-inf")
        # The real piece's box is exact.
        assert buffer.bboxes[0].tolist() == [0.0, 0.0, 10.0, 10.0]
        X, Y, counts = buffer.padded()
        assert counts.tolist() == [3, 0]
        sub = buffer.subset([1, 0])
        assert len(sub) == 2
        assert sub.bboxes[0, 0] == float("inf")

    def test_all_zero_vertex_pieces(self):
        import numpy as np

        zero = (np.zeros(0), np.zeros(0), 0.0)
        buffer = PieceBuffer.from_parts([zero, zero], [1.0, 1.0])
        assert len(buffer) == 2
        assert (buffer.bboxes[:, 0] == float("inf")).all()
        X, Y, counts = buffer.padded()
        assert counts.tolist() == [0, 0]
