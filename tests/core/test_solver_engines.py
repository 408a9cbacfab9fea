"""Fused-vs-reference solver equivalence.

The NumPy cohort kernel (``repro.geometry.kernel``) must be *bit-identical*
to the one-``Polygon``-at-a-time reference
(:func:`repro.core.reference.reference_solve`) on everything an estimate exposes: the point estimate,
region area, piece count and coordinates, the selected and maximum weights,
and the solver diagnostics that feed reporting.  This suite pins that
contract on randomized synthetic constraint systems (both polarities,
annuli, keyholed exclusions) plus targeted edge cases for empty clips,
degenerate slivers and the prefilter's classifications; the cohort suites
pin a fused cohort against fused cohorts of one.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import BatchLocalizer, Octant, OctantConfig
from repro.core import PlanarConstraint, SolverConfig, WeightedRegionSolver
from repro.core.reference import reference_solve
from repro.geometry import (
    EARTH_RADIUS_KM,
    AzimuthalEquidistantProjection,
    EquirectangularProjection,
    GeoPoint,
    Point2D,
    Polygon,
    disk_polygon,
)
from repro.geometry.kernel import WORLD_SQUARE, PieceBuffer

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


def square(cx, cy, half):
    return Polygon(
        [
            Point2D(cx - half, cy - half),
            Point2D(cx + half, cy - half),
            Point2D(cx + half, cy + half),
            Point2D(cx - half, cy + half),
        ]
    )


def solve_both(constraints, config_kwargs=None):
    """Run the same constraint set through the solver and the reference.

    Returns ``(solver, region)`` for the fused solve and
    ``(diagnostics, region)`` for the reference.
    """
    config = SolverConfig(**dict(config_kwargs or {}))
    fused = WeightedRegionSolver(config)
    region_f = fused.solve(constraints, PROJ)
    region_o, diagnostics_o = reference_solve(constraints, PROJ, config)
    return (fused, region_f), (diagnostics_o, region_o)


def assert_identical(constraints, config_kwargs=None):
    """The full bit-identity contract between the solver and the reference."""
    (fused, region_v), (do, region_o) = solve_both(constraints, config_kwargs)

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
    dv = fused.diagnostics
    assert dv.constraints_applied == do.constraints_applied
    assert dv.constraints_skipped == do.constraints_skipped
    assert dv.dropped_constraints == do.dropped_constraints
    assert dv.final_piece_count == do.final_piece_count
    assert dv.max_weight == do.max_weight
    assert dv.selected_weight == do.selected_weight
    assert dv.max_pieces_seen == do.max_pieces_seen
    assert dv.fused_cohort_targets == (1 if constraints else 0)
    assert do.fused_cohort_targets == 0
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
    """Tight piece caps force heavy pruning interaction on both sides."""
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

    def test_keyhole_vertex_on_piece_boundary(self):
        """An exclusion vertex on the piece's boundary keyholes the piece.

        The vertex lies just outside the square's right edge, within
        ``MERGE_TOLERANCE_KM``: ray-casting parity says outside, and the
        exact ``contains_point`` (boundary within tolerance) says inside.
        """
        import numpy as np

        from repro.geometry.kernel import _contains_all, _part_from_polygon
        from repro.geometry.polygon import MERGE_TOLERANCE_KM

        piece = square(0.0, 0.0, 100.0)
        on_edge = Point2D(100.0 + MERGE_TOLERANCE_KM / 2, 0.0)
        triangle = Polygon([on_edge, Point2D(20.0, 50.0), Point2D(20.0, -50.0)])
        qx = np.array([v.x for v in triangle.vertices])
        qy = np.array([v.y for v in triangle.vertices])
        box = np.array([-100.0, -100.0, 100.0, 100.0])
        assert _contains_all(_part_from_polygon(piece), box, qx, qy)

        system = [positive(piece, weight=2.0), negative(triangle, weight=1.0)]
        region_v, _ = assert_identical(system)
        # Keyholed, not wedge-subtracted: one piece with a slit to the hole.
        (keyholed,) = [p for p in region_v.pieces if p.weight == 3.0]
        assert len(keyholed.polygon.coords) == 9
        ring = [annulus(disk_at(0, 0, 600.0), disk_at(0, 0, 150.0))]
        assert_cohort_identical([system, ring])

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

    def test_exclusion_missing_every_piece_still_counts(self):
        """Culling an exclusion that misses every piece would change answers.

        An exclusion-only constraint whose box misses a piece is satisfied
        by the whole piece, so the split keeps a copy at +weight: a far
        weight-5 square lifts ``max_weight`` from 1.0 to 6.0 and
        ``constraints_applied`` from 1 to 2, in the solver and the reference.
        """
        inclusion = positive(square(0.0, 0.0, 500.0), 1.0, "inc")
        far = negative(square(3000.0, 3000.0, 50.0), 5.0, "far")
        region_v, _ = assert_identical([inclusion, far])
        assert region_v.pieces[0].weight == 6.0
        # With one piece kept, only the inclusion's piece survives, and the
        # far square's box misses it: both sides still add its weight.
        config = SolverConfig(max_pieces=1)

        def fused(constraints):
            solver = WeightedRegionSolver(config)
            solver.solve(constraints, PROJ)
            return solver.diagnostics

        def reference(constraints):
            return reference_solve(constraints, PROJ, config)[1]

        for solve in (fused, reference):
            kept = solve([inclusion, far])
            culled = solve([inclusion])
            assert (kept.max_weight, kept.constraints_applied) == (6.0, 2)
            assert (culled.max_weight, culled.constraints_applied) == (1.0, 1)

    def test_non_convex_exclusion_falls_back(self):
        """A non-convex exclusion rides the scalar fallback inside the kernel."""
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
        solver = WeightedRegionSolver(SolverConfig())
        small = positive(disk_at(0, 0, 100.0), weight=2.0, label="small")
        huge = positive(disk_at(0, 0, 5000.0), weight=1.0, label="huge")
        solver.solve([small, huge], PROJ)
        assert solver.diagnostics.prefilter_inside > 0

    def test_fully_outside_disjoint_bbox(self):
        """Disjoint geometry resolves by bounding boxes alone."""
        solver = WeightedRegionSolver(SolverConfig())
        a = positive(disk_at(0, 0, 100.0), weight=2.0, label="a")
        b = positive(disk_at(90.0, 8000.0, 100.0), weight=1.0, label="b")
        solver.solve([a, b], PROJ)
        assert solver.diagnostics.prefilter_bbox > 0

    def test_fully_excluded_piece_vanishes(self):
        """Pieces strictly inside an exclusion are dropped without clipping.

        Several overlapping small disks build up pieces that the pooled
        wedge classifier sees, and every one of them lies inside the wipe
        exclusion.
        """
        solver = WeightedRegionSolver(SolverConfig())
        smalls = [
            positive(disk_at(b, 60.0, 80.0), weight=2.0, label=f"small{b}")
            for b in (0.0, 120.0, 240.0)
        ]
        wipe = negative(disk_at(0, 0, 3000.0), weight=1.0, label="wipe")
        solver.solve(smalls + [wipe], PROJ)
        assert solver.diagnostics.prefilter_outside > 0

    def test_crossing_pieces_are_clipped(self):
        from repro.core.solver import solve_systems

        constraints = [
            positive(disk_at(b, 300.0, 400.0), label=f"c{b}")
            for b in (0.0, 60.0, 120.0, 180.0, 240.0, 300.0)
        ]
        solver = WeightedRegionSolver(SolverConfig())
        solver.solve(constraints, PROJ)
        # Plenty of overlapping boundaries: pieces must reach the clipper.
        # One target's inclusion pools clip with the scalar reference, so
        # no batched pass runs.
        assert solver.diagnostics.pieces_clipped > 0
        assert solver.diagnostics.vertices_clipped == 0
        # The same system twice is a pool spanning two targets: it clips
        # through the batched passes.
        results = solve_systems(
            SolverConfig(), [(constraints, PROJ)] * 2
        )
        for _region, diag in results:
            assert diag.vertices_clipped > 0
            assert diag.fused_pass_count > 0

    def test_phase_timings_recorded(self):
        solver = WeightedRegionSolver(SolverConfig())
        solver.solve([positive(disk_at(0, 0, 300.0))], PROJ)
        assert "inclusion" in solver.diagnostics.phase_seconds
        assert solver.diagnostics.solve_seconds > 0.0
        summary = solver.diagnostics.kernel_summary()
        assert summary["phase_seconds"]["inclusion"] >= 0.0


# --------------------------------------------------------------------------- #
# Flat buffer unit behaviour
# --------------------------------------------------------------------------- #
def pointing_at(buffer, weights, geom):
    """``buffer``'s geometries under new pieces: ``weights[i]`` at ``geom[i]``."""
    import numpy as np

    return PieceBuffer.from_arrays(
        buffer.xs,
        buffer.ys,
        buffer.offsets,
        np.asarray(weights, dtype=float),
        buffer.signed_areas,
        buffer.bboxes,
        np.asarray(geom, dtype=np.int64),
    )


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

    def test_shared_geometry_preserves_piece_order(self):
        """Pieces point at geometries by index: any order, shared or not."""
        disks = [disk_at(b, 100.0, 150.0) for b in (0, 90, 180)]
        packed = PieceBuffer.from_polygons([(d, 0.0) for d in disks])
        buffer = pointing_at(packed, [2.0, 0.0, 1.0], [2, 0, 2])
        assert (len(buffer), buffer.geometry_count) == (3, 3)
        assert buffer.geom.tolist() == [2, 0, 2] and not buffer.geom.flags.writeable
        assert [float(w) for w in buffer.weights] == [2.0, 0.0, 1.0]
        assert buffer.polygon(0).coords == disks[2].coords
        assert buffer.polygon(1).coords == disks[0].coords
        assert buffer.polygon(2).coords == disks[2].coords
        areas = [abs(d.signed_area()) for d in (disks[2], disks[0], disks[2])]
        assert buffer.areas.tolist() == areas
        box = disks[2].bounding_box()
        assert tuple(buffer.bboxes[2]) == (box.min_x, box.min_y, box.max_x, box.max_y)

    def test_empty_buffer(self):
        buffer = PieceBuffer.from_parts([], [])
        assert len(buffer) == 0


# --------------------------------------------------------------------------- #
# The world square every solve starts from
# --------------------------------------------------------------------------- #
class TestWorldSquare:
    def test_holds_every_projected_point(self):
        """Its half-side exceeds the farthest planar point of either
        projection: the antipode, pi * R from the origin."""
        box = WORLD_SQUARE.bounding_box()
        reach = math.pi * EARTH_RADIUS_KM
        assert -box.min_x == -box.min_y == box.max_x == box.max_y > reach
        for projection in (
            AzimuthalEquidistantProjection(CENTER),
            EquirectangularProjection(GeoPoint(90.0, -95.0)),
        ):
            for lat, lon in ((-40.0, 84.999), (-89.999, 85.0), (-90.0, 180.0)):
                p = projection.forward(GeoPoint(lat, lon))
                assert box.min_x < p.x < box.max_x and box.min_y < p.y < box.max_y

    @pytest.mark.parametrize(
        "config",
        [
            OctantConfig(),
            OctantConfig.latency_only(),
            OctantConfig.full(),
        ],
        ids=["default", "latency_only", "full"],
    )
    def test_contains_every_leave_one_out_constraint(self, tracked_cohort, config):
        """Starting from the square clips no constraint of the tracked
        cohort: every planar polygon's box lies inside it."""
        localizer = BatchLocalizer(Octant(tracked_cohort, config))
        targets = tracked_cohort.host_ids
        prepared = localizer.prepare_many(targets)
        presolved = [
            localizer.octant.presolve(t, prepared=prepared[t], planarize=False)
            for t in targets
        ]
        systems = localizer.octant.pipeline.planarize_many(
            [(p.constraints, p.projection) for p in presolved]
        )
        box = WORLD_SQUARE.bounding_box()
        boxes = [
            polygon.bounding_box()
            for planar in systems
            for c in planar
            for polygon in (c.inclusion, c.exclusion)
            if polygon is not None
        ]
        assert len(systems) == len(targets) and boxes
        for b in boxes:
            assert box.min_x < b.min_x and b.max_x < box.max_x
            assert box.min_y < b.min_y and b.max_y < box.max_y


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

        # ... and identical solver output (solver and reference) from the
        # warm pass.
        def fused(planar):
            return WeightedRegionSolver(SolverConfig()).solve(planar, PROJ)

        def reference(planar):
            return reference_solve(planar, PROJ)[0]

        for solve in (fused, reference):
            region_u = solve(uncached)
            region_w = solve(warm)
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
        from repro.geometry.kernel import _halfplane_chain_run, _part_from_polygon

        square_cw = Polygon(
            [Point2D(0, 0), Point2D(0, 100), Point2D(100, 100), Point2D(100, 0)]
        )
        assert not square_cw.is_ccw()
        part = _part_from_polygon(square_cw)
        # An edge the whole square is inside: the pass short-circuits.
        a, b = Point2D(-10.0, 1.0), Point2D(-10.0, 0.0)
        edge_arr = np.array([[[a.x, a.y, b.x, b.y]]])
        (result,) = _halfplane_chain_run([part], edge_arr, np.array([1]))
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
    """Solve a cohort fused (one lockstep run) and as cohorts of one."""
    from repro.core.solver import solve_systems

    kwargs = dict(config_kwargs or {})
    fused = solve_systems(
        SolverConfig(**kwargs), [(c, PROJ) for c in cohort]
    )
    alone = []
    for constraints in cohort:
        solver = WeightedRegionSolver(SolverConfig(**kwargs))
        region = solver.solve(constraints, PROJ)
        alone.append((region, solver.diagnostics))
    return fused, alone


def assert_cohort_identical(cohort, config_kwargs=None):
    fused, alone = solve_cohort_both(cohort, config_kwargs)
    assert len(fused) == len(alone) == len(cohort)
    for (region_f, diag_f), (region_v, diag_v) in zip(fused, alone):
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
        assert diag_v.fused_cohort_targets == 1
    return fused, alone


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
        """A WeightedRegionSolver solve is a fused cohort of one."""
        solver_f = WeightedRegionSolver(SolverConfig())
        constraints = [
            positive(disk_at(0, 0, 400.0)),
            annulus(disk_at(30.0, 100.0, 500.0), disk_at(30.0, 100.0, 120.0)),
            negative(disk_at(90.0, 380.0, 150.0)),
        ]
        region_f = solver_f.solve(constraints, PROJ)
        region_v, _diagnostics = reference_solve(constraints, PROJ)
        assert solver_f.diagnostics.fused_cohort_targets == 1
        assert region_f.area_km2() == region_v.area_km2()
        for piece_f, piece_v in zip(region_f.pieces, region_v.pieces):
            assert piece_f.weight == piece_v.weight
            assert piece_f.polygon.coords == piece_v.polygon.coords

    def test_exact_complements_is_gone(self):
        """The object-only exact-complement mode no longer exists."""
        with pytest.raises(TypeError):
            SolverConfig(exact_complements=True)

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
        assert "engine" not in summary
        assert summary["fused_cohort_targets"] == 4
        assert summary["fused_pass_count"] == diag.fused_pass_count
        assert summary["fused_rows_per_pass"] > 0
        # Reference solves report zeroed fused counters under the same schema.
        _region, diagnostics = reference_solve(cohort[0], PROJ)
        object_summary = diagnostics.kernel_summary()
        assert object_summary["fused_cohort_targets"] == 0
        assert object_summary["fused_pass_count"] == 0

    def test_empty_and_nonempty_systems_mix(self):
        """Degenerate systems (no constraints) coexist with real ones."""
        from repro.core.solver import solve_systems

        cohort = [[], [positive(disk_at(0, 0, 300.0))], []]
        results = solve_systems(
            SolverConfig(), [(c, PROJ) for c in cohort]
        )
        assert results[0][0].is_empty()
        assert results[2][0].is_empty()
        assert not results[1][0].is_empty()
        reference, _diagnostics = reference_solve(cohort[1], PROJ)
        assert results[1][0].area_km2() == reference.area_km2()


# --------------------------------------------------------------------------- #
# Shared piece geometry: a piece and its unchanged weighted copy clip once
# --------------------------------------------------------------------------- #
def nested_system():
    """Three disks whose second step leaves the first piece unchanged.

    ``inner`` splits the world square into the inner disk and the square.
    ``outer`` contains the inner disk, so that piece's satisfied part is the
    piece itself: the buffer entering ``cut`` holds four pieces (inner +5,
    inner +3, outer +2, square +0) over three geometries.
    """
    return [
        positive(disk_at(0, 0, 200.0), weight=3.0, label="inner"),
        positive(disk_at(0, 0, 1500.0), weight=2.0, label="outer"),
        positive(disk_at(90.0, 300.0, 400.0), weight=1.0, label="cut"),
    ]


def crossing_system():
    """Two partly overlapping disks: every piece has its own geometry."""
    return [
        positive(disk_at(0, 0, 300.0), weight=3.0, label="a"),
        positive(disk_at(90.0, 400.0, 300.0), weight=2.0, label="b"),
    ]


class TestSharedGeometry:
    def test_copy_is_clipped_once(self):
        from repro.core.solver import solve_systems

        ((_region, diag),) = solve_systems(SolverConfig(), [(nested_system(), PROJ)])
        # Step 3 sees one piece pointing at another's geometry.
        assert diag.shared_pieces == 1
        assert diag.kernel_summary()["shared_pieces"] == 1
        # inner clips the square (1), outer clips the square (1; the inner
        # disk is inside it), cut clips three geometries, not four pieces.
        assert diag.pieces_clipped == 5
        assert diag.prefilter_inside == 1
        assert_identical(nested_system())

    def test_cohort_with_and_without_copies(self):
        from repro.core.solver import solve_systems

        cohort = [nested_system(), crossing_system()]
        results = solve_systems(SolverConfig(), [(c, PROJ) for c in cohort])
        (_nested, nested_diag), (_crossing, crossing_diag) = results
        assert (nested_diag.shared_pieces, crossing_diag.shared_pieces) == (1, 0)
        assert (nested_diag.pieces_clipped, crossing_diag.pieces_clipped) == (5, 3)
        for constraints, (region, diag) in zip(cohort, results):
            reference, ref_diag = reference_solve(constraints, PROJ)
            assert region.area_km2() == reference.area_km2()
            assert [(p.weight, p.polygon.coords) for p in region.pieces] == [
                (p.weight, p.polygon.coords) for p in reference.pieces
            ]
            assert diag.max_weight == ref_diag.max_weight
            assert diag.max_pieces_seen == ref_diag.max_pieces_seen
        assert_identical(crossing_system())

    def test_equal_parts_are_one_geometry(self):
        """Parts equal bit for bit pack once; look-alikes do not."""
        import numpy as np

        from repro.geometry.kernel import _distinct_parts

        first = (np.array([0.0, 10.0, 10.0]), np.array([0.0, 0.0, 10.0]), 50.0)
        equal = (first[0].copy(), first[1].copy(), 50.0)
        # Same vertex count and area, other coordinates.
        mirrored = (np.array([0.0, 10.0, 0.0]), np.array([0.0, 10.0, 10.0]), 50.0)
        # Equal as floats, not as bits.
        signed_zero = (np.array([-0.0, 10.0, 10.0]), first[1].copy(), 50.0)
        distinct, geom = _distinct_parts([first, equal, mirrored, signed_zero, first])
        assert [id(p) for p in distinct] == [id(first), id(mirrored), id(signed_zero)]
        assert geom.tolist() == [0, 0, 1, 2, 0]


# --------------------------------------------------------------------------- #
# PieceBuffer hardening: empty buffers and zero-vertex pieces
# --------------------------------------------------------------------------- #
class TestPieceBufferHardening:
    def test_empty_buffer_padded_and_parts(self):
        buffer = PieceBuffer.from_parts([], [])
        X, Y, counts = buffer.padded()
        assert X.shape[0] == 0 and len(counts) == 0
        assert (len(buffer), buffer.geometry_count) == (0, 0)
        assert len(buffer.areas) == 0
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
        # Pieces pointing at the geometries in the other order read the
        # same per-geometry boxes and rows.
        swapped = pointing_at(buffer, [2.0, 1.0], [1, 0])
        assert swapped.bboxes[swapped.geom[0], 0] == float("inf")
        assert swapped.bboxes[swapped.geom[1]].tolist() == [0.0, 0.0, 10.0, 10.0]
        assert swapped.padded()[2].tolist() == [3, 0]

    def test_all_zero_vertex_pieces(self):
        import numpy as np

        zero = (np.zeros(0), np.zeros(0), 0.0)
        buffer = PieceBuffer.from_parts([zero, zero], [1.0, 1.0])
        assert len(buffer) == 2
        assert (buffer.bboxes[:, 0] == float("inf")).all()
        X, Y, counts = buffer.padded()
        assert counts.tolist() == [0, 0]
