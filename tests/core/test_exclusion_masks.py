"""Non-convex exclusion: batched Greiner-Hormann, geometry tables, threads.

Non-convex negative constraints (the paper's ocean/uninhabited regions,
Section 2.5) are subtracted with Greiner-Hormann on every engine: the vector
and fused engines run the batched row kernel (vectorized intersection
classification, per-piece traversal), the object engine the scalar
``subtract_polygons`` reference.  This suite pins:

* vector-vs-object bit identity on randomized non-convex-heavy systems,
  including disconnected, antimeridian-crossing and self-intersecting
  regions and the detailed geographic catalogue;
* fused-vs-vector cohort identity on non-convex-heavy cohorts (including a
  cohort of one and fuse-width-boundary chunking through the batch engine);
* the cross-solve ``_ConstraintGeometry`` table cache: warm hits are
  bit-identical, a measurement ingest can never serve stale geometry, the
  kernel counters surface through ``kernel_summary``, and concurrent
  threads see consistent tables.

The module and ``test_masked_*`` names date from the convex-mask fold that
non-convex exclusions used to ride; the cases now pin the single batched
Greiner-Hormann path against the object engine.
"""

from __future__ import annotations

import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import PlanarConstraint, SolverConfig, WeightedRegionSolver
from repro.core.solver import solve_systems
from repro.geometry import (
    AzimuthalEquidistantProjection,
    GeoPoint,
    Point2D,
    Polygon,
    disk_polygon,
)
from repro.geometry.kernel import (
    geometry_for_constraint,
    geometry_table_stats,
    reset_geometry_tables,
)

CENTER = GeoPoint(40.0, -95.0)
PROJ = AzimuthalEquidistantProjection(CENTER)


def disk_at(bearing_deg, distance_km, radius_km, segments=32):
    centre = CENTER.destination(bearing_deg, distance_km) if distance_km > 0 else CENTER
    return disk_polygon(centre, radius_km, PROJ, segments)


def positive(polygon, weight=1.0, label="pos"):
    return PlanarConstraint(polygon, None, weight, label)


def negative(polygon, weight=1.0, label="neg"):
    return PlanarConstraint(None, polygon, weight, label)


def nonconvex_ring(rng: random.Random, cx: float, cy: float, scale: float) -> Polygon:
    """A jittered radial star: simple, almost surely non-convex."""
    n = rng.randint(5, 14)
    points = []
    for i in range(n):
        angle = 2.0 * math.pi * i / n
        radius = scale * (0.35 + rng.random())
        points.append(Point2D(cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return Polygon(points)


def random_nonconvex_system(rng: random.Random) -> list[PlanarConstraint]:
    """A constraint system whose exclusions are dominated by non-convex rings."""
    constraints = [positive(disk_at(0, 0, 900.0), 1.0, "base")]
    for i in range(rng.randint(1, 4)):
        ring = nonconvex_ring(
            rng, rng.uniform(-600, 600), rng.uniform(-600, 600), rng.uniform(100, 500)
        )
        constraints.append(negative(ring, rng.uniform(0.2, 3.0), f"neg{i}"))
    for i in range(rng.randint(1, 3)):
        constraints.append(
            positive(
                disk_at(rng.uniform(0, 360), rng.uniform(0, 700), rng.uniform(100, 800)),
                rng.uniform(0.2, 2.0),
                f"pos{i}",
            )
        )
    return constraints


def assert_engines_identical(constraints, config_kwargs=None):
    """Vector vs object bit identity on every estimate metric.

    Returns the vector solver and region; the object engine is the
    independent scalar reference.
    """
    kwargs = dict(config_kwargs or {})
    vector = WeightedRegionSolver(SolverConfig(engine="vector", **kwargs))
    obj = WeightedRegionSolver(SolverConfig(engine="object", **kwargs))
    region_v = vector.solve(constraints, PROJ)
    region_o = obj.solve(constraints, PROJ)
    assert region_v.area_km2() == region_o.area_km2()
    assert len(region_v.pieces) == len(region_o.pieces)
    for piece_v, piece_o in zip(region_v.pieces, region_o.pieces):
        assert piece_v.weight == piece_o.weight
        assert piece_v.polygon.coords == piece_o.polygon.coords
    dv, do = vector.diagnostics, obj.diagnostics
    assert dv.constraints_applied == do.constraints_applied
    assert dv.dropped_constraints == do.dropped_constraints
    assert dv.max_weight == do.max_weight
    assert dv.selected_weight == do.selected_weight
    return vector, region_v


def assert_cohort_identical(cohort, config_kwargs=None):
    """Fused lockstep vs per-target vector bit identity."""
    kwargs = dict(config_kwargs or {})
    fused = solve_systems(
        SolverConfig(engine="fused", **kwargs), [(c, PROJ) for c in cohort]
    )
    for constraints, (region_f, diag_f) in zip(cohort, fused):
        solver = WeightedRegionSolver(SolverConfig(engine="vector", **kwargs))
        region_v = solver.solve(constraints, PROJ)
        assert region_f.area_km2() == region_v.area_km2()
        assert len(region_f.pieces) == len(region_v.pieces)
        for piece_f, piece_v in zip(region_f.pieces, region_v.pieces):
            assert piece_f.weight == piece_v.weight
            assert piece_f.polygon.coords == piece_v.polygon.coords
        assert diag_f.constraints_applied == solver.diagnostics.constraints_applied
        assert diag_f.dropped_constraints == solver.diagnostics.dropped_constraints


# --------------------------------------------------------------------------- #
# Batched Greiner-Hormann vs the scalar reference (non-convex-heavy systems)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(12))
def test_masked_nonconvex_equivalence(seed):
    rng = random.Random(9000 + seed)
    solver, _region = assert_engines_identical(random_nonconvex_system(rng))
    assert solver.diagnostics.engine == "vector"


@pytest.mark.parametrize("seed", range(4))
def test_masked_nonconvex_equivalence_pruned(seed):
    rng = random.Random(9100 + seed)
    assert_engines_identical(random_nonconvex_system(rng), {"max_pieces": 4})


@pytest.mark.parametrize("seed", range(4))
def test_masked_nonconvex_equivalence_slivers(seed):
    rng = random.Random(9200 + seed)
    assert_engines_identical(
        random_nonconvex_system(rng), {"min_piece_area_km2": 500.0}
    )


@pytest.mark.parametrize("seed", range(8))
def test_gh_fallback_equivalence(seed):
    """A second randomized family: the batched GH classification vs the
    scalar GH loop of the object engine."""
    rng = random.Random(9300 + seed)
    assert_engines_identical(random_nonconvex_system(rng))


def _straddling_system() -> list[PlanarConstraint]:
    """Two far-apart non-convex exclusions straddling the base disk's edge.

    Low-weight exclusions apply *after* the disks have shrunk the pieces,
    and they straddle the base disk's boundary: neither bbox rejection nor
    the keyhole (strictly-contained) shortcut can resolve them, so the
    subtraction must run -- through the Greiner-Hormann row kernel.
    """
    rng = random.Random(42)
    return [
        positive(disk_at(0, 0, 1200.0), 1.0, "base"),
        negative(nonconvex_ring(rng, -1150.0, -400.0, 350.0), 0.5, "west"),
        negative(nonconvex_ring(rng, 1150.0, 400.0, 350.0), 0.5, "east"),
        positive(disk_at(45.0, 300.0, 600.0), 0.7, "aux"),
    ]


def test_disconnected_nonconvex_regions():
    """Two far-apart non-convex exclusions (the paper's disconnected case)."""
    solver, region = assert_engines_identical(_straddling_system())
    assert solver.diagnostics.fallback_pieces > 0
    assert region.pieces


def test_gh_fallback_counters():
    """Boundary-straddling exclusions hit the GH row kernel and say so."""
    solver, _ = assert_engines_identical(_straddling_system())
    diagnostics = solver.diagnostics
    assert diagnostics.fallback_pieces > 0
    assert diagnostics.fallback_vertices > 0
    summary = diagnostics.kernel_summary()
    for key in (
        "fallback_pieces",
        "fallback_vertices",
        "geometry_table_hits",
        "geometry_table_misses",
    ):
        assert key in summary
    assert summary["fallback_pieces"] == diagnostics.fallback_pieces


def test_antimeridian_ring_equivalence():
    """A non-convex ring crossing the antimeridian, far from the projection
    centre: the projected exclusion must still solve bit-identically on both
    engines (the azimuthal projection keeps it simple; the point of the case
    is the extreme coordinates)."""
    from repro.core import GeoRegionConstraint, Polarity

    ring = tuple(
        GeoPoint(lat, lon)
        for lat, lon in [
            (40.0, 170.0),
            (45.0, -175.0),
            (35.0, -170.0),
            (38.0, 178.0),  # concave bend on the date line itself
            (30.0, 175.0),
            (35.0, 165.0),
        ]
    )
    planar = GeoRegionConstraint(ring=ring, polarity=Polarity.NEGATIVE).to_planar(PROJ)
    assert planar is not None and planar.exclusion is not None
    constraints = [
        positive(disk_at(270.0, 6000.0, 4000.0), 1.0, "pacific"),
        planar,
    ]
    assert_engines_identical(constraints)


def test_self_intersecting_ring_rides_gh():
    """A bowtie exclusion (a projection fold) must agree bit for bit through
    the batched Greiner-Hormann path."""
    bowtie = Polygon(
        [
            Point2D(-300.0, -250.0),
            Point2D(300.0, 250.0),
            Point2D(300.0, -250.0),
            Point2D(-300.0, 250.0),
        ]
    )
    assert not bowtie.is_convex()
    constraints = [
        positive(disk_at(0, 0, 700.0), 1.0, "base"),
        negative(bowtie, 0.5, "fold"),
        positive(disk_at(120.0, 250.0, 400.0), 0.7, "aux"),
    ]
    solver, _ = assert_engines_identical(constraints)
    assert solver.diagnostics.fallback_pieces > 0


def test_detailed_geo_regions_are_nonconvex_and_identical():
    """The detailed catalogue rings: fused == vector == object."""
    from repro.core import GeoRegionConstraint, Polarity
    from repro.network.geodata import DETAILED_OCEAN_REGIONS

    constraints = [positive(disk_at(90.0, 2500.0, 3500.0), 1.0, "base")]
    nonconvex = 0
    for region in DETAILED_OCEAN_REGIONS[:4]:
        planar = GeoRegionConstraint(
            ring=region.ring, polarity=Polarity.NEGATIVE, weight=5.0
        ).to_planar(PROJ)
        assert planar is not None
        if not planar.exclusion.is_convex():
            nonconvex += 1
        constraints.append(planar)
    assert nonconvex > 0  # detailed regions must stay non-convex when projected
    assert_engines_identical(constraints)
    assert_cohort_identical([constraints])


# --------------------------------------------------------------------------- #
# Fused cohort identity on non-convex-heavy cohorts
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("size", [1, 5, 16, 17])
def test_fused_cohort_nonconvex_identity(size):
    """Cohort of one, mid-size, and fuse-width-boundary cohorts."""
    rng = random.Random(7000 + size)
    cohort = [random_nonconvex_system(rng) for _ in range(size)]
    assert_cohort_identical(cohort)


def test_fused_chunk_boundary_through_batch_engine():
    """fuse_width chunking with detailed (non-convex) geographic regions.

    The fused batch answers must equal the vector and the object engines'.
    """
    from repro import BatchLocalizer, Octant, collect_dataset
    from repro.core.config import OctantConfig, SolverConfig
    from repro.network.planetlab import small_deployment

    deployment = small_deployment(host_count=6, seed=13)
    dataset = collect_dataset(deployment)
    config = OctantConfig(
        geographic_detail="detailed",
        solver=SolverConfig(engine="fused", fuse_width=4),
    )
    fused = BatchLocalizer(Octant(dataset, config)).localize_all()
    for engine in ("vector", "object"):
        other_config = config.with_overrides(solver=SolverConfig(engine=engine))
        other = BatchLocalizer(Octant(dataset, other_config)).localize_all()
        assert set(fused) == set(other)
        for target, estimate_f in fused.items():
            estimate_o = other[target]
            if estimate_o.point is None:
                assert estimate_f.point is None
                continue
            assert (estimate_f.point.lat, estimate_f.point.lon) == (
                estimate_o.point.lat,
                estimate_o.point.lon,
            )
            assert estimate_f.region.area_km2() == estimate_o.region.area_km2()


# --------------------------------------------------------------------------- #
# Cross-solve geometry table cache
# --------------------------------------------------------------------------- #
class TestGeometryTables:
    def test_warm_solve_hits_and_is_identical(self):
        reset_geometry_tables()
        rng = random.Random(55)
        constraints = random_nonconvex_system(rng)
        cold = WeightedRegionSolver(SolverConfig(engine="vector"))
        warm = WeightedRegionSolver(SolverConfig(engine="vector"))
        region_cold = cold.solve(constraints, PROJ)
        region_warm = warm.solve(constraints, PROJ)
        assert cold.diagnostics.geometry_table_misses == len(constraints)
        assert cold.diagnostics.geometry_table_hits == 0
        assert warm.diagnostics.geometry_table_hits == len(constraints)
        assert warm.diagnostics.geometry_table_misses == 0
        assert region_cold.area_km2() == region_warm.area_km2()
        for piece_c, piece_w in zip(region_cold.pieces, region_warm.pieces):
            assert piece_c.weight == piece_w.weight
            assert piece_c.polygon.coords == piece_w.polygon.coords
        stats = geometry_table_stats()
        assert stats["entries"] >= len(constraints)
        assert stats["hits"] >= len(constraints)

    def test_zero_capacity_disables_cache(self):
        reset_geometry_tables()
        constraints = [positive(disk_at(0, 0, 300.0))]
        solver = WeightedRegionSolver(
            SolverConfig(engine="vector", geometry_table_cache_size=0)
        )
        solver.solve(constraints, PROJ)
        assert solver.diagnostics.geometry_table_hits == 0
        assert solver.diagnostics.geometry_table_misses == 0
        assert geometry_table_stats()["entries"] == 0

    def test_equal_valued_but_distinct_polygons_miss(self):
        """Identity keying: a rebuilt (non-cached) polygon must not hit."""
        reset_geometry_tables()
        first = [positive(disk_at(0, 0, 300.0))]
        second = [positive(disk_at(0, 0, 300.0))]  # equal values, new objects
        s1 = WeightedRegionSolver(SolverConfig(engine="vector"))
        s2 = WeightedRegionSolver(SolverConfig(engine="vector"))
        s1.solve(first, PROJ)
        s2.solve(second, PROJ)
        assert s2.diagnostics.geometry_table_hits == 0
        assert s2.diagnostics.geometry_table_misses == 1

    def test_pipeline_stats_surface_table_counters(self):
        from repro.core.pipeline import PipelineStats

        snapshot = PipelineStats().snapshot()
        assert "geometry_table_hits" in snapshot
        assert "geometry_table_misses" in snapshot


class TestIngestInvalidation:
    def test_post_ingest_solve_never_serves_stale_geometry(self):
        """After ``ingest()`` the answer equals a cold-cache rebuild.

        Invalidation is structural -- changed measurements realize new
        polygon objects, which miss the identity-keyed table cache -- so a
        warm process and a cold process must agree bit for bit on the
        post-ingest dataset.
        """
        from repro import BatchLocalizer, Octant, collect_dataset
        from repro.network.planetlab import small_deployment

        deployment = small_deployment(host_count=9, seed=11)
        ids = sorted(deployment.host_ids)
        full = collect_dataset(deployment)
        new_id, kept = ids[8], set(ids[:8])
        payload_hosts = [full.hosts[new_id]]
        payload_pings = [
            p
            for (s, d), p in sorted(full.pings.items())
            if new_id in (s, d) and (s in kept or d in kept)
        ]

        def signature(estimate):
            return (
                None
                if estimate.point is None
                else (estimate.point.lat, estimate.point.lon),
                None if estimate.region is None else estimate.region.area_km2(),
                estimate.constraints_used,
            )

        target = ids[0]

        live = collect_dataset(deployment, host_ids=ids[:8])
        localizer = BatchLocalizer(Octant(live))
        before = localizer.localize_one(target)
        again = localizer.localize_one(target)
        assert signature(before) == signature(again)  # warm path identical
        version_before = live.version
        live.ingest(hosts=payload_hosts, pings=payload_pings)
        assert live.version > version_before
        after = localizer.localize_one(target)

        # Cold reference: identical dataset history, empty geometry tables.
        reset_geometry_tables()
        live_cold = collect_dataset(deployment, host_ids=ids[:8])
        live_cold.ingest(hosts=payload_hosts, pings=payload_pings)
        reference = BatchLocalizer(Octant(live_cold)).localize_one(target)
        assert signature(after) == signature(reference)
        # The ingest changed the landmark set, so the answer moved too.
        assert signature(after) != signature(before)


# --------------------------------------------------------------------------- #
# Warm-cache thread safety (the thread executor's view)
# --------------------------------------------------------------------------- #
class TestWarmCacheThreadSafety:
    def test_geometry_table_hammer(self):
        """Concurrent geometry_for_constraint over one shared cache.

        The thread fan-out path solves fused chunks over *shared* warm
        caches; every thread resolves the same constraints through the
        process-global geometry table LRU.  All threads must observe
        consistent tables (identity or bit-equal rebuilds) with no
        exceptions, including the lazily-built Greiner-Hormann clip ring of
        a concave exclusion (``ensure_gh_tables`` mutates the shared entry).
        """
        concave = Polygon(
            [
                Point2D(-500.0, -500.0),
                Point2D(500.0, -500.0),
                Point2D(500.0, 500.0),
                Point2D(0.0, 0.0),
                Point2D(-500.0, 500.0),
            ]
        )
        constraints = [
            positive(disk_at(b, 250.0, 350.0), label=f"pos{b}")
            for b in (0.0, 90.0, 180.0, 270.0)
        ] + [PlanarConstraint(None, concave, 1.0, "concave")]
        config = SolverConfig()
        reset_geometry_tables()

        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def hammer(worker: int):
            try:
                barrier.wait(timeout=30)
                rng = random.Random(worker)
                for _ in range(200):
                    constraint = rng.choice(constraints)
                    geometry = geometry_for_constraint(constraint, config)
                    assert geometry.inclusion is constraint.inclusion
                    assert geometry.exclusion is constraint.exclusion
                    if constraint.exclusion is concave:
                        geometry.ensure_gh_tables()
                        assert len(geometry.exc_gh_ccw) == len(concave)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert not errors, errors

        # Every worker converged on the shared cached entries: one more
        # lookup per constraint is a pure hit.
        for constraint in constraints:
            first = geometry_for_constraint(constraint, config)
            again = geometry_for_constraint(constraint, config)
            assert first is again

    def test_thread_fanout_matches_serial(self):
        """Fused chunks across threads: identical estimates, shared caches."""
        from repro import BatchLocalizer, Octant, OctantConfig, collect_dataset
        from repro.network.planetlab import small_deployment

        dataset = collect_dataset(small_deployment(host_count=8, seed=5))
        targets = dataset.host_ids[:6]
        config = OctantConfig(solver=SolverConfig(engine="fused", fuse_width=2))
        serial = BatchLocalizer(Octant(dataset, config)).localize_all(targets)
        threaded = BatchLocalizer(
            Octant(dataset, config), max_workers=4, executor_kind="thread"
        ).localize_all(targets)
        for target in targets:
            a, b = serial[target], threaded[target]
            assert (a.point.lat, a.point.lon) == (b.point.lat, b.point.lon)
            assert a.constraints_used == b.constraints_used
            assert a.region.area_km2() == b.region.area_km2()
