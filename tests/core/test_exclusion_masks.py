"""Non-convex exclusion: the scalar subtraction path, ingest, threads.

Non-convex negative constraints (the paper's ocean/uninhabited regions,
Section 2.5, and hand-written rings) go through the fused kernel's pooled
bounding-box and keyhole stages; a part the exclusion straddles runs the
scalar ``subtract_polygons`` (Greiner-Hormann) once per distinct geometry,
the same call the reference solve makes.  This suite pins:

* fused-vs-reference bit identity on randomized non-convex-heavy systems,
  including disconnected, antimeridian-crossing and self-intersecting
  regions;
* fused cohorts against fused cohorts of one on non-convex-heavy cohorts
  (including a cohort of one and fuse-width-boundary chunking through the
  batch engine);
* a measurement ingest never serves stale geometry, the fallback counters
  surface through ``kernel_summary``, and fused chunks solved from
  concurrent threads match the serial batch.

The module, ``test_masked_*`` and ``*_gh_*`` names date from earlier
batched paths that non-convex exclusions used to ride; the cases now pin
the scalar subtraction path against the reference solve.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import PlanarConstraint, SolverConfig, WeightedRegionSolver
from repro.core.reference import reference_solve
from repro.core.solver import solve_systems
from repro.geometry import (
    AzimuthalEquidistantProjection,
    GeoPoint,
    Point2D,
    Polygon,
    disk_polygon,
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


def assert_reference_identical(constraints, config_kwargs=None):
    """Fused vs reference bit identity on every estimate metric.

    Returns the fused solver and region; :func:`reference_solve` is the
    independent scalar reference.
    """
    config = SolverConfig(**dict(config_kwargs or {}))
    fused = WeightedRegionSolver(config)
    region_v = fused.solve(constraints, PROJ)
    region_o, do = reference_solve(constraints, PROJ, config)
    assert region_v.area_km2() == region_o.area_km2()
    assert len(region_v.pieces) == len(region_o.pieces)
    for piece_v, piece_o in zip(region_v.pieces, region_o.pieces):
        assert piece_v.weight == piece_o.weight
        assert piece_v.polygon.coords == piece_o.polygon.coords
    dv = fused.diagnostics
    assert dv.constraints_applied == do.constraints_applied
    assert dv.dropped_constraints == do.dropped_constraints
    assert dv.max_weight == do.max_weight
    assert dv.selected_weight == do.selected_weight
    return fused, region_v


def assert_cohort_identical(cohort, config_kwargs=None):
    """Fused lockstep cohort vs fused cohorts of one, bit for bit."""
    kwargs = dict(config_kwargs or {})
    fused = solve_systems(
        SolverConfig(**kwargs), [(c, PROJ) for c in cohort]
    )
    for constraints, (region_f, diag_f) in zip(cohort, fused):
        solver = WeightedRegionSolver(SolverConfig(**kwargs))
        region_v = solver.solve(constraints, PROJ)
        assert region_f.area_km2() == region_v.area_km2()
        assert len(region_f.pieces) == len(region_v.pieces)
        for piece_f, piece_v in zip(region_f.pieces, region_v.pieces):
            assert piece_f.weight == piece_v.weight
            assert piece_f.polygon.coords == piece_v.polygon.coords
        assert diag_f.constraints_applied == solver.diagnostics.constraints_applied
        assert diag_f.dropped_constraints == solver.diagnostics.dropped_constraints


# --------------------------------------------------------------------------- #
# Fused vs the reference solve (non-convex-heavy systems)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(12))
def test_masked_nonconvex_equivalence(seed):
    rng = random.Random(9000 + seed)
    solver, _region = assert_reference_identical(random_nonconvex_system(rng))
    assert solver.diagnostics.fused_cohort_targets == 1


@pytest.mark.parametrize("seed", range(4))
def test_masked_nonconvex_equivalence_pruned(seed):
    rng = random.Random(9100 + seed)
    assert_reference_identical(random_nonconvex_system(rng), {"max_pieces": 4})


@pytest.mark.parametrize("seed", range(4))
def test_masked_nonconvex_equivalence_slivers(seed):
    rng = random.Random(9200 + seed)
    assert_reference_identical(
        random_nonconvex_system(rng), {"min_piece_area_km2": 500.0}
    )


@pytest.mark.parametrize("seed", range(8))
def test_gh_fallback_equivalence(seed):
    """A second randomized family: the fused kernel's bbox/keyhole stages
    and scalar subtraction vs the reference solve."""
    rng = random.Random(9300 + seed)
    assert_reference_identical(random_nonconvex_system(rng))


def _straddling_system() -> list[PlanarConstraint]:
    """Two far-apart non-convex exclusions straddling the base disk's edge.

    Low-weight exclusions apply *after* the disks have shrunk the pieces,
    and they straddle the base disk's boundary: neither bbox rejection nor
    the keyhole (strictly-contained) shortcut can resolve them, so the
    subtraction must run -- the scalar ``subtract_polygons`` per geometry.
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
    solver, region = assert_reference_identical(_straddling_system())
    assert solver.diagnostics.fallback_pieces > 0
    assert region.pieces


def test_gh_fallback_counters():
    """Boundary-straddling exclusions run the scalar subtraction and say so."""
    solver, _ = assert_reference_identical(_straddling_system())
    diagnostics = solver.diagnostics
    assert diagnostics.fallback_pieces > 0
    assert diagnostics.fallback_vertices > 0
    summary = diagnostics.kernel_summary()
    for key in ("fallback_pieces", "fallback_vertices"):
        assert key in summary
    assert summary["fallback_pieces"] == diagnostics.fallback_pieces


def test_antimeridian_ring_equivalence():
    """A non-convex ring crossing the antimeridian, far from the projection
    centre: the projected exclusion must still solve bit-identically in the
    solver and the reference (the azimuthal projection keeps it simple; the point of the case
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
    assert_reference_identical(constraints)


def test_self_intersecting_ring_rides_gh():
    """A bowtie exclusion (a projection fold) must agree bit for bit through
    the scalar Greiner-Hormann subtraction."""
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
    solver, _ = assert_reference_identical(constraints)
    assert solver.diagnostics.fallback_pieces > 0


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
    """fuse_width chunking with the geographic regions.

    The coarse rings are non-convex once projected.  The fused batch
    answers must equal fused cohorts of one and the reference solve's.
    """
    from repro import BatchLocalizer, Octant, collect_dataset
    from repro.core.config import OctantConfig, SolverConfig
    from repro.core.reference import reference_localize
    from repro.network.planetlab import small_deployment

    deployment = small_deployment(host_count=6, seed=13)
    dataset = collect_dataset(deployment)
    config = OctantConfig(solver=SolverConfig(fuse_width=4))
    fused = BatchLocalizer(Octant(dataset, config)).localize_all()
    one_at_a_time = config.with_overrides(solver=SolverConfig(fuse_width=1))
    reference = Octant(dataset, config)
    for other in (
        BatchLocalizer(Octant(dataset, one_at_a_time)).localize_all(),
        {t: reference_localize(reference, t, scalar_solve=True) for t in fused},
    ):
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
# Measurement ingest
# --------------------------------------------------------------------------- #
class TestIngestInvalidation:
    def test_post_ingest_solve_never_serves_stale_geometry(self):
        """After ``ingest()`` the answer equals a cold-cache rebuild.

        Changed measurements realize new constraints, which miss the
        content-addressed circle cache and planar memo, so a warm process
        and a cold process must agree bit for bit on the post-ingest
        dataset.
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

        # Cold reference: identical dataset history, fresh caches.
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
    def test_thread_fanout_matches_serial(self):
        """Fused chunks solved concurrently on one shared localizer.

        The serving executor's shape: several threads run fused
        ``solve_many`` chunks over one warm ``BatchLocalizer`` and its
        shared caches; every estimate equals serial ``localize_all``.
        """
        from repro import BatchLocalizer, Octant, OctantConfig, collect_dataset
        from repro.network.planetlab import small_deployment

        dataset = collect_dataset(small_deployment(host_count=8, seed=5))
        targets = dataset.host_ids[:6]
        config = OctantConfig(solver=SolverConfig(fuse_width=2))
        serial = BatchLocalizer(Octant(dataset, config)).localize_all(targets)
        shared = BatchLocalizer(Octant(dataset, config))
        chunks = [targets[i : i + 2] for i in range(0, len(targets), 2)]
        threaded: dict = {}
        with ThreadPoolExecutor(4) as pool:
            for result in pool.map(shared.solve_many, chunks):
                threaded.update(result)
        assert list(threaded) == targets
        for target in targets:
            a, b = serial[target], threaded[target]
            assert (a.point.lat, a.point.lon) == (b.point.lat, b.point.lon)
            assert a.constraints_used == b.constraints_used
            assert a.region.area_km2() == b.region.area_km2()
