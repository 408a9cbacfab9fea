"""Solution time: single-target latency and fused cohort solver throughput.

Sections 1 and 5 of the paper state that an Octant localization -- including
the geometric solve -- takes only a few seconds per target.  This module
tracks two numbers and persists them in a stable-schema ``BENCH_solver.json``
at the repo root (override the path with ``OCTANT_BENCH_JSON``) so CI and
tracking tooling can diff runs without parsing stdout:

* ``single_target`` -- one end-to-end localization (constraint construction,
  projection, weighted region solve, point extraction) against the shared
  deployment.
* ``cohort_engines`` -- the amortized per-target *solver* time of one fused
  cohort vs cohorts of one on identical planar constraint systems (the
  whole tracked cohort solved in one
  :func:`repro.core.solver.solve_systems` lockstep run vs one
  ``solve_systems`` call per system), with bit-identity asserted, the
  fused pass counters recorded, and the per-phase wall-time split
  (exclusion/assemble/inclusion/select) aggregated per side so phase-level
  wins are tracked for both.  The tracked figure is measured at
  ``OCTANT_BENCH_HOSTS=30``.
* ``gh_exclusion`` -- the fused kernel's batched Greiner-Hormann
  subtraction of non-convex exclusions vs ``engine="object"`` (the scalar
  reference) on the same systems under the *detailed* (non-convex)
  geographic region catalogue, with fused == object identity asserted on
  those geo-heavy systems.  CI gates the batched path >=1.3x over the
  object engine at the 20-host smoke cohort.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import BatchLocalizer, Octant
from repro.evalx import percentile

#: Bump when the shape of BENCH_solver.json changes.
#: v4: the fused engine books the same per-phase names as the vector engine
#: (inclusion / exclusion / assemble / select -- ``fused_step`` is gone) and
#: ``single_target`` records the active clip-kernel backend.
#: v5: ``exclusion_masks`` is replaced by ``gh_exclusion`` (batched
#: Greiner-Hormann vs the object engine); the kernel summary drops the
#: backend name, the compiled-runtime block and the mask-cell counter.
#: v6: the vector engine is gone.  ``cohort_engines`` compares one fused
#: cohort with cohorts of one (``one_at_a_time_*`` keys) and
#: ``gh_exclusion`` records ``fused_solve_ms_per_system``.
#: v7: ``cohort_engines`` records the p50 and p90 of the per-system solve
#: times (``one_at_a_time_ms_p50``/``_p90``) and the fused run's shared
#: piece share (``fused_shared_pieces``, ``fused_step_pieces``,
#: ``fused_shared_share``).
SCHEMA_VERSION = 7


def _merge_json(section: str, payload: dict) -> None:
    from conftest import merge_bench_json

    merge_bench_json("OCTANT_BENCH_JSON", "BENCH_solver.json", SCHEMA_VERSION, section, payload)


def _phase_split(outcomes) -> dict[str, float]:
    """Aggregate per-phase solver wall time over a list of (region, diag)."""
    totals: dict[str, float] = {}
    for _region, diagnostics in outcomes:
        for phase, seconds in diagnostics.phase_seconds.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return {phase: round(seconds, 6) for phase, seconds in sorted(totals.items())}

@pytest.mark.benchmark(group="solution-time")
def test_single_target_solution_time(benchmark, dataset):
    octant = Octant(dataset)
    target = dataset.host_ids[0]
    # Per-landmark preparation (calibration, heights, router localization) is
    # amortized across targets in a deployment, so it is excluded from the
    # per-target timing, exactly as the paper's "few seconds" figure is about
    # solving one target's constraint system.
    prepared = BatchLocalizer(octant).prepare_for_target(target)

    estimate = benchmark(lambda: octant.localize(target, prepared=prepared))

    # Tracked figures: an explicit minimum-of-5 localize loop (robust to
    # scheduler noise, matching the cohort benchmark's min-of-N discipline),
    # with the planar memo warm -- the serving-relevant number.
    runs = [octant.localize(target, prepared=prepared) for _ in range(5)]
    solver_seconds = min(
        float(run.details.get("solver_seconds", 0.0)) for run in runs
    )
    per_target_s = min(run.solve_time_s for run in runs)
    estimate = min(runs, key=lambda run: run.solve_time_s)
    engine = str(estimate.details.get("solver_engine", "unknown"))
    targets_per_sec = (1.0 / per_target_s) if per_target_s > 0 else float("inf")

    print()
    print("=" * 72)
    print("Solution time -- single-target localization (paper: 'a few seconds')")
    print("=" * 72)
    print(f"  target          : {target}")
    print(f"  solver engine   : {engine}")
    print(f"  constraints used: {estimate.constraints_used}")
    print(f"  region area     : {estimate.region_area_square_miles():.0f} sq mi")
    print(f"  localize time   : {per_target_s:.3f} s ({targets_per_sec:.1f} targets/sec)")
    print(f"  solver time     : {solver_seconds:.3f} s")

    _merge_json(
        "single_target",
        {
            "engine": engine,
            "hosts": len(dataset.hosts),
            "constraints_used": estimate.constraints_used,
            "per_target_localize_s": round(per_target_s, 6),
            "per_target_solver_s": round(solver_seconds, 6),
            "targets_per_sec": round(targets_per_sec, 3),
            "kernel": estimate.details.get("kernel"),
        },
    )

    assert estimate.succeeded
    assert estimate.solve_time_s < 10.0


@pytest.mark.benchmark(group="solution-time")
def test_cohort_engine_speedup(dataset, target_ids):
    """One fused cohort vs cohorts of one on identical systems.

    Builds every target's planar constraint system once (through the batch
    engine, so both sides see bit-identical inputs), then times
    interleaved minimum-of-N runs of (a) ``solve_systems`` called once per
    system -- a cohort of one, the single-request path -- and (b) the whole
    cohort through one ``solve_systems`` lockstep run.  Identity is
    asserted on every pinned metric; the amortized per-target speedup is
    the tracked number (30-host cohort) and the CI smoke drift gate.
    """
    from repro.core.config import SolverConfig
    from repro.core.solver import solve_systems

    localizer = BatchLocalizer(Octant(dataset))
    systems = []
    dropped = 0
    for target in target_ids:
        try:
            prepared = localizer.prepare_for_target(target)
        except (ValueError, KeyError):
            dropped += 1
            continue
        presolved = localizer.octant.presolve(target, prepared=prepared)
        systems.append((presolved.planar, presolved.projection))
    if dropped:
        print(f"  (presolve dropped {dropped} of {len(target_ids)} targets)")

    config = SolverConfig()
    best = {"one_at_a_time": float("inf"), "fused": float("inf")}
    # Each system alone, minimum over the repetitions: the tail of the
    # single-request solve.
    alone_s = [float("inf")] * len(systems)
    results: dict[str, list] = {}
    for _repetition in range(3):
        for side in ("one_at_a_time", "fused"):
            started = time.perf_counter()
            if side == "fused":
                out = solve_systems(config, systems)
            else:
                out = []
                for k, system in enumerate(systems):
                    system_started = time.perf_counter()
                    out.append(solve_systems(config, [system])[0])
                    alone_s[k] = min(alone_s[k], time.perf_counter() - system_started)
            best[side] = min(best[side], time.perf_counter() - started)
            results.setdefault(side, out)

    # Bit-identity on every pinned metric, one cohort vs cohorts of one.
    for (region_v, diag_v), (region_f, diag_f) in zip(
        results["one_at_a_time"], results["fused"]
    ):
        assert region_v.area_km2() == region_f.area_km2()
        assert len(region_v.pieces) == len(region_f.pieces)
        for piece_v, piece_f in zip(region_v.pieces, region_f.pieces):
            assert piece_v.weight == piece_f.weight
            assert piece_v.polygon.coords == piece_f.polygon.coords
        assert diag_v.constraints_applied == diag_f.constraints_applied
        assert diag_v.dropped_constraints == diag_f.dropped_constraints
        assert diag_v.max_weight == diag_f.max_weight

    per_target = len(systems) or 1
    alone_ms = best["one_at_a_time"] / per_target * 1000
    fused_ms = best["fused"] / per_target * 1000
    speedup = best["one_at_a_time"] / best["fused"] if best["fused"] else float("inf")
    fused_diag = results["fused"][0][1] if results["fused"] else None
    alone_ms_each = [seconds * 1000 for seconds in alone_s]
    alone_p50 = percentile(alone_ms_each, 50) if alone_ms_each else 0.0
    alone_p90 = percentile(alone_ms_each, 90) if alone_ms_each else 0.0
    shared_pieces = sum(diag.shared_pieces for _r, diag in results["fused"])
    step_pieces = sum(diag.step_pieces for _r, diag in results["fused"])
    shared_share = shared_pieces / step_pieces if step_pieces else 0.0

    phase_seconds = {side: _phase_split(outcomes) for side, outcomes in results.items()}

    print()
    print("=" * 72)
    print(
        f"Fused cohort engine -- {len(dataset.hosts)} hosts, "
        f"{per_target} targets (single core, min of 3 interleaved)"
    )
    print("=" * 72)
    print(f"  one at a time : {alone_ms:7.2f} ms/target solve time")
    print(f"  per system    : p50 {alone_p50:7.2f} ms, p90 {alone_p90:7.2f} ms")
    print(f"  fused cohort  : {fused_ms:7.2f} ms/target amortized")
    print(f"  speedup       : {speedup:5.2f}x")
    for side, phases in phase_seconds.items():
        print(f"  {side} phases: {phases}")
    if fused_diag is not None:
        print(
            f"  pooled passes : {fused_diag.fused_pass_count} "
            f"({fused_diag.fused_rows_clipped} rows, "
            f"{fused_diag.fused_targets_per_pass:.1f} targets/step)"
        )
    print(
        f"  shared pieces : {shared_pieces} of {step_pieces} "
        f"pieces entering steps ({shared_share:.1%})"
    )

    _merge_json(
        "cohort_engines",
        {
            "hosts": len(dataset.hosts),
            "targets": per_target,
            "one_at_a_time_ms_per_target": round(alone_ms, 3),
            "one_at_a_time_ms_p50": round(alone_p50, 3),
            "one_at_a_time_ms_p90": round(alone_p90, 3),
            "fused_ms_per_target": round(fused_ms, 3),
            "fused_speedup": round(speedup, 3),
            "phase_seconds": phase_seconds,
            "fused_pass_count": 0 if fused_diag is None else fused_diag.fused_pass_count,
            "fused_rows_clipped": 0
            if fused_diag is None
            else fused_diag.fused_rows_clipped,
            "fused_targets_per_pass": 0.0
            if fused_diag is None
            else round(fused_diag.fused_targets_per_pass, 3),
            "fused_shared_pieces": shared_pieces,
            "fused_step_pieces": step_pieces,
            "fused_shared_share": round(shared_share, 4),
        },
    )

    # Drift gate: a cohort must amortize once it is big enough for pooling
    # to matter; below that only identity is meaningful.  The baseline is
    # the same kernel one system at a time, the single-request path.  The
    # tracked 30-host figure is ~1.3-1.6x; the gate sits a noise margin
    # below it, and a real regression (pooling silently disabled reads
    # ~1.0x) still trips it.  Gated on the
    # *requested* cohort so dropped presolves cannot silently shrink the
    # run below the threshold and disable the gate.  This guards the
    # *solver-level* pooling only; the end-to-end fused-pipeline floor
    # (>=1.4x with every pre-solve stage batched) is gated separately by
    # ``bench_batch_localize.py::test_fused_pipeline_drift_gate``.
    if len(target_ids) >= 20 and len(dataset.hosts) >= 20:
        assert dropped <= len(target_ids) // 4, "too many presolve failures"
        assert speedup >= 1.1


@pytest.mark.benchmark(group="solution-time")
def test_gh_exclusion_speedup(dataset, target_ids):
    """Batched Greiner-Hormann (fused kernel) vs the object engine.

    Two workloads, both built from the *detailed* (non-convex coastline)
    geographic region catalogue:

    * **Timing: boundary-straddling systems.**  One system per cohort
      target, each projected at a region boundary vertex with positive
      disks centred on it, so the low-weight region exclusions apply to
      pieces that *straddle* their rings -- the load the subtraction
      machinery actually runs on (at their usual top weight geographic
      regions keyhole into the pristine world piece and never reach it).
      The gated figure is the exclusion work itself: each system's
      non-convex exclusions are subtracted from its piece population (the
      object engine's population after the positive disks) by the fused
      kernel's exclusion stage (a cohort of one) and by the object engine's
      per-piece
      ``subtract_cautious``, interleaved minimum-of-N, outputs asserted
      bit-identical.  Whole-solve times of both engines are recorded
      beside it; the positive disks dominate them, so their ratio says
      little about the exclusion path.
    * **Identity: the real pipeline.**  Every cohort target's actual
      detailed-catalogue system is solved fused (one cohort, and one
      system at a time) and object, and asserted bit-identical.

    The drift gate (batched >=1.3x over object at >=20 hosts) keeps the win
    from silently rotting.
    """
    from repro.core import GeoRegionConstraint, PlanarConstraint, Polarity
    from repro.core.config import OctantConfig, SolverConfig
    from repro.core.solver import (
        SolverDiagnostics,
        WeightedRegionSolver,
        solve_systems,
    )
    from repro.geometry import AzimuthalEquidistantProjection, RegionPiece, disk_polygon
    from repro.geometry.kernel import (
        WORLD_SQUARE,
        FusedSolverKernel,
        PieceBuffer,
        _TargetState,
        geometry_for_constraint,
        subtract_cautious,
    )
    from repro.network.geodata import (
        DETAILED_OCEAN_REGIONS,
        DETAILED_UNINHABITED_REGIONS,
    )

    regions = DETAILED_OCEAN_REGIONS + DETAILED_UNINHABITED_REGIONS

    def straddling_system(k: int):
        region = regions[k % len(regions)]
        anchor = region.ring[k % len(region.ring)]
        projection = AzimuthalEquidistantProjection(anchor)
        constraints = [
            PlanarConstraint(disk_polygon(anchor, 900.0, projection, 32), None, 1.0, "base")
        ]
        for bearing, radius, weight in ((0.0, 500.0, 0.8), (120.0, 450.0, 0.7), (240.0, 400.0, 0.6)):
            centre = anchor.destination(bearing, 250.0)
            constraints.append(
                PlanarConstraint(
                    disk_polygon(centre, radius, projection, 32), None, weight, f"aux{int(bearing)}"
                )
            )
        for j in range(3):
            other = regions[(k + j) % len(regions)]
            planar = GeoRegionConstraint(
                ring=other.ring,
                polarity=Polarity.NEGATIVE,
                weight=0.4 - 0.05 * j,
                label=f"geo:{other.name}",
            ).to_planar(projection)
            if planar is not None:
                constraints.append(planar)
        return constraints, projection

    def assert_identical(a, b) -> None:
        (region_a, diag_a), (region_b, diag_b) = a, b
        assert region_a.area_km2() == region_b.area_km2()
        assert len(region_a.pieces) == len(region_b.pieces)
        for piece_a, piece_b in zip(region_a.pieces, region_b.pieces):
            assert piece_a.weight == piece_b.weight
            assert piece_a.polygon.coords == piece_b.polygon.coords
        assert diag_a.dropped_constraints == diag_b.dropped_constraints

    straddling = [straddling_system(k) for k in range(len(target_ids))]
    nonconvex_rings = sum(
        1
        for planar, _p in straddling
        for c in planar
        if c.exclusion is not None and not c.exclusion.is_convex()
    )
    assert nonconvex_rings > 0, "detailed catalogue produced no non-convex work"

    # The exclusion workload: per system, the piece population the object
    # engine holds once the positive disks are applied (the exclusions
    # weigh less, so they come after), and the system's non-convex rings.
    solver_config = SolverConfig()
    reference = WeightedRegionSolver(SolverConfig(engine="object"))
    workload = []
    for planar, _projection in straddling:
        pieces = [RegionPiece(WORLD_SQUARE, 0.0)]
        for constraint in sorted(
            (c for c in planar if c.exclusion is None), key=lambda c: c.weight, reverse=True
        ):
            pieces = reference._prune(reference._apply_constraint(pieces, constraint))
        rings = [c for c in planar if c.exclusion is not None and not c.exclusion.is_convex()]
        workload.append(([p.polygon for p in pieces], rings))

    def exclude_object():
        return [
            [subtract_cautious(polygon, ring.exclusion) for polygon in polygons]
            for polygons, rings in workload
            for ring in rings
        ]

    def exclude_batched():
        out = []
        kernel = FusedSolverKernel(solver_config)
        for polygons, rings in workload:
            buffer = PieceBuffer.from_polygons([(polygon, 0.0) for polygon in polygons])
            for ring in rings:
                state = _TargetState(SolverDiagnostics(), buffer, [ring], None)
                state.geometry = geometry_for_constraint(ring)
                state.inside_parts = [[part] for part in buffer.parts()]
                kernel._fused_exclusion([state])
                out.append(state.satisfied)
        return out

    def solve_all(engine):
        config = SolverConfig(engine=engine)
        out = []
        for planar, projection in straddling:
            solver = WeightedRegionSolver(config)
            out.append((solver.solve(planar, projection), solver.diagnostics))
        return out

    runs = {
        "exclude_batched": exclude_batched,
        "exclude_object": exclude_object,
        "solve_fused": lambda: solve_all("fused"),
        "solve_object": lambda: solve_all("object"),
    }
    best = {name: float("inf") for name in runs}
    results: dict[str, list] = {}
    for _repetition in range(3):
        for name, run in runs.items():
            started = time.perf_counter()
            out = run()
            best[name] = min(best[name], time.perf_counter() - started)
            results.setdefault(name, out)
    assert len(results["exclude_batched"]) == len(results["exclude_object"])
    for a, b in zip(results["solve_fused"], results["solve_object"]):
        assert_identical(a, b)
    for batched, scalar in zip(results["exclude_batched"], results["exclude_object"]):
        assert [[tuple(zip(xs.tolist(), ys.tolist())) for xs, ys, _a in kept] for kept in batched] == [
            [tuple(polygon.coords) for polygon in kept] for kept in scalar
        ]

    # One fused cohort == fused one at a time == object on the real
    # pipeline's detailed-catalogue systems.
    config = OctantConfig(geographic_detail="detailed")
    localizer = BatchLocalizer(Octant(dataset, config))
    pipeline_systems = []
    for target in target_ids:
        try:
            prepared = localizer.prepare_for_target(target)
        except (ValueError, KeyError):
            continue
        presolved = localizer.octant.presolve(target, prepared=prepared)
        pipeline_systems.append((presolved.planar, presolved.projection))
    # The identity step must not pass vacuously: a presolve regression that
    # drops most targets would otherwise disable the gate silently.
    assert len(pipeline_systems) >= len(target_ids) - len(target_ids) // 4
    fused = solve_systems(SolverConfig(engine="fused"), pipeline_systems)
    for (planar, projection), fused_outcome in zip(pipeline_systems, fused):
        for engine in ("fused", "object"):
            solver = WeightedRegionSolver(SolverConfig(engine=engine))
            region = solver.solve(planar, projection)
            assert_identical((region, solver.diagnostics), fused_outcome)

    per_target = len(straddling) or 1
    ms = {name: seconds / per_target * 1000 for name, seconds in best.items()}
    speedup = best["exclude_object"] / best["exclude_batched"]
    solve_ratio = best["solve_object"] / best["solve_fused"]
    gh_pieces = sum(d.fallback_pieces for _r, d in results["solve_fused"])
    exclusion_pieces = sum(len(polygons) * len(rings) for polygons, rings in workload)

    print()
    print("=" * 72)
    print(
        f"Non-convex exclusion -- {per_target} boundary-straddling systems, "
        f"{nonconvex_rings} non-convex exclusions (min of 3 interleaved); "
        f"identity over {len(pipeline_systems)} pipeline systems"
    )
    print("=" * 72)
    print(
        f"  exclusion work: batched {ms['exclude_batched']:6.2f} vs object "
        f"{ms['exclude_object']:6.2f} ms/system -> {speedup:4.2f}x "
        f"({exclusion_pieces} piece subtractions)"
    )
    print(
        f"  whole solve   : fused   {ms['solve_fused']:6.2f} vs object "
        f"{ms['solve_object']:6.2f} ms/system -> {solve_ratio:4.2f}x "
        f"({gh_pieces} GH pieces)"
    )

    _merge_json(
        "gh_exclusion",
        {
            "hosts": len(dataset.hosts),
            "systems": per_target,
            "nonconvex_rings": nonconvex_rings,
            "exclusion_piece_subtractions": exclusion_pieces,
            "gh_exclusion_ms_per_system": round(ms["exclude_batched"], 3),
            "object_exclusion_ms_per_system": round(ms["exclude_object"], 3),
            "gh_speedup": round(speedup, 3),
            "fused_solve_ms_per_system": round(ms["solve_fused"], 3),
            "object_solve_ms_per_system": round(ms["solve_object"], 3),
            "solve_ratio": round(solve_ratio, 3),
            "gh_pieces": gh_pieces,
            "pipeline_identity_systems": len(pipeline_systems),
        },
    )

    # Drift gate: the batched exclusion path must clearly beat the object
    # engine's once the cohort is big enough to measure (the tracked figure
    # is ~2.8x), so routing the fused kernel's non-convex exclusions
    # through scalar code trips it.
    if len(target_ids) >= 20 and len(dataset.hosts) >= 20:
        assert speedup >= 1.3
