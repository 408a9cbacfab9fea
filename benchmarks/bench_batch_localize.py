"""Batch engine throughput: single-target prepare() thrash vs BatchLocalizer.

The paper's evaluation is leave-one-out, so the single-target API pays a full
``prepare()`` -- height estimation, per-landmark calibration, router
localization -- for *every* target (each target sees a different landmark
set; the LRU never hits).  The batch engine computes full-cohort shared state
once, derives each target's leave-one-out view by masking, and optionally
fans targets out across workers.

This benchmark records both paths' throughput over the shared deployment and
pins the contract that matters: the batch estimates are **identical** to the
sequential ones.  Sizing is controlled by the usual environment knobs
(``OCTANT_BENCH_HOSTS=30`` reproduces the tracked 30-host cohort;
``OCTANT_BENCH_WORKERS`` sets the fan-out, default ``auto``).
"""

from __future__ import annotations

import os
import time

import pytest

from repro import BatchLocalizer, Octant, OctantConfig
from repro.core.config import SolverConfig

#: Bump when the shape of BENCH_batch.json changes.
#: v2: ``batch_localize`` gained ``stage_ms_per_target`` -- the fused
#: pipeline's per-stage wall-time breakdown (assembly, heights, calibration,
#: piecewise, planarize, solve) sourced from ``PipelineStats``.
#: v3: new ``fused_worker_scaling`` section -- thread fan-out of fused
#: chunks at 1/2/4 workers (ms/target, speedup, parallel efficiency) plus
#: the active kernel backend, tracking the compiled nogil clip core.
#: v4: ``fused_worker_scaling`` drops the backend name and JIT flag (the
#: row kernels run on NumPy only).
SCHEMA_VERSION = 4


def _merge_json(section: str, payload: dict) -> None:
    from conftest import merge_bench_json

    merge_bench_json(
        "OCTANT_BATCH_BENCH_JSON", "BENCH_batch.json", SCHEMA_VERSION, section, payload
    )


def _estimate_signature(estimate):
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
        estimate.details.get("max_weight"),
    )


def _engine_signature(estimate):
    """Every pinned metric the solver engines must agree on."""
    region = estimate.region
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if region is None else region.area_km2(),
        None if region is None else len(region.pieces),
        None
        if region is None
        else tuple(
            (piece.weight, tuple(piece.polygon.coords)) for piece in region.pieces
        ),
        estimate.details.get("max_weight"),
    )


@pytest.mark.benchmark(group="batch-localize")
def test_batch_localize_throughput(dataset, target_ids):
    config = OctantConfig()
    workers = os.environ.get("OCTANT_BENCH_WORKERS", "auto")
    if workers not in ("auto",):
        workers = int(workers)
    fused_config = OctantConfig(solver=SolverConfig(engine="fused"))

    # Interleaved minimum-of-2 per path (fresh engines each repetition, so
    # every measurement pays the same cold caches): single-core scheduling
    # noise hits whichever path is running, and the interleaving keeps it
    # from biasing one path's tracked number.
    t_sequential = t_batch_serial = t_batch_parallel = t_batch_fused = float("inf")
    sequential = batch_serial = batch_parallel = batch_fused = None
    fused_stats = None
    for _repetition in range(2):
        # -- single-target path: one localize() per target, prepare thrash - #
        sequential_engine = Octant(dataset, config)
        started = time.perf_counter()
        result = {t: sequential_engine.localize(t) for t in target_ids}
        t_sequential = min(t_sequential, time.perf_counter() - started)
        sequential = sequential or result

        # -- batch path, serial: shared state + masked derivation ---------- #
        batch_serial_engine = BatchLocalizer(Octant(dataset, config))
        started = time.perf_counter()
        result = batch_serial_engine.localize_all(target_ids)
        t_batch_serial = min(t_batch_serial, time.perf_counter() - started)
        batch_serial = batch_serial or result

        # -- batch path with worker fan-out -------------------------------- #
        batch_workers_engine = BatchLocalizer(
            Octant(dataset, config), max_workers=workers
        )
        started = time.perf_counter()
        result = batch_workers_engine.localize_all(target_ids)
        t_batch_parallel = min(t_batch_parallel, time.perf_counter() - started)
        batch_parallel = batch_parallel or result

        # -- batch path through the fused cohort engine -------------------- #
        batch_fused_engine = BatchLocalizer(Octant(dataset, fused_config))
        started = time.perf_counter()
        result = batch_fused_engine.localize_all(target_ids)
        elapsed = time.perf_counter() - started
        if elapsed < t_batch_fused:
            t_batch_fused = elapsed
            fused_stats = batch_fused_engine.octant.pipeline.stats
        batch_fused = batch_fused or result

    per_target = len(target_ids) or 1
    speedup_serial = t_sequential / t_batch_serial if t_batch_serial else float("inf")
    speedup_parallel = (
        t_sequential / t_batch_parallel if t_batch_parallel else float("inf")
    )

    print()
    print("=" * 72)
    print(
        f"Batch leave-one-out localization -- {len(dataset.hosts)} hosts, "
        f"{per_target} targets, cpus={os.cpu_count()}"
    )
    print("=" * 72)
    print(
        f"  single-target (prepare thrash): {t_sequential:7.2f}s "
        f"({t_sequential / per_target * 1000:6.0f} ms/target)"
    )
    print(
        f"  batch, serial derive          : {t_batch_serial:7.2f}s "
        f"({t_batch_serial / per_target * 1000:6.0f} ms/target)  "
        f"speedup {speedup_serial:4.2f}x"
    )
    print(
        f"  batch, workers={workers!s:<6}        : {t_batch_parallel:7.2f}s "
        f"({t_batch_parallel / per_target * 1000:6.0f} ms/target)  "
        f"speedup {speedup_parallel:4.2f}x"
    )
    speedup_fused = t_sequential / t_batch_fused if t_batch_fused else float("inf")
    print(
        f"  batch, fused cohort engine    : {t_batch_fused:7.2f}s "
        f"({t_batch_fused / per_target * 1000:6.0f} ms/target)  "
        f"speedup {speedup_fused:4.2f}x"
    )

    # Per-stage Amdahl breakdown of the fastest fused repetition: the batched
    # pre-solve stages (heights, calibration, piecewise, planarize) credit
    # their pooled wall time to PipelineStats, so the tracked artifact shows
    # where the remaining per-target milliseconds live.
    stage_ms_per_target = {
        stage: round(getattr(fused_stats, f"{stage}_seconds") / per_target * 1000, 3)
        for stage in (
            "assemble",
            "heights",
            "calibration",
            "piecewise",
            "planarize",
            "solve",
        )
    }
    print(f"  fused stage ms/target         : {stage_ms_per_target}")

    # The contract: identical estimates on every path (the fused cohort
    # engine included -- its chunked solve_many must be indistinguishable).
    for target in target_ids:
        want = _estimate_signature(sequential[target])
        assert _estimate_signature(batch_serial[target]) == want
        assert _estimate_signature(batch_parallel[target]) == want
        assert _estimate_signature(batch_fused[target]) == want

    _merge_json(
        "batch_localize",
        {
            "hosts": len(dataset.hosts),
            "targets": per_target,
            "workers": str(workers),
            "sequential_ms_per_target": round(t_sequential / per_target * 1000, 3),
            "batch_serial_ms_per_target": round(t_batch_serial / per_target * 1000, 3),
            "batch_parallel_ms_per_target": round(
                t_batch_parallel / per_target * 1000, 3
            ),
            "batch_fused_ms_per_target": round(t_batch_fused / per_target * 1000, 3),
            "speedup_serial": round(speedup_serial, 3),
            "speedup_parallel": round(speedup_parallel, 3),
            "speedup_fused": round(speedup_fused, 3),
            "stage_ms_per_target": stage_ms_per_target,
        },
    )

    # Throughput guard: the batch engine must never be meaningfully slower
    # than the thrashing single-target loop (it shares the solver; the win
    # is the amortized preparation plus worker scaling on multi-core hosts).
    # Only enforced at a size where per-target work dwarfs executor startup;
    # at CI smoke sizes the ratios are noise and only the identity contract
    # above is meaningful.
    if len(target_ids) >= 20:
        assert speedup_serial > 0.85
        assert speedup_parallel > 0.85


@pytest.mark.benchmark(group="batch-localize")
def test_fused_worker_scaling(dataset, target_ids):
    """Thread fan-out of fused chunks: ms/target and parallel efficiency.

    Every batched clip pass executes under the GIL -- NumPy releases it only
    inside individual ufunc calls, and the kernel's time is dominated by the
    Python dispatch glue *between* those calls -- so fanning fused chunks
    across threads buys little (1.04x at 2 workers when first measured).
    The section records ms/target at 1/2/4 workers plus parallel efficiency
    (speedup / workers) so a change to that picture shows up; there is no
    scaling floor.

    Identity is asserted across every worker count: fan-out must never
    change an estimate.
    """
    worker_counts = (1, 2, 4)
    # Cut the cohort into four chunks regardless of size so 2 and 4 workers
    # both have enough parallel slack (the default fuse_width=16 would leave
    # a 20-target smoke cohort with just two lopsided chunks).
    width = max(1, (len(target_ids) + 3) // 4)
    config = OctantConfig(solver=SolverConfig(engine="fused", fuse_width=width))

    # Warm the process-wide caches outside the timed region, so they do not
    # land entirely on the workers=1 baseline.
    BatchLocalizer(Octant(dataset, config)).localize_all(
        target_ids[: min(4, len(target_ids))]
    )

    timings: dict[int, float] = {w: float("inf") for w in worker_counts}
    results: dict[int, dict] = {}
    for _repetition in range(2):
        for workers in worker_counts:
            engine = BatchLocalizer(
                Octant(dataset, config),
                max_workers=workers,
                executor_kind="thread",
            )
            started = time.perf_counter()
            out = engine.localize_all(target_ids)
            timings[workers] = min(timings[workers], time.perf_counter() - started)
            results.setdefault(workers, out)

    for target in target_ids:
        want = _estimate_signature(results[worker_counts[0]][target])
        for workers in worker_counts[1:]:
            assert _estimate_signature(results[workers][target]) == want, target

    per_target = len(target_ids) or 1
    base = timings[worker_counts[0]]
    scaling = {
        str(workers): {
            "ms_per_target": round(timings[workers] / per_target * 1000, 3),
            "speedup": round(base / timings[workers], 3) if timings[workers] else None,
            "efficiency": round(base / (timings[workers] * workers), 3)
            if timings[workers]
            else None,
        }
        for workers in worker_counts
    }

    print()
    print("=" * 72)
    print(
        f"Fused chunk thread scaling -- {len(dataset.hosts)} hosts, "
        f"{per_target} targets, fuse_width={width}"
    )
    print("=" * 72)
    for workers in worker_counts:
        row = scaling[str(workers)]
        print(
            f"  workers={workers}: {row['ms_per_target']:7.1f} ms/target  "
            f"speedup {row['speedup']:4.2f}x  efficiency {row['efficiency']:4.2f}"
        )

    _merge_json(
        "fused_worker_scaling",
        {
            "hosts": len(dataset.hosts),
            "targets": per_target,
            "fuse_width": width,
            "workers": scaling,
        },
    )


@pytest.mark.benchmark(group="batch-localize")
def test_fused_pipeline_drift_gate(dataset, target_ids):
    """End-to-end fused-cohort drift gate plus whole-pipeline identity.

    Two contracts, both against the scalar single-target reference path:

    1. **Identity on a randomized cohort.**  The fused cohort engine solves
       the targets in a shuffled order (so chunk composition differs from
       the canonical roster) and every estimate must equal the scalar
       ``Octant.localize`` answer bit for bit -- the whole-pipeline
       batched-stages-vs-scalar gate.
    2. **End-to-end floor.**  With the pre-solve stages batched along the
       cohort axis (heights, calibration, piecewise, planarization) the
       fused engine must beat the sequential loop by >= 1.4x at the 20-host
       smoke cohort (interleaved min-of-2 keeps scheduler noise out of the
       ratio; the tracked 30-host figure is higher).
    """
    import random

    shuffled = list(target_ids)
    random.Random(len(shuffled) * 31 + len(dataset.hosts)).shuffle(shuffled)
    fused_config = OctantConfig(solver=SolverConfig(engine="fused"))

    best = {"sequential": float("inf"), "fused": float("inf")}
    results: dict[str, dict] = {}
    for _repetition in range(2):
        sequential_engine = Octant(dataset)
        started = time.perf_counter()
        sequential = {t: sequential_engine.localize(t) for t in target_ids}
        best["sequential"] = min(best["sequential"], time.perf_counter() - started)
        results.setdefault("sequential", sequential)

        fused_engine = BatchLocalizer(Octant(dataset, fused_config))
        started = time.perf_counter()
        fused = fused_engine.localize_all(shuffled)
        best["fused"] = min(best["fused"], time.perf_counter() - started)
        results.setdefault("fused", fused)

    for target in target_ids:
        assert _estimate_signature(results["fused"][target]) == _estimate_signature(
            results["sequential"][target]
        ), target

    per_target = len(target_ids) or 1
    sequential_ms = best["sequential"] / per_target * 1000
    fused_ms = best["fused"] / per_target * 1000
    speedup = best["sequential"] / best["fused"] if best["fused"] else float("inf")

    print()
    print("=" * 72)
    print(
        f"Fused pipeline drift gate -- {len(dataset.hosts)} hosts, "
        f"{per_target} targets (min of 2 interleaved)"
    )
    print("=" * 72)
    print(f"  sequential : {sequential_ms:7.1f} ms/target end to end")
    print(f"  fused      : {fused_ms:7.1f} ms/target end to end")
    print(f"  speedup    : {speedup:5.2f}x")

    _merge_json(
        "fused_pipeline_gate",
        {
            "hosts": len(dataset.hosts),
            "targets": per_target,
            "sequential_ms_per_target": round(sequential_ms, 3),
            "fused_ms_per_target": round(fused_ms, 3),
            "fused_speedup": round(speedup, 3),
        },
    )

    # End-to-end drift gate (was >= 1.1x when only the solve stage was
    # shared): with every pre-solve stage batched the floor at the 20-host
    # smoke cohort is >= 1.4x.  Below that size the amortization does not
    # dominate noise and only the identity contract above is meaningful.
    if len(target_ids) >= 20 and len(dataset.hosts) >= 20:
        assert speedup >= 1.4


@pytest.mark.benchmark(group="solver-engine")
def test_solver_engine_speedup(dataset, target_ids):
    """Vector vs object solver engine: identity always, speedup at size.

    Two measurements:

    1. **End-to-end identity.**  Full leave-one-out runs under each engine
       must produce bit-identical estimates on every pinned metric (point,
       area, piece count, per-piece weights and vertex coordinates) -- the
       drift gate CI runs on a tiny cohort.
    2. **Weighted-solver time.**  Each target's planar constraint system is
       built once (through the batch engine, so both solvers see identical
       inputs) and then solved by each engine; the solve() wall time is the
       metric the vectorized flat-buffer kernel targets.  Interleaved
       minimum-of-N repetitions keep single-core scheduling noise out of the
       ratio.  The tracked figure (30-host cohort, single core) is a >=3x
       reduction; the assertion below uses a noise margin.
    """
    from repro.core.heights import estimate_target_height
    from repro.core.solver import WeightedRegionSolver

    # -- end-to-end identity under both engines -------------------------- #
    results = {}
    for engine in ("vector", "object", "fused"):
        config = OctantConfig(solver=SolverConfig(engine=engine))
        results[engine] = BatchLocalizer(Octant(dataset, config)).localize_all(
            target_ids
        )
    for target in target_ids:
        want = _engine_signature(results["object"][target])
        assert _engine_signature(results["vector"][target]) == want
        assert _engine_signature(results["fused"][target]) == want

    # -- solver-only timing on identical constraint systems -------------- #
    octant = Octant(dataset)
    localizer = BatchLocalizer(octant)
    systems = []
    for target in target_ids:
        try:
            prepared = localizer.prepare_for_target(target)
        except (ValueError, KeyError):
            continue
        target_height = 0.0
        if octant.config.use_heights and prepared.heights is not None:
            rtts = {
                lid: rtt
                for lid in prepared.landmark_ids
                if (rtt := dataset.min_rtt_ms(lid, target)) is not None
            }
            if len(rtts) >= 3:
                target_height, _ = estimate_target_height(
                    rtts, prepared.locations, prepared.heights
                )
        constraints = octant.build_constraints(target, prepared, target_height)
        projection = octant._projection_for(prepared, target)
        planar = [
            p
            for p in (
                c.to_planar(projection) for c in constraints.sorted_by_weight()
            )
            if p is not None
        ]
        systems.append((planar, projection))

    solver_seconds = {"vector": float("inf"), "object": float("inf")}
    regions = {}
    for _repetition in range(3):
        for engine in ("vector", "object"):
            solver_config = SolverConfig(engine=engine)
            total = 0.0
            out = []
            for planar, projection in systems:
                solver = WeightedRegionSolver(solver_config)
                region = solver.solve(planar, projection)
                total += solver.diagnostics.solve_seconds
                out.append(region)
            solver_seconds[engine] = min(solver_seconds[engine], total)
            regions.setdefault(engine, out)

    # Solver-level identity: same pieces, weights and coordinates.
    for region_v, region_o in zip(regions["vector"], regions["object"]):
        assert region_v.area_km2() == region_o.area_km2()
        assert len(region_v.pieces) == len(region_o.pieces)
        for piece_v, piece_o in zip(region_v.pieces, region_o.pieces):
            assert piece_v.weight == piece_o.weight
            assert piece_v.polygon.coords == piece_o.polygon.coords

    per_target = len(systems) or 1
    vector_ms = solver_seconds["vector"] / per_target * 1000
    object_ms = solver_seconds["object"] / per_target * 1000
    speedup = (
        solver_seconds["object"] / solver_seconds["vector"]
        if solver_seconds["vector"]
        else float("inf")
    )

    print()
    print("=" * 72)
    print(
        f"Weighted-solver engines -- {len(dataset.hosts)} hosts, "
        f"{per_target} targets (single core)"
    )
    print("=" * 72)
    print(f"  object engine : {object_ms:7.1f} ms/target solver time")
    print(f"  vector engine : {vector_ms:7.1f} ms/target solver time")
    print(f"  speedup       : {speedup:5.2f}x")

    _merge_json(
        "solver_engines",
        {
            "hosts": len(dataset.hosts),
            "targets": per_target,
            "object_ms_per_target": round(object_ms, 3),
            "vector_ms_per_target": round(vector_ms, 3),
            "vector_speedup": round(speedup, 3),
        },
    )

    # Speedup guard, enforced only where the solve dominates noise.  The
    # tracked number at OCTANT_BENCH_HOSTS=30 is >=3x.
    if len(systems) >= 20 and len(dataset.hosts) >= 30:
        assert speedup >= 2.0
