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
  ``solve_systems`` call per system, each masked by the pipeline's
  geographic rings), with bit-identity asserted, the fused pass counters
  recorded, and the per-phase wall-time split
  (exclusion/assemble/inclusion/select/mask) aggregated per side so
  phase-level wins are tracked for both.  The tracked figure is measured at
  ``OCTANT_BENCH_HOSTS=30``.
"""

from __future__ import annotations

import os
import time
from collections import Counter

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
#: v8: ``gh_exclusion`` is gone with the batched Greiner-Hormann row kernel
#: it measured; a non-convex exclusion runs the scalar ``subtract_polygons``.
#: v9: the geographic rings leave the weighted solve and mask the selection.
#: ``cohort_engines`` solves every system with its pipeline land mask, the
#: phase splits gain ``mask`` and ``cohort_engines`` records the mask
#: outcomes (``geo_mask``); the kernel summary drops the deleted geographic
#: memo's outcome key.
SCHEMA_VERSION = 9


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
    masks = []
    dropped = 0
    for target in target_ids:
        try:
            prepared = localizer.prepare_for_target(target)
        except (ValueError, KeyError):
            dropped += 1
            continue
        presolved = localizer.octant.presolve(target, prepared=prepared)
        systems.append((presolved.planar, presolved.projection))
        masks.append(localizer.octant.pipeline.land_mask(presolved.projection))
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
                out = solve_systems(config, systems, masks)
            else:
                out = []
                for k, (system, mask) in enumerate(zip(systems, masks)):
                    system_started = time.perf_counter()
                    out.append(solve_systems(config, [system], [mask])[0])
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
        assert diag_v.geo_mask == diag_f.geo_mask

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
    geo_mask = dict(Counter(str(diag.geo_mask) for _r, diag in results["fused"]))

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
    print(f"  land mask     : {geo_mask}")

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
            "geo_mask": geo_mask,
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
