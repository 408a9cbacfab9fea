"""Availability under chaos: the graceful-degradation ladder's tracked gate.

Two identical request streams run against a :class:`LocalizationService`
under one *fixed, seeded* fault schedule (every draw is a pure function of
the seed, so two runs of this benchmark inject exactly the same faults):

1. **Ladder on** (the default :class:`ResilienceConfig`): retriable faults
   are retried with backoff; fatal faults and an exhausted retry budget
   fall to the shortest-ping baseline.  The tracked contract is
   **availability >= 99%** -- nearly every request gets an answer, with the
   degraded fraction reported alongside.
2. **Ladder off** (``degradation=False``): the same schedule, no fallback.
   At the tracked size availability drops **below 90%**, which is the gap
   the resilience layer exists to close.

Reported per mode: availability %, p50/p99 request latency, degraded- and
baseline-answer fractions, and the fault plan's injection counters.
Results land in ``BENCH_resilience.json`` (override with
``OCTANT_RESILIENCE_BENCH_JSON``) so CI can archive and gate on them.
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro import FaultPlan, LocalizationService, ResilienceConfig
from repro.resilience import RetryPolicy

#: The fixed injected-fault schedule both modes run under.  Fatal solve
#: faults force rung drops, retriable prepare faults exercise the retry
#: budget, and the latency spikes at dispatch inflate the tail.
FAULT_SPEC = (
    "seed=7;"
    "solve:p=0.3,error=fatal;"
    "prepare:p=0.1,error=retriable;"
    "dispatch:p=0.05,error=none,latency_ms=2"
)

#: Backoff sleeps shrunk so the benchmark measures the ladder, not sleeping.
FAST_RETRY = RetryPolicy(base_delay_s=0.0005, max_delay_s=0.002, jitter=0.5)

ROUNDS = int(os.environ.get("OCTANT_BENCH_RESILIENCE_ROUNDS", "3"))


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


async def _serve_stream(dataset, targets, resilience):
    """Sequentially serve ``ROUNDS`` passes over ``targets``; fresh plan,
    fresh service, so the injected schedule is identical across modes."""
    plan = FaultPlan.from_spec(FAULT_SPEC)
    latencies: list[float] = []
    estimates = []
    async with LocalizationService(
        dataset, workers=1, resilience=resilience, fault_plan=plan
    ) as service:
        for _ in range(ROUNDS):
            for target in targets:
                started = time.perf_counter()
                estimate = await service.localize(target)
                latencies.append(time.perf_counter() - started)
                estimates.append(estimate)
        stats = service.cache_stats()["resilience"]
    return estimates, latencies, stats


def _summarize(estimates, latencies, stats) -> dict:
    total = len(estimates)
    answered = sum(1 for e in estimates if e.point is not None)
    degraded = sum(1 for e in estimates if "degraded" in e.details)
    baseline = sum(
        1
        for e in estimates
        if e.details.get("degraded", {}).get("fallback") == "baseline"
    )
    return {
        "requests": total,
        "answered": answered,
        "availability_pct": round(answered / total * 100, 2) if total else 0.0,
        "degraded_fraction": round(degraded / total, 4) if total else 0.0,
        "baseline_fraction": round(baseline / total, 4) if total else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
        "retries": stats["retries"],
        "degraded_answers": stats["degraded_answers"],
        "baseline_answers": stats["baseline_answers"],
        "injected": stats["faults"],
    }


@pytest.mark.benchmark(group="resilience")
def test_availability_under_faults(dataset, target_ids):
    """Ladder on vs off under one fixed fault schedule: the availability gap."""
    targets = list(target_ids)

    ladder_on = ResilienceConfig(retry=FAST_RETRY)
    ladder_off = ResilienceConfig(retry=FAST_RETRY, degradation=False)

    on_estimates, on_latencies, on_stats = asyncio.run(
        _serve_stream(dataset, targets, ladder_on)
    )
    off_estimates, off_latencies, off_stats = asyncio.run(
        _serve_stream(dataset, targets, ladder_off)
    )

    on = _summarize(on_estimates, on_latencies, on_stats)
    off = _summarize(off_estimates, off_latencies, off_stats)

    print()
    print("=" * 72)
    print(
        f"Availability under chaos -- {len(dataset.hosts)} hosts, "
        f"{len(targets)} targets x {ROUNDS} rounds, schedule {FAULT_SPEC!r}"
    )
    print("=" * 72)
    for label, summary in (("ladder on ", on), ("ladder off", off)):
        print(
            f"  {label}: availability {summary['availability_pct']:6.2f}%  "
            f"p50 {summary['p50_ms']:7.1f} ms  p99 {summary['p99_ms']:7.1f} ms  "
            f"degraded {summary['degraded_fraction']:.1%} "
            f"(baseline {summary['baseline_fraction']:.1%})"
        )

    # Provenance contract: every degraded answer says how it degraded.
    for estimate in on_estimates:
        if "degraded" in estimate.details:
            provenance = estimate.details["degraded"]
            assert "attempted" in provenance
            assert provenance.get("engine") or provenance.get("fallback")

    # The ladder keeps nearly every request answered at any size ...
    assert on["availability_pct"] >= 99.0
    # ... and the schedule actually bit (otherwise the gate is vacuous).
    assert on["degraded_answers"] > 0
    assert sum(on_stats["faults"]["errors"].values()) > 0
    # Tracked gate: without the ladder the same schedule loses >10% of
    # requests.  Small smoke cohorts draw too few faults to gate on.
    if on["requests"] >= 40:
        assert off["availability_pct"] < 90.0

    _merge_json(
        "availability_under_faults",
        {
            "hosts": len(dataset.hosts),
            "targets": len(targets),
            "rounds": ROUNDS,
            "fault_spec": FAULT_SPEC,
            "ladder_on": on,
            "ladder_off": off,
        },
    )


#: Bump when the shape of BENCH_resilience.json changes.
SCHEMA_VERSION = 1


def _merge_json(section: str, payload: dict) -> None:
    from conftest import merge_bench_json

    merge_bench_json(
        "OCTANT_RESILIENCE_BENCH_JSON",
        "BENCH_resilience.json",
        SCHEMA_VERSION,
        section,
        payload,
    )
