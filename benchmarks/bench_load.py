"""Open-loop load on the sharded tier under a fixed kill schedule.

The tracked availability gate of the multi-process serving tier
(:class:`~repro.serving.cluster.ShardedLocalizationService`): one open-loop
request stream -- Poisson arrivals from a seeded
:func:`~repro.resilience.stable_uniform` draw, so two runs offer *exactly*
the same load at the same instants -- runs twice against a 2-shard cluster
while a **fixed kill schedule** SIGKILLs each worker once, mid-stream:

1. **Supervised** (the default): crash detection + failover + backoff
   restart + catch-up.  Tracked contract: **availability >= 99%** -- the
   kills cost failover hops and restarts, never unanswered requests.
2. **Unsupervised** (``ClusterConfig(supervise=False)``): same arrivals,
   same kills, no umbrella.  Each dead shard's key range simply fails, so
   availability drops with the second kill to whatever fraction of the
   stream predates it -- the gap supervision exists to close (< 90% at the
   tracked size).

Open-loop matters: arrivals do not wait for completions, so a crash that
stalls a shard shows up as queueing (p99) rather than as a politely paused
workload.  Reported per mode: offered/achieved req/s, p50/p99 latency,
availability %, degraded fraction (failover hops, in-process fallbacks,
ladder degradations), restarts.  Results land in ``BENCH_load.json``
(override with ``OCTANT_LOAD_BENCH_JSON``) so CI can archive and gate.
"""

from __future__ import annotations

import asyncio
import math
import os
import time

import pytest

from repro.serving import ClusterConfig, ShardedLocalizationService
from repro.resilience import stable_uniform

#: Arrival-schedule seed (NOT a fault seed: the kills are index-scheduled).
SEED = 1307

REQUESTS = int(os.environ.get("OCTANT_BENCH_LOAD_REQUESTS", "60"))
OFFERED_RPS = float(os.environ.get("OCTANT_BENCH_LOAD_RPS", "6.0"))

#: Supervision timings: tight enough that restart cost is visible inside the
#: run, identical across both modes (unsupervised simply ignores them).
CLUSTER = dict(
    shards=2,
    heartbeat_interval_s=0.05,
    poll_interval_s=0.02,
    liveness_deadline_s=1.0,
    attempt_timeout_s=5.0,
    stable_after_s=0.5,
)


def _kill_schedule(requests: int) -> dict[int, int]:
    """Fixed schedule: SIGKILL shard 0 at 1/4 of the stream, shard 1 at 3/5.

    Keyed by arrival index, not wall clock, so both modes kill at the same
    point in the *workload* regardless of how fast answers come back.
    """
    return {max(1, requests // 4): 0, max(2, (3 * requests) // 5): 1}


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


async def _timed(cluster, target):
    started = time.perf_counter()
    estimate = await cluster.localize(target)
    return estimate, time.perf_counter() - started


async def _run_mode(dataset, targets, supervise: bool) -> dict:
    kills = _kill_schedule(REQUESTS)
    cluster = ShardedLocalizationService(
        dataset, cluster=ClusterConfig(supervise=supervise, **CLUSTER)
    )
    async with cluster:
        # Warm every shard's caches off the clock; the measured stream is
        # then dominated by serving + the injected kills, not cold starts.
        await cluster.localize_many(targets)

        tasks = []
        started = time.perf_counter()
        arrival = 0.0
        for index in range(REQUESTS):
            u = stable_uniform(SEED, "arrival", index)
            arrival += -math.log(1.0 - u) / OFFERED_RPS
            delay = arrival - (time.perf_counter() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            victim = kills.get(index)
            if victim is not None:
                cluster.kill_worker(victim)
            tasks.append(
                asyncio.create_task(_timed(cluster, targets[index % len(targets)]))
            )
        outcomes = await asyncio.gather(*tasks)
        elapsed = time.perf_counter() - started
        health = cluster.health()
        stats = cluster.stats

    estimates = [estimate for estimate, _ in outcomes]
    latencies = [latency for _, latency in outcomes]
    answered = sum(1 for e in estimates if e.point is not None)
    failovers = sum(1 for e in estimates if "attempts" in e.details["cluster"])
    fallbacks = sum(
        1 for e in estimates if e.details["cluster"].get("fallback") == "local"
    )
    ladder = sum(1 for e in estimates if "degraded" in e.details)
    degraded = sum(
        1
        for e in estimates
        if "degraded" in e.details
        or "attempts" in e.details["cluster"]
        or e.details["cluster"].get("fallback")
    )
    total = len(estimates)
    return {
        "supervised": supervise,
        "requests": total,
        "offered_rps": OFFERED_RPS,
        "achieved_rps": round(total / elapsed, 2) if elapsed else 0.0,
        "answered": answered,
        "availability_pct": round(answered / total * 100, 2) if total else 0.0,
        "degraded_fraction": round(degraded / total, 4) if total else 0.0,
        "failover_answers": failovers,
        "local_fallback_answers": fallbacks,
        "ladder_degraded_answers": ladder,
        "p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1000, 3),
        "restarts": health["restarts_total"],
        "failed": stats.failed,
        "kill_schedule": {str(i): s for i, s in _kill_schedule(REQUESTS).items()},
    }


@pytest.mark.benchmark(group="load")
def test_open_loop_availability_under_kill_schedule(dataset, target_ids):
    """Supervised vs unsupervised cluster under identical load + kills."""
    targets = list(target_ids)

    supervised = asyncio.run(_run_mode(dataset, targets, supervise=True))
    unsupervised = asyncio.run(_run_mode(dataset, targets, supervise=False))

    print()
    print("=" * 72)
    print(
        f"Open-loop load -- {len(dataset.hosts)} hosts, {REQUESTS} requests at "
        f"{OFFERED_RPS:g} req/s offered, kills {supervised['kill_schedule']}"
    )
    print("=" * 72)
    for label, mode in (("supervised  ", supervised), ("unsupervised", unsupervised)):
        print(
            f"  {label}: availability {mode['availability_pct']:6.2f}%  "
            f"p50 {mode['p50_ms']:7.1f} ms  p99 {mode['p99_ms']:7.1f} ms  "
            f"achieved {mode['achieved_rps']:5.2f} req/s  "
            f"degraded {mode['degraded_fraction']:.1%}  "
            f"restarts {mode['restarts']}"
        )

    # Tracked gate: supervision answers (essentially) everything...
    assert supervised["availability_pct"] >= 99.0
    # ...the kills actually happened and were survived, not skipped...
    assert supervised["restarts"] >= 1
    assert supervised["degraded_fraction"] > 0.0
    assert unsupervised["restarts"] == 0
    # ...and without supervision the same schedule measurably loses the
    # dead shards' ranges.  Tiny smoke streams can get lucky with routing.
    assert (
        unsupervised["availability_pct"] < supervised["availability_pct"]
    )
    if REQUESTS >= 40:
        assert unsupervised["availability_pct"] < 90.0

    _merge_json(
        "open_loop_kill_schedule",
        {
            "hosts": len(dataset.hosts),
            "targets": len(targets),
            "seed": SEED,
            "supervised": supervised,
            "unsupervised": unsupervised,
        },
    )


#: Bump when the shape of BENCH_load.json changes.
SCHEMA_VERSION = 1


def _merge_json(section: str, payload: dict) -> None:
    from conftest import merge_bench_json

    merge_bench_json(
        "OCTANT_LOAD_BENCH_JSON",
        "BENCH_load.json",
        SCHEMA_VERSION,
        section,
        payload,
    )
