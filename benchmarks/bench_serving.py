"""Online serving: cold vs warm repeated-target latency and ingest throughput.

The serving refactor's bet is that repeated-target requests are the common
case for an interactive localization service, and that the staged pipeline's
caches -- planar ``(projection, circle)`` constraint geometry plus the
derived per-target ``PreparedLandmarks`` -- make those requests much cheaper
than the batch per-target cost.  This benchmark measures:

1. **Cold pass** -- every tracked target localized once through a freshly
   started :class:`~repro.serving.LocalizationService` (empty caches).
2. **Warm pass** -- the same targets requested again on the same service;
   answers must be bit-identical, every warm request must hit the prepared
   cache and the planar memo, and from 20 targets up the warm ms/target,
   counted in the run's own host reference loops, must stay within 1.25x
   of the committed ``warm_ref_loops`` (tracked at the 30-host cohort,
   ``OCTANT_BENCH_HOSTS=30``).
3. **Ingest throughput** -- a stream of refreshed ping measurements absorbed
   by the live dataset (incremental matrix extension + snapshot swap per
   batch), reported as batches/sec and pings/sec.

Results land in ``BENCH_serving.json`` (override with
``OCTANT_SERVING_BENCH_JSON``) so CI can archive them.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import pytest

from repro import LocalizationService
from repro.network.probes import PingResult


def _signature(estimate):
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
    )


#: Slack of the warm-latency bound over the committed ``warm_ref_loops``.
WARM_BOUND_SLACK = 1.25


def _committed_warm_bound() -> tuple[int, float] | None:
    """``(hosts, warm_ref_loops)`` from the checked-out artifact, if any."""
    path = Path(os.environ.get("OCTANT_SERVING_BENCH_JSON", "BENCH_serving.json"))
    try:
        section = json.loads(path.read_text())["warm_vs_cold"]
        return int(section["hosts"]), float(section["warm_ref_loops"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


@pytest.mark.benchmark(group="serving")
def test_serving_warm_vs_cold(dataset, target_ids):
    """Warm repeated-target requests stay cheap: identity, hits, a bound.

    The warm pass must answer bit-identically, hit the prepared cache and
    the planar memo on every request, and -- from 20 targets up -- cost at
    most ``WARM_BOUND_SLACK`` times the committed warm cost.  Both are
    counted in host reference loops (warm ms/target over the mean of the
    ``host_ref_loop_ms`` probes around the passes), so the bound follows
    the box's speed instead of failing on a slow stretch.  A cohort no
    larger than the committed one has no more landmarks per target, so the
    committed figure bounds it; a larger cohort is not gated.  The bound is
    on warm latency alone: a warm/cold ratio would punish a cold-path win.
    """
    from conftest import host_ref_loop_ms

    committed = _committed_warm_bound()

    async def run_passes():
        async with LocalizationService(dataset, workers=1) as service:
            cold: dict[str, object] = {}
            started = time.perf_counter()
            for target in target_ids:
                cold[target] = await service.localize(target)
            t_cold = time.perf_counter() - started

            warm: dict[str, object] = {}
            started = time.perf_counter()
            for target in target_ids:
                warm[target] = await service.localize(target)
            t_warm = time.perf_counter() - started
            return cold, warm, t_cold, t_warm, service.cache_stats()

    ref_before = host_ref_loop_ms()
    cold, warm, t_cold, t_warm, stats = asyncio.run(run_passes())
    ref_after = host_ref_loop_ms()

    per_target = len(target_ids) or 1
    speedup = t_cold / t_warm if t_warm else float("inf")
    print()
    print("=" * 72)
    print(
        f"Serving warm vs cold -- {len(dataset.hosts)} hosts, "
        f"{per_target} targets"
    )
    print("=" * 72)
    print(
        f"  cold pass: {t_cold:7.2f}s ({t_cold / per_target * 1000:7.1f} ms/target)"
    )
    print(
        f"  warm pass: {t_warm:7.2f}s ({t_warm / per_target * 1000:7.1f} ms/target)"
        f"  speedup {speedup:4.2f}x"
    )
    print(
        "  planar cache: "
        f"{stats['circle_cache']['planar_hits']} hits / "
        f"{stats['circle_cache']['planar_misses']} misses; "
        f"prepared: {stats['prepared_hits']} hits"
    )
    print(
        f"  host speed probe: {ref_before:.2f} ms before, {ref_after:.2f} ms "
        "after (perfbench ref_loop_ms, median of 5)"
    )

    # The contract: identical estimates from the warm path.
    for target in target_ids:
        assert _signature(warm[target]) == _signature(cold[target])

    # Latency gate against the committed artifact, in reference loops of
    # this run's host; CI smoke sizes are noise.
    warm_ms = t_warm / per_target * 1000
    ref_ms = (ref_before + ref_after) / 2
    bound_ms = None
    if (
        len(target_ids) >= 20
        and committed is not None
        and len(dataset.hosts) <= committed[0]
    ):
        bound_ms = committed[1] * WARM_BOUND_SLACK * ref_ms
        print(
            f"  warm bound: {warm_ms:.1f} <= {bound_ms:.1f} ms/target "
            f"({WARM_BOUND_SLACK} x {committed[1]:.2f} loops of {ref_ms:.2f} ms)"
        )
        assert warm_ms <= bound_ms
    assert stats["pipeline"]["planar_memo_hits"] >= per_target
    assert stats["prepared_hits"] >= per_target

    payload = {
        "hosts": len(dataset.hosts),
        "targets": per_target,
        "cold_s": round(t_cold, 4),
        "warm_s": round(t_warm, 4),
        "cold_ms_per_target": round(t_cold / per_target * 1000, 3),
        "warm_ms_per_target": round(warm_ms, 3),
        "warm_speedup": round(speedup, 3),
        "ref_loop_ms_before": ref_before,
        "ref_loop_ms_after": ref_after,
        "warm_ref_loops": round(warm_ms / ref_ms, 3),
        "warm_bound_ms": None if bound_ms is None else round(bound_ms, 3),
        "cache": stats,
    }
    _merge_json("warm_vs_cold", payload)


@pytest.mark.benchmark(group="serving")
def test_serving_ingest_throughput(dataset):
    """Sustained measurement ingest against a running service."""
    from repro import MeasurementDataset

    # Private live copy: ingest mutates the dataset, and the session-scoped
    # fixture is shared with every other benchmark.
    dataset = MeasurementDataset(
        hosts=dict(dataset.hosts),
        routers=dict(dataset.routers),
        pings=dict(dataset.pings),
        traceroutes=dict(dataset.traceroutes),
        router_pings=dict(dataset.router_pings),
        whois=dataset.whois,
    )
    hosts = dataset.host_ids
    batches = int(os.environ.get("OCTANT_BENCH_INGEST_BATCHES", "12"))

    def batch(i: int) -> list[PingResult]:
        # Refreshed measurements between existing hosts: every batch touches
        # a rotating pair set with slightly perturbed latencies.
        out = []
        for j in range(len(hosts) - 1):
            a = hosts[(i + j) % len(hosts)]
            b = hosts[(i + j + 1) % len(hosts)]
            if a == b:
                continue
            base = dataset.min_rtt_ms(a, b) or 50.0
            out.append(PingResult(src=a, dst=b, rtts_ms=(base + 0.01 * (i + 1),)))
        return out

    async def run_ingests():
        async with LocalizationService(dataset, workers=1) as service:
            # One request so the ingest path also pays snapshot swapping
            # against warmed shared state, like production would.
            await service.localize(hosts[0])
            total_pings = 0
            started = time.perf_counter()
            for i in range(batches):
                payload = batch(i)
                total_pings += len(payload)
                await service.ingest(pings=payload)
            elapsed = time.perf_counter() - started
            # The service must still answer after the ingest stream.
            estimate = await service.localize(hosts[0])
            return elapsed, total_pings, estimate

    elapsed, total_pings, estimate = asyncio.run(run_ingests())
    assert estimate.point is not None
    batches_per_sec = batches / elapsed if elapsed else float("inf")
    pings_per_sec = total_pings / elapsed if elapsed else float("inf")

    print()
    print("=" * 72)
    print(f"Serving ingest throughput -- {len(hosts)} hosts, {batches} batches")
    print("=" * 72)
    print(
        f"  {elapsed:6.2f}s total: {batches_per_sec:7.1f} batches/sec, "
        f"{pings_per_sec:8.1f} pings/sec (incremental matrix extension "
        "+ snapshot swap per batch)"
    )

    payload = {
        "hosts": len(hosts),
        "batches": batches,
        "pings": total_pings,
        "elapsed_s": round(elapsed, 4),
        "batches_per_sec": round(batches_per_sec, 3),
        "pings_per_sec": round(pings_per_sec, 3),
    }
    _merge_json("ingest_throughput", payload)


#: Bump when the shape of BENCH_serving.json changes.
#: v3: ``fused_micro_batch`` compares against a ``fuse_width=1`` service
#: (``one_at_a_time_burst_s``) instead of the retired vector engine.
#: v4: ``warm_vs_cold`` records ``ref_loop_ms_before`` / ``ref_loop_ms_after``,
#: the host speed probe (``conftest.host_ref_loop_ms``) around its passes.
#: v5: ``warm_vs_cold`` records ``warm_ref_loops`` (warm ms/target over the
#: mean probe), the unit its bound is stated in, and ``warm_bound_ms``.
SCHEMA_VERSION = 5


def _merge_json(section: str, payload: dict) -> None:
    from conftest import merge_bench_json

    merge_bench_json("OCTANT_SERVING_BENCH_JSON", "BENCH_serving.json", SCHEMA_VERSION, section, payload)

@pytest.mark.benchmark(group="serving")
def test_serving_fused_micro_batch(dataset, target_ids):
    """Coalesced fused dispatches under a request burst: identity + stats.

    A one-worker service under a full-cohort burst coalesces queued
    requests into fused dispatches (up to ``SolverConfig.fuse_width``); the
    answers must match a ``fuse_width=1`` service (one request per
    dispatch) bit-for-bit and the fuse-width histogram shows the
    amortization an operator would see.
    """
    from repro import OctantConfig
    from repro.core.config import SolverConfig

    one_config = OctantConfig(solver=SolverConfig(fuse_width=1))

    async def burst(config):
        async with LocalizationService(dataset, config, workers=1) as service:
            started = time.perf_counter()
            results = await service.localize_many(target_ids)
            elapsed = time.perf_counter() - started
            return results, elapsed, service.cache_stats()

    one_results, t_one, _ = asyncio.run(burst(one_config))
    fused_results, t_fused, stats = asyncio.run(burst(None))

    per_target = len(target_ids) or 1
    fused = stats["fused"]
    print()
    print("=" * 72)
    print(
        f"Serving fused micro-batch -- {len(dataset.hosts)} hosts, "
        f"{per_target} targets, one worker"
    )
    print("=" * 72)
    print(
        f"  one-at-a-time burst: {t_one:6.2f}s   fused burst: {t_fused:6.2f}s "
        f"({t_one / t_fused if t_fused else float('inf'):4.2f}x)"
    )
    print(
        f"  dispatch widths: {fused['width_histogram']}  "
        f"pooled passes: {fused['passes']} ({fused['rows_per_pass']} rows/pass)"
    )

    for target in target_ids:
        assert _signature(fused_results[target]) == _signature(one_results[target])
    # The burst outpaces the single worker, so coalescing must engage.
    if per_target >= 4:
        assert any(width > 1 for width in fused["width_histogram"])

    _merge_json(
        "fused_micro_batch",
        {
            "hosts": len(dataset.hosts),
            "targets": per_target,
            "one_at_a_time_burst_s": round(t_one, 4),
            "fused_burst_s": round(t_fused, 4),
            "burst_speedup": round(t_one / t_fused, 3) if t_fused else None,
            "width_histogram": fused["width_histogram"],
            "fused_batches": fused["batches"],
            "pooled_passes": fused["passes"],
            "rows_per_pass": fused["rows_per_pass"],
        },
    )
