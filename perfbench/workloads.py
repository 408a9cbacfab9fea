"""The two serving workloads: warm 2-shard cluster, and reads beside writes.

Each workload sets up ``SETUP_REPEATS`` times (dataset build + tier start +
untimed warm-up; the median is ``setup_s``).  The first instance serves the
timed window, which is cut into blocks; the other set-ups are throwaway
instances built between blocks spread over the window, so ``setup_s``
samples the machine across the whole run rather than at its start.  The
answers are checked off the clock.  A traced run alternates untraced and
traced blocks: per-layer numbers come from the traced blocks, and the gap
between the two halves is the tracing overhead.  Why each workload exists
is in ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import itertools
import random
import statistics
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from time import perf_counter

from repro import (
    BatchLocalizer,
    LocalizationService,
    MeasurementDataset,
    OctantConfig,
    ShardedLocalizationService,
)
from repro.core.pipeline import ConstraintPipeline
from repro.resilience.faults import stable_uniform
from repro.serving import supervisor

from common import (
    BLOCK_SECONDS,
    CLIENTS,
    MIN_P90_SAMPLES,
    SETUP_REPEATS,
    accuracy,
    build_dataset,
    is_failure,
    median,
    p50,
    p90,
    peak_rss_mb,
    ref_loop_series,
    signature,
)
from spans import Tracer

#: Targets re-localized directly, off the clock, to check a run's answers.
CHECK_SAMPLE = 4

# serve_churn writes replay the sustained-churn regime DESIGN_INGEST.md
# section 7 measured (benchmarks/bench_ingest.py): ~270 value-changing
# probes/s against one reader at a 52.3 ms warm p50, i.e. 270 * 0.0523 = 14
# pings per answered read, all target-side, compacted every 250 ms.  In a
# closed loop the rate is kept per read, not per second, so every run does
# the same work however fast the machine is.
#: Pair re-probes appended after each answered read; each one re-probes
#: both directions of a target-landmark pair (2 pings), one append each.
PAIRS_PER_READ = 7
#: Compaction cadence (``ingest_poll_interval_s``) of that regime.
INGEST_POLL_S = 0.25
#: The repo states no landmark-landmark probe rate, and bench_ingest has
#: none.  A landmark-landmark re-probe evicts every prepared entry, so with
#: one every k sweeps over the targets a target is served warm on (k-1)/k
#: of its reads.  k = 4 is the most frequent cadence that keeps that share
#: at or above bench_ingest's 70% prepared hit-rate floor.
SWEEPS_PER_EVICTION = 4
#: Reads in one cycle of the write schedule (a whole number of evictions).
CYCLE_SWEEPS = 20
#: The schedule is fixed, not drawn from the workload seed: the seed orders
#: the reads, while the final snapshot -- and so the accuracy figures --
#: is the same on every run.
SCHEDULE_SEED = 12


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)

    def mismatch(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


#: Per-layer metrics, all zero until a workload measures them: a layer a
#: workload never enters reads 0.
LAYER_METRICS = (
    "host.ref_loop_ms",
    "network.build_s",
    "network.ingest_ms_p50",
    "network.compactions",
    "network.coalesced_per_compaction",
    "network.lag_ms_max",
    "core.batch.prepare_ms_per_target",
    "core.batch.prepared_hit_pct",
    "core.batch.adopt_ms_p50",
    "core.batch.prepared_carried",
    "core.batch.prepared_evicted",
    "core.batch.shared_state_ms",
    "core.pipeline.heights_ms",
    "core.pipeline.calibration_ms",
    "core.pipeline.piecewise_ms",
    "core.pipeline.assemble_ms",
    "core.pipeline.planarize_ms",
    "core.pipeline.solve_ms",
    "core.pipeline.planar_memo_hit_pct",
    "core.pipeline.geometry_table_hit_pct",
    "geometry.circle_hit_pct",
    "core.solver.fused_rows_per_pass",
    "serving.service.exec_ms_p50",
    "serving.service.queue_wait_ms_p50",
    "serving.service.queue_high_water",
    "serving.service.degraded",
    "serving.protocol.encode_us_p50",
    "serving.protocol.decode_us_p50",
    "serving.protocol.frame_bytes_p50",
    "serving.cluster.overhead_ms_p50",
    "serving.cluster.worker_ms_p50",
    "serving.cluster.shard_balance",
    "serving.cluster.failovers",
    "serving.supervisor.restarts",
    "trace.overhead_pct",
    "trace.unattributed_pct",
)


def _fused_config() -> OctantConfig:
    base = OctantConfig()
    return dataclasses.replace(base, solver=dataclasses.replace(base.solver, engine="fused"))


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


STAGES = ("heights", "calibration", "piecewise", "assemble", "planarize", "solve")


def _stage_layers(layers: dict, totals: Counter, targets: int) -> None:
    """Per-target stage times and memo hit rates from summed
    ``PipelineStats.snapshot()`` counters."""
    for stage in STAGES:
        layers[f"core.pipeline.{stage}_ms"] = 1000.0 * totals[f"{stage}_seconds"] / targets
    for cache in ("planar_memo", "geometry_table"):
        hits = totals[f"{cache}_hits"]
        layers[f"core.pipeline.{cache}_hit_pct"] = _pct(hits, hits + totals[f"{cache}_misses"])


def _circle_hit_pct(stats: dict) -> float:
    hits = stats["boundary_hits"] + stats["planar_hits"]
    return _pct(hits, hits + stats["boundary_misses"] + stats["planar_misses"])


def _window_info(outcome: Outcome, setups: _SetUps, refs: list[float]) -> None:
    outcome.end_to_end["setup_s"] = median(setups.seconds)
    outcome.layers["network.build_s"] = median(setups.builds)
    outcome.layers["host.ref_loop_ms"] = median(refs)
    outcome.info["setup_s_samples"] = [round(s, 4) for s in setups.seconds]
    outcome.info["host_ref_loop_ms"] = [round(r, 3) for r in refs]


# --------------------------------------------------------------------------- #
# Closed-loop load generation (serving workloads)
# --------------------------------------------------------------------------- #
# A lane is the iterator of targets one client sends; clients may share one.
async def _one_pass(send, lanes) -> dict:
    """Each client drains its (finite) lane: an untimed warm-up or final pass."""
    answers = {}

    async def client(lane):
        for target in lane:
            answers[target] = await send(target)

    await asyncio.gather(*(client(lane) for lane in lanes))
    return answers


async def _closed_loop(send, lanes, seconds: float, record) -> float:
    """One client per lane, each sending its next request when the last returns."""
    started = perf_counter()
    deadline = started + seconds

    async def client(lane):
        while perf_counter() < deadline:
            target = next(lane)
            sent = perf_counter()
            estimate = await send(target)
            record(target, perf_counter() - sent, estimate)

    await asyncio.gather(*(client(lane) for lane in lanes))
    return perf_counter() - started


@dataclass
class _Sample:
    block: int
    traced: bool
    target: str
    latency_s: float
    estimate: object


class _SetUps:
    """The timed set-ups of one run.

    ``set_up(built)`` builds the dataset, calls ``built()``, starts the tier,
    warms it up and returns a tuple whose first item is the tier;
    ``stop(tier)`` stops one.
    """

    def __init__(self, set_up, stop) -> None:
        self._set_up = set_up
        self._stop = stop
        self.seconds: list[float] = []
        self.builds: list[float] = []

    async def timed(self):
        gc.collect()
        started = perf_counter()
        result = await self._set_up(lambda: self.builds.append(perf_counter() - started))
        self.seconds.append(perf_counter() - started)
        return result

    async def throwaway(self) -> None:
        """One more timed set-up, whose tier is stopped straight away."""
        result = await self.timed()
        await self._stop(result[0])
        del result
        gc.collect()


async def _run_blocks(send, lanes, seconds, trace, tracer, between, before_traced, after_traced, on_answer):
    """The timed window: blocks of closed-loop load, traced ones alternating.

    ``lanes`` are endless per-client target iterators.  ``between()`` runs
    after evenly spaced blocks, ``SETUP_REPEATS - 1`` times in all, the last
    time after the final planned block.  Returns the samples and one
    ``(traced, answered, seconds)`` row per block; block seconds exclude
    what runs between blocks.
    """
    planned = max(2, round(seconds / BLOCK_SECONDS))
    block_seconds = seconds / planned
    spots = Counter(
        max(0, round(k * planned / (SETUP_REPEATS - 1)) - 1) for k in range(1, SETUP_REPEATS)
    )
    samples: list[_Sample] = []
    blocks: list[tuple[bool, int, float]] = []
    while True:
        plain = sum(1 for s in samples if not s.traced)
        if len(blocks) >= planned and (trace or plain >= MIN_P90_SAMPLES):
            break
        index = len(blocks)
        traced = trace and index % 2 == 1
        if traced:
            before_traced()
            tracer.install()

        def record(target, latency, estimate, block=index, traced=traced):
            samples.append(_Sample(block, traced, target, latency, estimate))
            on_answer(target, estimate)

        took = await _closed_loop(send, lanes, block_seconds, record)
        if traced:
            tracer.uninstall()
            after_traced()
        blocks.append((traced, sum(1 for s in samples if s.block == index), took))
        for _ in range(spots[index]):
            await between()
    return samples, blocks


def _latency_metrics(outcome: Outcome, samples, blocks) -> None:
    """Latency over untraced samples; throughput over the untraced blocks.

    Throughput is answers over seconds summed across blocks, not a median
    of block rates: the machine switches between a fast and a slow state
    every few tens of seconds, and a sum moves smoothly with the share of
    the window spent in each, where a median jumps between the two.
    """
    plain = [1000.0 * s.latency_s for s in samples if not s.traced]
    plain_blocks = [(answered, took) for traced, answered, took in blocks if not traced]
    e2e = outcome.end_to_end
    e2e["throughput_per_s"] = sum(a for a, _ in plain_blocks) / sum(t for _, t in plain_blocks)
    e2e["latency_p50_ms"] = p50(plain)
    e2e["latency_p90_ms"] = p90(plain)
    outcome.info["latency_samples"] = len(plain)
    outcome.info["block_p50_ms"] = [
        round(1000.0 * p50([s.latency_s for s in samples if s.block == index]), 2)
        for index, (traced, _, _) in enumerate(blocks)
        if not traced
    ]
    outcome.info["window_s"] = round(sum(took for _, _, took in blocks), 3)


def _overhead_pct(samples) -> float:
    plain = [s.latency_s for s in samples if not s.traced]
    traced = [s.latency_s for s in samples if s.traced]
    if not plain or not traced:
        return 0.0
    return 100.0 * (p50(traced) / p50(plain) - 1.0)


# --------------------------------------------------------------------------- #
# cluster_warm
# --------------------------------------------------------------------------- #
def cluster_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_cluster_warm(seed, seconds, trace))


async def _cluster_set_up(seed: int, built):
    dataset = build_dataset()
    built()
    cluster = ShardedLocalizationService(dataset)
    await cluster.start()
    try:
        order = list(dataset.host_ids)
        random.Random(seed).shuffle(order)
        # Shard-affine clients: client k sends the targets the ring routes
        # to shard k, so each worker always has one request in flight.
        # Random keys would put both requests on one shard about half the
        # time, making latency bimodal with a p50 that flips between the
        # modes from run to run.
        shard_lists = [
            [t for t in order if cluster.shard_for(t) == shard] for shard in range(CLIENTS)
        ]
        warm = await _one_pass(cluster.localize, [iter(s) for s in shard_lists])
    except BaseException:
        await cluster.stop()
        raise
    return cluster, dataset, order, shard_lists, warm


async def _cluster_warm(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome(layers=dict.fromkeys(LAYER_METRICS, 0.0))
    setups = _SetUps(lambda built: _cluster_set_up(seed, built), lambda c: c.stop())
    cluster, dataset, order, shard_lists, warm = await setups.timed()
    try:
        # The orchestrator's own frame codec calls: the supervisor module
        # imported encode_frame/decode_frame by name, so wrap them there.
        tracer = Tracer()
        tracer.wrap(
            supervisor, "encode_frame", "encode",
            detail=lambda args, result: (type(args[0]).__name__, len(result)),
        )
        tracer.wrap(
            supervisor, "decode_frame", "decode",
            detail=lambda args, result: (type(result).__name__, len(args[0])),
        )
        gc.collect()
        refs = ref_loop_series()
        failovers_before = cluster.stats.failovers
        samples, blocks = await _run_blocks(
            cluster.localize, [itertools.cycle(s) for s in shard_lists], seconds, trace, tracer,
            setups.throwaway, lambda: None, lambda: None, lambda target, estimate: None,
        )
        refs += ref_loop_series()
        health = cluster.health()
        pids = [shard["pid"] for shard in health["shards"].values() if shard["pid"]]
        rss = peak_rss_mb(pids)
        failovers = cluster.stats.failovers - failovers_before
        restarts = health["restarts_total"]
    finally:
        await cluster.stop()

    # ---- checks, off the clock ------------------------------------------ #
    reference = {t: signature(e) for t, e in warm.items()}
    outcome.attempted = len(samples)
    for sample in samples:
        if is_failure(sample.estimate):
            outcome.failed += 1
        elif signature(sample.estimate) != reference[sample.target]:
            outcome.mismatch(f"cluster answer for {sample.target} changed while warm")
    direct = BatchLocalizer(dataset.snapshot())
    for target in random.Random(seed + 1).sample(order, CHECK_SAMPLE):
        if signature(direct.localize_one(target)) != reference[target]:
            outcome.mismatch(f"cluster answer for {target} != direct BatchLocalizer")
    if restarts:
        outcome.problems.append(f"{restarts} worker restart(s) during the run")

    _latency_metrics(outcome, samples, blocks)
    error_km, contained = accuracy(warm, dataset)
    e2e = outcome.end_to_end
    e2e["error_km_p50"] = error_km
    e2e["containment_pct"] = contained
    e2e["success_pct"] = 100.0 - _pct(outcome.failed, outcome.attempted)
    e2e["peak_rss_mb"] = rss
    _window_info(outcome, setups, refs)
    outcome.info.update(
        cohort_targets=len(order), requests=len(samples), shards=len(pids)
    )

    layers = outcome.layers
    shards = Counter(s.estimate.details.get("cluster", {}).get("shard") for s in samples)
    counts = [shards.get(k, 0) for k in range(len(pids))]
    layers["serving.cluster.shard_balance"] = (
        max(counts) / (sum(counts) / len(counts)) if sum(counts) else 0.0
    )
    layers["serving.cluster.failovers"] = failovers
    layers["serving.supervisor.restarts"] = restarts
    traced = [s for s in samples if s.traced]
    if traced:
        worker = [s.estimate.solve_time_s for s in traced]
        layers["serving.cluster.worker_ms_p50"] = 1000.0 * p50(worker)
        layers["serving.cluster.overhead_ms_p50"] = 1000.0 * p50(
            [s.latency_s - s.estimate.solve_time_s for s in traced]
        )
        solver = [float(s.estimate.details.get("solver_seconds") or 0.0) for s in traced]
        layers["core.pipeline.solve_ms"] = 1000.0 * sum(solver) / len(traced)
        hits = misses = 0
        for s in traced:
            kernel = s.estimate.details.get("kernel") or {}
            hits += int(kernel.get("geometry_table_hits", 0))
            misses += int(kernel.get("geometry_table_misses", 0))
        layers["core.pipeline.geometry_table_hit_pct"] = _pct(hits, hits + misses)
        encodes = [(sec, d) for sec, d in tracer.details("encode") if d[0] == "LocalizeRequest"]
        decodes = [(sec, d) for sec, d in tracer.details("decode") if d[0] == "LocalizeReply"]
        layers["serving.protocol.encode_us_p50"] = 1e6 * p50([sec for sec, _ in encodes])
        layers["serving.protocol.decode_us_p50"] = 1e6 * p50([sec for sec, _ in decodes])
        layers["serving.protocol.frame_bytes_p50"] = p50([d[1] for _, d in decodes])
        total = sum(s.latency_s for s in traced)
        attributed = sum(worker) + sum(sec for sec, _ in encodes) + sum(sec for sec, _ in decodes)
        layers["trace.unattributed_pct"] = _pct(total - attributed, total)
        layers["trace.overhead_pct"] = _overhead_pct(samples)
    return outcome


# --------------------------------------------------------------------------- #
# serve_churn
# --------------------------------------------------------------------------- #
def serve_churn(seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_serve_churn(seed, seconds, trace))


def _split_cohort(dataset: MeasurementDataset) -> tuple[list[str], list[str]]:
    """First half of the hosts are landmarks, the rest are targets."""
    hosts = list(dataset.host_ids)
    half = len(hosts) // 2
    return hosts[:half], hosts[half:]


def _reprobe_epsilon(pings) -> float:
    """Bound of the RTT factor a re-probe applies.

    A re-probe moves a pair's minimum RTT by about what losing its best
    sample would: the median gap, relative to the minimum, between the two
    smallest samples of the campaign's pings (under 1% on the cohort).
    """
    gaps = []
    for ping in pings:
        low = sorted(ping.rtts_ms)[:2]
        if len(low) == 2 and low[0] > 0:
            gaps.append((low[1] - low[0]) / low[0])
    return statistics.median(gaps)


def _write_schedule(dataset, pool, targets) -> list[list[list]]:
    """One cycle of the probe writes: per answered read, the batches to append.

    A batch re-probes both directions of one pair, replacing its base
    pings with copies scaled by ``1 + epsilon*(2u - 1)``, ``u`` a stable
    uniform of the write's index in the cycle.  Target-landmark pairs are
    walked round-robin in a fixed shuffled order; after every
    ``SWEEPS_PER_EVICTION`` sweeps over the targets one landmark-landmark
    pair is re-probed as well.  RTTs never drift with time, and the state
    after any whole number of cycles is the same.
    """
    rng = random.Random(SCHEDULE_SEED)
    target_pairs = [(t, l) for t in targets for l in pool]
    rng.shuffle(target_pairs)
    landmark_pairs = list(itertools.combinations(pool, 2))
    rng.shuffle(landmark_pairs)
    base = dict(dataset.pings)
    epsilon = _reprobe_epsilon(base.values())
    written = itertools.count()

    def batch(a: str, b: str) -> list:
        index = next(written)
        factor = 1.0 + epsilon * (2.0 * stable_uniform("perfbench", SCHEDULE_SEED, index) - 1.0)
        return [
            dataclasses.replace(ping, rtts_ms=tuple(r * factor for r in ping.rtts_ms))
            for key in ((a, b), (b, a))
            if (ping := base.get(key)) is not None
        ]

    evict_every = SWEEPS_PER_EVICTION * len(targets)
    target_side = itertools.cycle(target_pairs)
    schedule = []
    for read in range(CYCLE_SWEEPS * len(targets)):
        batches = [batch(*next(target_side)) for _ in range(PAIRS_PER_READ)]
        if read % evict_every == evict_every - 1:
            batches.append(batch(*landmark_pairs[read // evict_every % len(landmark_pairs)]))
        schedule.append(batches)
    return schedule


async def _churn_set_up(seed: int, built):
    live = build_dataset()
    built()
    pool, targets = _split_cohort(live)
    # Fused engine: the two readers' requests coalesce into fused
    # micro-batches, so the fused solver layer is measured here too.
    service = LocalizationService(live, _fused_config(), ingest_poll_interval_s=INGEST_POLL_S)
    await service.start()
    try:
        order = list(targets)
        random.Random(seed).shuffle(order)

        def send(target, service=service, pool=tuple(pool)):
            return service.localize(target, landmark_pool=pool)

        shared = iter(order)
        await _one_pass(send, [shared] * CLIENTS)
    except BaseException:
        await service.stop()
        raise
    return service, live, pool, targets, order, send


async def _serve_churn(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome(layers=dict.fromkeys(LAYER_METRICS, 0.0))
    setups = _SetUps(lambda built: _churn_set_up(seed, built), lambda s: s.stop())
    service, live, pool, targets, order, send = await setups.timed()
    try:
        schedule = _write_schedule(live, pool, targets)
        tracer = Tracer()
        # Executor spans: one request runs localize_one, a micro-batch of
        # coalesced requests runs one solve_many for all of them.
        tracer.wrap(
            BatchLocalizer, "localize_one", "execute",
            detail=lambda args, result: (args[1],),
        )
        tracer.wrap(
            BatchLocalizer, "solve_many", "execute",
            detail=lambda args, result: tuple(args[1]),
        )
        tracer.wrap(BatchLocalizer, "prepare_for_target", "prepare")
        tracer.wrap(BatchLocalizer, "prepare_many", "prepare")
        tracer.wrap(BatchLocalizer, "adopt_caches", "adopt")
        tracer.wrap(
            BatchLocalizer, "shared_state", "shared_state",
            detail=lambda args, result: id(args[0]),
        )
        tracer.wrap(MeasurementDataset, "ingest", "ingest")
        # Stage spans, not cache_stats() deltas: a request still running on
        # a snapshot retired mid-request records its stage time into a
        # pipeline whose totals were already folded, so the counters lose it.
        for stage in STAGES[3:]:
            tracer.wrap(ConstraintPipeline, stage, stage)
        tracer.wrap(ConstraintPipeline, "solve_many", "solve")

        reads = 0
        writes = 0
        lags: list[float] = []

        def write_after(read: int) -> None:
            nonlocal writes
            for pings in schedule[read % len(schedule)]:
                service.ingest_nowait(pings=pings)
                writes += 1

        def on_answer(target, estimate):
            nonlocal reads
            lags.append(service.measurement_log.lag_seconds())
            write_after(reads)
            reads += 1

        async def between():
            # Settle the writes so no compaction overlaps the set-up.
            await service.flush_ingest()
            await setups.throwaway()

        deltas: list[dict] = []
        traced_stats: list[dict] = []

        def before_traced():
            traced_stats.append(service.cache_stats())

        def after_traced():
            deltas.append(_stats_delta(traced_stats.pop(), service.cache_stats()))

        gc.collect()
        refs = ref_loop_series()
        window_before = service.cache_stats()
        cycle = itertools.cycle(order)
        samples, blocks = await _run_blocks(
            send, [cycle] * CLIENTS, seconds, trace, tracer,
            between, before_traced, after_traced, on_answer,
        )
        window_after = service.cache_stats()
        refs += ref_loop_series()

        # Finish the schedule's current cycle, off the clock: the last write
        # to every scheduled pair is then its final entry in the schedule,
        # so the final snapshot is the same however many reads the window
        # managed.
        window_writes = writes
        for read in range(reads, max(1, -(-reads // len(schedule))) * len(schedule)):
            write_after(read)
        await service.flush_ingest()
        # Accuracy comes from a leave-one-out pass over the whole cohort on
        # the final snapshot: 30 answers, where the 15 pooled targets are
        # too few for a containment share that is never 0.
        final = await _one_pass(service.localize, [iter(live.host_ids)] * CLIENTS)
        final_stats = service.cache_stats()
        rss = peak_rss_mb()
    finally:
        await service.stop()

    # ---- checks, off the clock ------------------------------------------ #
    outcome.attempted = len(samples) + len(final)
    outcome.failed = sum(1 for s in samples if is_failure(s.estimate))
    outcome.failed += sum(1 for e in final.values() if is_failure(e))
    direct = BatchLocalizer(live.snapshot())
    for target in random.Random(seed + 1).sample(sorted(final), CHECK_SAMPLE):
        if signature(direct.localize_one(target)) != signature(final[target]):
            outcome.mismatch(f"final answer for {target} != direct BatchLocalizer")
    if final_stats["ingest"]["log"]["apply_failures"]:
        outcome.problems.append("measurement log reported apply failures")

    _latency_metrics(outcome, samples, blocks)
    error_km, contained = accuracy(final, live)
    e2e = outcome.end_to_end
    e2e["error_km_p50"] = error_km
    e2e["containment_pct"] = contained
    e2e["success_pct"] = 100.0 - _pct(outcome.failed, outcome.attempted)
    e2e["peak_rss_mb"] = rss
    _window_info(outcome, setups, refs)
    outcome.info.update(
        cohort_targets=len(targets),
        landmarks=len(pool),
        requests=len(samples),
        writes=window_writes,
        final_writes=writes - window_writes,
    )

    layers = outcome.layers
    log_delta = _stats_delta(window_before, window_after)
    compactions = log_delta["ingest"]["log"]["compactions"]
    layers["network.compactions"] = compactions
    # Appends folded into each compaction: 1.0 when every append is
    # compacted on its own.
    layers["network.coalesced_per_compaction"] = (
        log_delta["ingest"]["log"]["applied"] / compactions if compactions else 0.0
    )
    layers["network.lag_ms_max"] = 1000.0 * max(lags, default=0.0)
    layers["core.batch.prepared_carried"] = log_delta["ingest"]["prepared_carried"]
    layers["core.batch.prepared_evicted"] = log_delta["ingest"]["prepared_evicted"]
    layers["serving.service.queue_high_water"] = final_stats["queue_high_water"]
    layers["serving.service.degraded"] = final_stats["resilience"]["degraded_answers"]
    traced = [s for s in samples if s.traced]
    if traced:
        layers["network.ingest_ms_p50"] = 1000.0 * p50(tracer.seconds("ingest"))
        layers["core.batch.adopt_ms_p50"] = 1000.0 * p50(tracer.seconds("adopt"))
        builds_seen = {d for _, d in tracer.details("shared_state")}
        layers["core.batch.shared_state_ms"] = (
            1000.0 * tracer.total("shared_state") / len(builds_seen) if builds_seen else 0.0
        )
        prepare = tracer.total("prepare")
        layers["core.batch.prepare_ms_per_target"] = 1000.0 * prepare / len(traced)
        hits = sum(d["prepared_hits"] for d in deltas)
        misses = sum(d["prepared_misses"] for d in deltas)
        layers["core.batch.prepared_hit_pct"] = _pct(hits, hits + misses)
        stats = Counter()
        for d in deltas:
            stats.update(d["pipeline"])
        _stage_layers(layers, stats, len(traced))
        stages = 0.0
        for stage in STAGES[3:]:
            stages += tracer.total(stage)
            layers[f"core.pipeline.{stage}_ms"] = 1000.0 * tracer.total(stage) / len(traced)
        circle = Counter()
        for d in deltas:
            circle.update(d["circle_cache"])
        layers["geometry.circle_hit_pct"] = _circle_hit_pct(circle)
        kernels = [s.estimate.details.get("kernel") or {} for s in traced]
        fused_passes = sum(int(k.get("fused_pass_count", 0)) for k in kernels)
        fused_rows = sum(int(k.get("fused_rows_clipped", 0)) for k in kernels)
        layers["core.solver.fused_rows_per_pass"] = fused_rows / fused_passes if fused_passes else 0.0

        # Queue wait = client latency - executor span, matched per target in
        # completion order (two in-flight requests never share a target).
        spans = defaultdict(deque)
        for seconds_, served in tracer.details("execute"):
            for target in served:
                spans[target].append(seconds_)
        waits, execs = [], []
        for s in traced:
            if spans[s.target]:
                span = spans[s.target].popleft()
                execs.append(span)
                waits.append(s.latency_s - span)
        layers["serving.service.exec_ms_p50"] = 1000.0 * p50(execs)
        layers["serving.service.queue_wait_ms_p50"] = 1000.0 * p50(waits)
        # Executor time not covered by the prepare and stage spans inside
        # it (queue wait is measured above).  Each executor span counts
        # once: a coalesced micro-batch's span serves several requests but
        # holds one set of stage spans.
        executor = tracer.total("execute")
        layers["trace.unattributed_pct"] = _pct(executor - prepare - stages, executor)
        layers["trace.overhead_pct"] = _overhead_pct(samples)
    return outcome


def _stats_delta(before: dict, after: dict):
    """``after - before`` over the numeric leaves of two cache_stats() dicts."""
    if isinstance(after, dict):
        return {
            key: _stats_delta(before.get(key, 0) if isinstance(before, dict) else 0, value)
            for key, value in after.items()
        }
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return after
    return after - (before if isinstance(before, (int, float)) else 0)


WORKLOADS = {
    "cluster_warm": cluster_warm,
    "serve_churn": serve_churn,
}
