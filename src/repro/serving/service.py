"""Asyncio localization service over the staged constraint pipeline.

The service turns the repo's offline machinery into an online system with
three properties the offline path never needed:

* **Bounded admission.**  Requests enter a bounded :class:`asyncio.Queue`;
  when the queue is full, ``await localize(...)`` exerts backpressure
  instead of growing memory without limit.
* **Snapshot-per-request semantics.**  Every request is served against the
  :meth:`~repro.network.dataset.MeasurementDataset.snapshot` that was
  current when the request was *enqueued*.  A measurement ingest mid-flight
  never changes the answer of an already-accepted request, and an old
  snapshot keeps answering consistently until its last request drains.
* **Warm-path reuse.**  All snapshots share one
  :class:`~repro.core.pipeline.ConstraintPipeline`: its circle cache and
  planar memo are content-addressed and therefore survive ingests, and
  its counters are the service's lifetime totals.  Each
  snapshot's
  :class:`~repro.core.batch.BatchLocalizer` additionally memoizes derived
  per-target :class:`~repro.core.octant.PreparedLandmarks`, so a repeated
  target skips the derivation entirely.  Warm and cold request latencies
  are tracked separately (``stats()``), which is the number
  ``benchmarks/bench_serving.py`` gates on.

The localization work itself is CPU-bound pure Python, so the executor
threads provide *concurrency* (the event loop stays responsive, requests
overlap with ingests) rather than parallel speedup; scale-out across
processes is the sharded tier (``repro.serving.cluster``), not this service.

**Resilience** (see ``DESIGN_RESILIENCE.md``).  Every request carries a
:class:`~repro.resilience.deadline.Deadline` and a
:class:`~repro.resilience.deadline.CancelToken` through a thread-local
resilience scope; the pipeline's stage checkpoints enforce them
cooperatively.  A failed attempt rides a graceful-degradation ladder --
retry with jittered backoff for retriable faults, then lower solver engine
rungs (``fused`` -> ``object``, bit-identical), then the
coarse shortest-ping baseline -- with per-rung circuit breakers and
deadline-aware shedding of expired queue entries.  Every degraded answer
records its provenance under ``details["degraded"]``; with no faults
injected and no deadline pressure, answers are bit-identical to the plain
engine output (the ladder never engages on the happy path).
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback as traceback_module
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..baselines.shortest_ping import ShortestPing
from ..core.batch import BatchLocalizer, failed_estimate
from ..core.config import OctantConfig
from ..core.estimate import LocationEstimate
from ..core.octant import Octant
from ..core.pipeline import ConstraintPipeline
from ..network.dataset import IngestDelta, IngestRecord, MeasurementDataset
from ..network.dns import UndnsParser
from ..network.log import MeasurementLog
from ..network.probes import PingResult, TracerouteResult
from ..resilience import (
    BreakerBoard,
    CancelToken,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    OperationCancelled,
    ResilienceConfig,
    RetriableError,
    checkpoint,
    classify_error,
    resilience_scope,
)

__all__ = ["DriftDetector", "LocalizationService", "ServiceStats"]

#: Solver-engine degradation ladder, strongest (most batched) first: the
#: NumPy cohort kernel, then the object reference.  Both engines are
#: bit-identical (pinned by the engine-equivalence suites), so falling down
#: a rung changes performance, never the answer.
ENGINE_LADDER = ("fused", "object")

#: Bound of each snapshot localizer's prepared-landmarks LRU (the warm path).
PREPARED_CACHE_SIZE = 128


@dataclass
class ServiceStats:
    """Counters the service accumulates over its lifetime."""

    served: int = 0
    failed: int = 0
    ingests: int = 0
    queue_high_water: int = 0
    cold_requests: int = 0
    warm_requests: int = 0
    cold_seconds: float = 0.0
    warm_seconds: float = 0.0
    #: Micro-batching (fused engine): executor dispatches that solved more
    #: than one request, and the dispatch-width histogram {width: count}
    #: (width 1 entries included so the coalescing rate is visible).
    fused_batches: int = 0
    fuse_width_histogram: dict[int, int] = field(default_factory=dict)
    #: Cohort-level fused kernel counters, accumulated once per fused
    #: dispatch (targets/rows/passes of the pooled clip passes).
    fused_passes: int = 0
    fused_rows: int = 0
    #: Resilience counters.  ``retries``: same-rung retry attempts of
    #: retriable faults; ``degraded_answers``: answers produced below the
    #: primary rung (lower engine or baseline), every one of which carries
    #: ``details["degraded"]``; ``baseline_answers``: the subset answered by
    #: the coarse shortest-ping fallback; ``shed_requests``: queue entries
    #: resolved at dequeue without an executor dispatch (expired deadline or
    #: withdrawn caller); ``microbatch_retries``: coalesced group solves
    #: that fell back to per-request execution; ``deadline_failures`` /
    #: ``cancelled_failures``: requests resolved with a terminal
    #: deadline/cancellation failure.
    retries: int = 0
    degraded_answers: int = 0
    baseline_answers: int = 0
    shed_requests: int = 0
    microbatch_retries: int = 0
    deadline_failures: int = 0
    cancelled_failures: int = 0

    def mean_cold_ms(self) -> float:
        """Mean latency of first-time (cold) requests, in milliseconds."""
        return self.cold_seconds / self.cold_requests * 1000 if self.cold_requests else 0.0

    def mean_warm_ms(self) -> float:
        """Mean latency of repeated-target (warm) requests, in milliseconds."""
        return self.warm_seconds / self.warm_requests * 1000 if self.warm_requests else 0.0


@dataclass
class _Request:
    """One queued localization request, pinned to its enqueue-time snapshot."""

    target_id: str
    landmark_pool: tuple[str, ...] | None
    localizer: BatchLocalizer
    future: asyncio.Future
    snapshot_version: int = 0
    cold: bool = False
    elapsed: float = field(default=0.0, compare=False)
    #: Per-request deadline enforced cooperatively at stage checkpoints and
    #: at dequeue (load shedding); ``None`` means unbounded.
    deadline: Deadline | None = None
    #: Cancellation token; cancelled when the awaiting caller times out or
    #: the service shuts down, reaping the in-flight work at its next
    #: checkpoint.
    token: CancelToken = field(default_factory=CancelToken)


class DriftDetector:
    """Selective re-localization of targets whose measurements drifted.

    Each compaction's :class:`~repro.network.dataset.IngestDelta` names the
    measurements that changed value; the detector intersects that scope with
    the targets the service has already answered (``_seen``) and enqueues
    only those -- a target whose own pings, host record or router
    observations moved -- onto a bounded work queue.  A background thread
    re-localizes them against the *new* snapshot, which both refreshes the
    answer and re-warms the prepared cache entries the ingest evicted,
    before live traffic pays the cold cost.

    The queue is bounded (oldest entries dropped, counted) and each
    re-localization runs under its own deadline, so a burst of churn can
    never wedge the thread or grow memory: drift work is strictly
    best-effort background load.
    """

    def __init__(
        self,
        service: "LocalizationService",
        *,
        queue_limit: int = 64,
        deadline_s: float | None = 5.0,
    ) -> None:
        self._service = service
        self.queue_limit = max(1, queue_limit)
        self.deadline_s = deadline_s
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: deque[str] = deque()
        self._queued: set[str] = set()
        self.enqueued = 0
        self.dropped = 0
        self.processed = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Latest drift-refreshed estimate per target (bounded by the seen
        #: population; consumers poll it for push-style notification).
        self.refreshed: dict[str, LocationEstimate] = {}

    @staticmethod
    def affected_targets(deltas: Sequence[IngestDelta]) -> set[str]:
        """Hosts whose *own* localization inputs changed value.

        Under leave-one-out every answer formally depends on every other
        host, but the drift trigger is the target's own measurements: its
        ping RTTs (read live at assembly), its host record, or its router
        observations.  Roster-side churn is handled by cache invalidation,
        not re-localization.
        """
        affected: set[str] = set()
        for delta in deltas:
            affected |= delta.record_hosts
            affected |= delta.router_observers
            for a, b in delta.ping_pairs:
                affected.add(a)
                affected.add(b)
        return affected

    def notify(self, targets: Iterable[str]) -> int:
        """Enqueue targets for re-localization; returns how many were new."""
        added = 0
        with self._lock:
            for target in targets:
                if target in self._queued:
                    continue
                self._queue.append(target)
                self._queued.add(target)
                self.enqueued += 1
                added += 1
                while len(self._queue) > self.queue_limit:
                    stale = self._queue.popleft()
                    self._queued.discard(stale)
                    self.dropped += 1
            if added:
                self._wakeup.notify()
        return added

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def start(self) -> "DriftDetector":
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="octant-drift", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        with self._lock:
            self._wakeup.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        self._thread = None

    def drain(self, timeout: float | None = 10.0) -> None:
        """Process the queue inline until empty (for tests / no-thread use)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._step():
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("drift queue did not drain in time")

    def _run(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                while not self._queue and not self._stop.is_set():
                    self._wakeup.wait(timeout=0.1)
                if self._stop.is_set():
                    return
            self._step()

    def _step(self) -> bool:
        with self._lock:
            if not self._queue:
                return False
            target = self._queue.popleft()
            self._queued.discard(target)
        localizer = self._service._current
        if localizer is None:
            return True
        deadline = (
            Deadline.after(self.deadline_s) if self.deadline_s is not None else None
        )
        try:
            with resilience_scope(
                plan=self._service.fault_plan, deadline=deadline
            ):
                estimate = localizer.localize_one(target)
            self.refreshed[target] = estimate
            self.processed += 1
        except Exception:  # noqa: BLE001 - best-effort background work
            self.errors += 1
        return True

    def stats(self) -> dict[str, object]:
        with self._lock:
            depth = len(self._queue)
        return {
            "queue_depth": depth,
            "queue_limit": self.queue_limit,
            "enqueued": self.enqueued,
            "processed": self.processed,
            "dropped": self.dropped,
            "errors": self.errors,
            "running": self._thread is not None and self._thread.is_alive(),
        }


class LocalizationService:
    """Serve ``localize(target)`` requests over a live measurement dataset.

    Usage::

        service = LocalizationService(dataset)
        async with service:
            estimate = await service.localize("host-sea")
            await service.ingest(hosts=[record], pings=new_pings)
            estimate2 = await service.localize("host-new")
        print(service.cache_stats())

    ``workers`` sizes both the executor thread pool and the number of queue
    consumers; ``max_queue`` bounds admission.  Every snapshot's
    :class:`BatchLocalizer` runs on the service's one :attr:`pipeline`.
    ``resilience`` overrides ``config.resilience`` for this service
    instance; ``fault_plan`` installs a deterministic fault-injection
    schedule scoped to this service's request/ingest work (chaos testing --
    see :meth:`install_fault_plan` and the ``OCTANT_FAULT_PLAN`` env var).
    """

    def __init__(
        self,
        dataset: MeasurementDataset,
        config: OctantConfig | None = None,
        parser: UndnsParser | None = None,
        *,
        workers: int = 2,
        max_queue: int = 256,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
        ingest_max_pending: int = 4096,
        ingest_poll_interval_s: float = 0.05,
        drift_relocalize: bool = False,
        drift_queue_limit: int = 64,
        drift_deadline_s: float | None = 5.0,
    ):
        if dataset.is_snapshot:
            raise ValueError("serve the live dataset, not a snapshot")
        self._live = dataset
        self.config = config or OctantConfig()
        self.resilience = resilience if resilience is not None else self.config.resilience
        self.fault_plan = fault_plan
        #: Per-rung circuit breakers (``solve:fused`` etc.); shared clock.
        self._breakers = BreakerBoard(self.resilience.breaker)
        self.workers = max(1, workers)
        self.max_queue = max_queue
        #: One pipeline for the service's whole lifetime, shared by every
        #: snapshot: its caches are content-addressed, so they stay valid
        #: across ingests, and a request still running on a retired
        #: snapshot counts into the same stats as every other.
        self.pipeline = ConstraintPipeline(self.config, parser)
        #: Write-optimized ingest plane: appends land in this log's delta
        #: buffer (lock-cheap, no matrix work) and a background compactor
        #: merges them into one ingest + snapshot swap (see
        #: repro.network.log).  Started/stopped with the service.
        #: ``ingest_poll_interval_s`` is the compaction cadence: longer
        #: intervals coalesce more appends per snapshot rebuild (less CPU
        #: stolen from serving) at the cost of staleness, bounded by the
        #: interval itself.
        self.measurement_log = MeasurementLog(
            self._apply_record,
            max_pending=ingest_max_pending,
            poll_interval_s=ingest_poll_interval_s,
        )
        #: Opt-in drift detector: re-localizes (and re-warms) only the
        #: targets whose own measurements changed value in a compaction.
        self.drift: DriftDetector | None = (
            DriftDetector(
                self,
                queue_limit=drift_queue_limit,
                deadline_s=drift_deadline_s,
            )
            if drift_relocalize
            else None
        )
        #: Delta-scoped invalidation accounting (cache_stats()["ingest"]).
        self._ingest_accounting: dict[str, int] = {
            "invalidations_full": 0,
            "invalidations_selective": 0,
            "prepared_carried": 0,
            "prepared_evicted": 0,
            "tables_carried": 0,
            "dns_carried": 0,
        }
        self.stats = ServiceStats()
        self._queue: asyncio.Queue[_Request] | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._workers: list[asyncio.Task] = []
        self._closing = False
        self._pending_puts = 0
        self._current: BatchLocalizer | None = None
        self._ingest_lock = threading.Lock()
        # Fused stats (histogram, pass counters) are mutated from executor
        # threads; with workers > 1 those dispatches run concurrently.
        self._stats_lock = threading.Lock()
        # Warm/cold classification: targets seen at the current dataset
        # version.  Reset when the version moves (every target is cold
        # against a fresh snapshot), which also bounds the set by the host
        # population instead of growing per ingest forever.
        self._seen: set[str] = set()
        self._seen_version = -1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._queue is not None

    async def start(self) -> None:
        """Snapshot the dataset, warm the shared state and accept requests."""
        if self.started:
            raise RuntimeError("service already started")
        loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="octant-serve"
        )
        self._current = await loop.run_in_executor(
            self._executor, self._build_localizer
        )
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._workers = [
            loop.create_task(self._worker_loop()) for _ in range(self.workers)
        ]
        self.measurement_log.start()
        if self.drift is not None:
            self.drift.start()

    async def stop(self) -> None:
        """Drain queued requests, then shut the workers and executor down."""
        if not self.started:
            return
        self._closing = True  # reject new admissions while draining
        try:
            # Drain buffered ingest appends first (off-loop: compaction
            # rebuilds a localizer), then stop the background threads.
            await asyncio.get_running_loop().run_in_executor(
                None, self.measurement_log.stop
            )
            if self.drift is not None:
                self.drift.stop()
            await self._queue.join()
            for task in self._workers:
                task.cancel()
            await asyncio.gather(*self._workers, return_exceptions=True)
            self._workers = []
            # Callers blocked in queue.put can still slip requests in after
            # the join (their items were never counted by it) -- and each
            # get below may wake another blocked putter.  Keep draining,
            # yielding to let woken putters land, until every admitted put
            # has resolved; no caller is left awaiting a stranded future.
            while self._pending_puts or not self._queue.empty():
                try:
                    stray = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    await asyncio.sleep(0)
                    continue
                if not stray.future.done():
                    stray.token.cancel("shutdown")
                    stray.future.set_result(
                        failed_estimate(
                            stray.target_id,
                            "octant",
                            RuntimeError("service stopped"),
                            error_type="shutdown",
                        )
                    )
                self._queue.task_done()
            self._queue = None
            executor, self._executor = self._executor, None
            # shutdown(wait=True) blocks on in-flight executor work (an
            # ingest rebuild can take a while); do that waiting off-loop.
            await asyncio.get_running_loop().run_in_executor(
                None, executor.shutdown
            )
        finally:
            self._closing = False

    async def __aenter__(self) -> "LocalizationService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    async def localize(
        self,
        target_id: str,
        landmark_pool: Sequence[str] | None = None,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> LocationEstimate:
        """Queue one localization and await its estimate.

        The request is bound to the current dataset snapshot at enqueue
        time; a concurrent :meth:`ingest` does not affect it.  A full queue
        blocks admission (backpressure); ``timeout`` bounds the wait for
        the *result* and raises :class:`asyncio.TimeoutError` -- the
        underlying request is then cancelled (its token is set, so queued
        work is shed at dequeue and in-flight work aborts at its next stage
        checkpoint) rather than left running unobserved.  ``deadline_s``
        bounds the *work* itself: past the deadline, queued requests are
        shed and in-flight requests degrade to the near-instant baseline
        (or fail with a ``deadline`` error when degradation is off).  It
        defaults to the configured ``ResilienceConfig.deadline_s``.
        Failures are returned as failed estimates (``point=None``,
        reason/type/traceback under ``details``), never raised.
        """
        if not self.started or self._closing:
            raise RuntimeError("service not started; use 'async with service:'")
        localizer = self._current
        version = localizer.dataset.version
        if deadline_s is None:
            deadline_s = self.resilience.deadline_s
        request = _Request(
            target_id=target_id,
            landmark_pool=tuple(landmark_pool) if landmark_pool is not None else None,
            localizer=localizer,
            future=asyncio.get_running_loop().create_future(),
            snapshot_version=version,
            deadline=Deadline.after(deadline_s) if deadline_s is not None else None,
        )
        if version != self._seen_version:
            self._seen = set()
            self._seen_version = version
        # A target counts as warm only once an earlier request for it
        # *completed successfully* (see _record); concurrent first-time
        # requests all pay the cold cost and are reported as such.
        request.cold = target_id not in self._seen
        # Tracked so stop() can tell when every admitted-but-blocked put has
        # landed and the queue can safely be torn down.
        self._pending_puts += 1
        try:
            await self._queue.put(request)
        finally:
            self._pending_puts -= 1
        self.stats.queue_high_water = max(
            self.stats.queue_high_water, self._queue.qsize()
        )
        if timeout is not None:
            try:
                return await asyncio.wait_for(request.future, timeout)
            except (asyncio.TimeoutError, TimeoutError):
                # Reap the abandoned request: still queued, it is shed at
                # dequeue; in flight, the executor work aborts at its next
                # stage checkpoint instead of running to completion for a
                # caller that stopped listening.
                request.token.cancel("timeout")
                raise
        return await request.future

    async def localize_many(
        self, target_ids: Iterable[str]
    ) -> dict[str, LocationEstimate]:
        """Localize several targets concurrently against one snapshot."""
        targets = list(target_ids)
        estimates = await asyncio.gather(*(self.localize(t) for t in targets))
        return dict(zip(targets, estimates))

    def _fuse_width(self) -> int:
        """How many queued requests one executor dispatch may coalesce."""
        solver = self.config.solver
        if solver.engine != "fused" or solver.exact_complements:
            return 1
        return max(1, solver.fuse_width)

    def _shed(self, request: _Request) -> bool:
        """Resolve a dequeued request without dispatching it, if warranted.

        Deadline-aware load shedding on the admission queue: an entry whose
        caller has withdrawn (timed out, cancelled) or whose deadline
        already expired gets a terminal failure immediately instead of
        burning an executor slot on an answer nobody is waiting for.
        """
        reason: str | None = None
        if request.token.cancelled:
            reason = request.token.reason
        elif request.future.done():
            reason = "cancelled"
        elif (
            self.resilience.shed_expired
            and request.deadline is not None
            and request.deadline.expired()
        ):
            reason = "deadline"
        if reason is None:
            return False
        self.stats.shed_requests += 1
        if not request.future.done():
            if reason == "deadline":
                error: Exception = DeadlineExceeded(
                    f"deadline expired before dispatch of {request.target_id!r} (shed)",
                    stage="dispatch",
                )
            else:
                error = OperationCancelled(
                    f"request withdrawn before dispatch ({reason})",
                    stage="dispatch",
                    reason=reason,
                )
            estimate = failed_estimate(request.target_id, "octant", error)
            self._record(request, estimate)
            request.future.set_result(estimate)
        return True

    def _resolve_shutdown(self, requests: Sequence[_Request]) -> None:
        """Terminal shutdown results for requests the worker abandons.

        The executor-side work may still be running; cancelling each token
        makes it abort at its next stage checkpoint, and the awaiting
        callers get a ``failed_estimate`` with ``error_type="shutdown"``
        instead of a cancelled (hanging) future.
        """
        for request in requests:
            request.token.cancel("shutdown")
            if not request.future.done():
                request.future.set_result(
                    failed_estimate(
                        request.target_id,
                        "octant",
                        RuntimeError("service stopped"),
                        error_type="shutdown",
                    )
                )

    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            # Micro-batching: under the fused engine, drain whatever is
            # already queued (up to fuse_width) into one executor dispatch;
            # the fused kernel solves the whole batch in shared passes.
            # Requests keep their enqueue-time snapshots -- the batch is
            # regrouped by localizer inside _localize_batch_sync.
            width = self._fuse_width()
            while len(batch) < width:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                live = [request for request in batch if not self._shed(request)]
                if not live:
                    continue
                try:
                    estimates = await loop.run_in_executor(
                        self._executor, self._localize_batch_sync, live
                    )
                except asyncio.CancelledError:
                    self._resolve_shutdown(live)
                    raise
                except Exception as exc:  # noqa: BLE001 - keep the worker alive
                    # _localize_batch_sync captures request errors itself;
                    # this covers the bridge (executor shut down mid-stop, or
                    # an escape the capture missed).  The worker must
                    # survive, or queued requests would never resolve.
                    estimates = [
                        failed_estimate(
                            request.target_id,
                            "octant",
                            exc,
                            traceback=traceback_module.format_exc(),
                        )
                        for request in live
                    ]
                for request, estimate in zip(live, estimates):
                    self._record(request, estimate)
                    if not request.future.done():
                        request.future.set_result(estimate)
            finally:
                for _ in batch:
                    self._queue.task_done()

    def _localize_batch_sync(self, batch: list[_Request]) -> list[LocationEstimate]:
        """Executor-side execution of one (possibly coalesced) dispatch.

        Single requests ride the existing per-request path.  Coalesced
        requests group by ``(localizer, landmark pool)`` -- snapshot
        semantics are per-request, so a batch spanning an ingest solves each
        group against its own enqueue-time snapshot -- and each group runs
        one fused :meth:`BatchLocalizer.solve_many`.  Estimates come back in
        request order; failures (unknown target, solver errors) are captured
        per request exactly like the single path.
        """
        with self._stats_lock:
            histogram = self.stats.fuse_width_histogram
            histogram[len(batch)] = histogram.get(len(batch), 0) + 1
        if len(batch) == 1:
            return [self._localize_sync(batch[0])]
        with self._stats_lock:
            self.stats.fused_batches += 1
        started = time.perf_counter()
        # Split by snapshot BEFORE stage batching: a dispatch that drained
        # requests enqueued on both sides of an ingest() must not run them
        # through one cohort pass.  The snapshot version is part of the key
        # explicitly -- object identity alone would conflate two snapshots
        # if a retired localizer's id were ever reused.
        groups: dict[tuple[int, int, tuple[str, ...] | None], list[_Request]] = {}
        for request in batch:
            groups.setdefault(
                (
                    id(request.localizer),
                    request.snapshot_version,
                    request.landmark_pool,
                ),
                [],
            ).append(request)
        results: dict[int, LocationEstimate] = {}
        for (_key, _version, pool), requests in groups.items():
            localizer = requests[0].localizer
            known: list[_Request] = []
            for request in requests:
                if request.target_id in localizer.dataset.hosts:
                    known.append(request)
                else:
                    # Same refusal as the single-request path: an unknown
                    # target would "resolve" from geographic priors alone.
                    results[id(request)] = failed_estimate(
                        request.target_id,
                        "octant",
                        KeyError(
                            f"unknown target {request.target_id!r}: "
                            "not in the served snapshot"
                        ),
                    )
            if not known:
                continue
            try:
                # Group solves run under the service's fault plan but not
                # under any single request's deadline/token -- the pooled
                # kernel passes are shared, so per-request deadlines are
                # enforced at dequeue (shedding) and by the per-request
                # fallback below, never mid-cohort.
                with resilience_scope(plan=self.fault_plan):
                    checkpoint("dispatch")
                    solved = localizer.solve_many(
                        [request.target_id for request in known], pool
                    )
                # Any successful groupmate carries the cohort-level
                # counters; a failed estimate's details hold no kernel dict.
                kernel = next(
                    (
                        k
                        for e in solved.values()
                        if isinstance(k := e.details.get("kernel"), dict)
                    ),
                    None,
                )
                if isinstance(kernel, dict):
                    with self._stats_lock:
                        self.stats.fused_passes += int(
                            kernel.get("fused_pass_count", 0) or 0
                        )
                        self.stats.fused_rows += int(
                            kernel.get("fused_rows_clipped", 0) or 0
                        )
                for request in known:
                    results[id(request)] = solved[request.target_id]
            except Exception:  # noqa: BLE001 - boundary of the service
                # One target's unexpected failure must not fail its
                # groupmates: retry each request individually through the
                # single path -- the first-class retry/degradation policy,
                # which backs off retriable faults, falls down the engine
                # ladder and captures terminal errors with type and
                # traceback, exactly what an uncoalesced dispatch does.
                with self._stats_lock:
                    self.stats.microbatch_retries += 1
                for request in known:
                    results[id(request)] = self._localize_sync(request)
        # The dispatch is one shared span; report the amortized share as
        # each request's latency (what the warm/cold means aggregate).
        share = (time.perf_counter() - started) / len(batch)
        for request in batch:
            request.elapsed = share
        return [results[id(request)] for request in batch]

    def _engine_ladder(self) -> list[str]:
        """Solver engines to try, primary first, degradation rungs after."""
        primary = self.config.solver.engine
        if not self.resilience.degradation or primary not in ENGINE_LADDER:
            return [primary]
        return list(ENGINE_LADDER[ENGINE_LADDER.index(primary):])

    def _localize_sync(self, request: _Request) -> LocationEstimate:
        """Executor-side request execution with full failure capture.

        Serving must answer every request, so unlike the batch path --
        where an exception past preparation is an invariant violation worth
        crashing a study for -- any error is recorded on the estimate with
        its type and traceback.  The request's deadline, cancellation token
        and the service's fault plan are active for the whole execution (a
        thread-local scope the pipeline's stage checkpoints consult), and
        failures ride the degradation ladder in :meth:`_localize_resilient`.
        """
        started = time.perf_counter()
        with resilience_scope(
            deadline=request.deadline, token=request.token, plan=self.fault_plan
        ):
            estimate = self._localize_resilient(request)
        request.elapsed = time.perf_counter() - started
        return estimate

    def _localize_resilient(self, request: _Request) -> LocationEstimate:
        """One request through the retry/degradation ladder.

        Rung order: the configured engine, then each lower engine rung
        (bit-identical results, so a fallback answer equals the primary
        one), then the coarse baseline.  Per rung, retriable faults are
        retried with jittered backoff up to the policy budget; fatal faults
        drop to the next rung; an expired deadline jumps straight to the
        baseline (no time for another full solve); cancellation and data
        refusals (unknown target, too few landmarks) are terminal.  Every
        rung is gated by its circuit breaker, so a persistently failing
        engine is skipped instead of hammered.
        """
        target = request.target_id
        if target not in request.localizer.dataset.hosts:
            # Without this guard an unknown target would "resolve" from
            # the geographic priors alone -- an answer with no
            # measurement behind it.  Ingesting a target's measurements
            # must include its NodeRecord (location may be None).
            return failed_estimate(
                target,
                "octant",
                KeyError(f"unknown target {target!r}: not in the served snapshot"),
            )
        policy = self.resilience.retry
        rungs = self._engine_ladder()
        primary = rungs[0]
        attempted: list[str] = []
        last_error: BaseException | None = None
        last_traceback: str | None = None
        for rung in rungs:
            breaker = self._breakers.get(f"solve:{rung}")
            if not breaker.allow():
                attempted.append(f"{rung}:breaker-open")
                continue
            attempt = 0
            while True:
                try:
                    checkpoint("dispatch", target)
                    estimate = request.localizer.localize_one(
                        target, request.landmark_pool, engine=rung
                    )
                except OperationCancelled as exc:
                    # The caller (or the service lifecycle) withdrew the
                    # request; resolve terminally, do no further work.
                    return failed_estimate(target, "octant", exc)
                except DeadlineExceeded as exc:
                    return self._degraded_baseline(request, exc, attempted + [rung])
                except RetriableError as exc:
                    breaker.record_failure()
                    last_error = exc
                    last_traceback = traceback_module.format_exc()
                    deadline = request.deadline
                    if policy.retries_left(attempt) and (
                        deadline is None or not deadline.expired()
                    ):
                        with self._stats_lock:
                            self.stats.retries += 1
                        delay = policy.delay_s(attempt, target)
                        if deadline is not None:
                            delay = min(delay, max(0.0, deadline.remaining()))
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        continue
                    attempted.append(rung)
                    break
                except (ValueError, KeyError) as exc:
                    # Data refusal: deterministic for these inputs on every
                    # engine, so the ladder cannot help -- terminal.
                    return failed_estimate(target, "octant", exc)
                except Exception as exc:  # noqa: BLE001 - boundary of the service
                    breaker.record_failure()
                    last_error = exc
                    last_traceback = traceback_module.format_exc()
                    attempted.append(rung)
                    break
                else:
                    breaker.record_success()
                    if rung != primary and estimate.point is not None:
                        estimate.details["degraded"] = {
                            "engine": rung,
                            "primary": primary,
                            "attempted": list(attempted),
                            "error_class": (
                                classify_error(last_error)
                                if last_error is not None
                                else None
                            ),
                            "error": str(last_error) if last_error is not None else None,
                        }
                    return estimate
        return self._degraded_baseline(
            request, last_error, attempted, traceback=last_traceback
        )

    def _degraded_baseline(
        self,
        request: _Request,
        cause: BaseException | None,
        attempted: Sequence[str],
        traceback: str | None = None,
    ) -> LocationEstimate:
        """The ladder's last rung: a coarse baseline answer, else terminal failure.

        The shortest-ping baseline needs no pipeline work (one pass over
        the target's measurements), so it answers even when every solver
        rung failed or the deadline left no time for another solve.  Its
        answer is marked ``details["degraded"]`` with the full provenance:
        what was attempted, and the failure that forced the fallback.
        """
        target = request.target_id
        resilience = self.resilience
        if resilience.degradation and resilience.baseline_fallback:
            pool = (
                list(request.landmark_pool)
                if request.landmark_pool is not None
                else None
            )
            estimate = None
            try:
                estimate = ShortestPing(request.localizer.dataset).localize(target, pool)
            except (ValueError, KeyError) as exc:
                cause = cause if cause is not None else exc
            if estimate is not None and estimate.point is not None:
                estimate.details["degraded"] = {
                    "fallback": "baseline",
                    "method": ShortestPing.name,
                    "primary": self.config.solver.engine,
                    "attempted": list(attempted),
                    "error_class": (
                        classify_error(cause) if cause is not None else None
                    ),
                    "error": str(cause) if cause is not None else None,
                }
                return estimate
        if cause is None:
            cause = RuntimeError("no ladder rung produced an answer")
        return failed_estimate(target, "octant", cause, traceback=traceback)

    def _record(self, request: _Request, estimate: LocationEstimate) -> None:
        stats = self.stats
        stats.served += 1
        details = estimate.details
        # Which dataset snapshot this answer was pinned to at enqueue time:
        # the observable half of the optimistic-concurrency contract (a
        # batch straddling an ingest can be audited answer by answer).
        details.setdefault("snapshot_version", request.snapshot_version)
        degraded = details.get("degraded")
        if isinstance(degraded, dict):
            stats.degraded_answers += 1
            if degraded.get("fallback") == "baseline":
                stats.baseline_answers += 1
        if estimate.point is None:
            stats.failed += 1
            error_class = details.get("error_class")
            if error_class == "deadline":
                stats.deadline_failures += 1
            elif error_class in ("cancelled", "timeout", "shutdown"):
                stats.cancelled_failures += 1
        elif request.snapshot_version == self._seen_version:
            # Mark warm only on successful completion, so retries after a
            # failure and concurrent first-timers stay classified cold.
            self._seen.add(request.target_id)
        if request.cold:
            stats.cold_requests += 1
            stats.cold_seconds += request.elapsed
        else:
            stats.warm_requests += 1
            stats.warm_seconds += request.elapsed

    # ------------------------------------------------------------------ #
    # Ingest path
    # ------------------------------------------------------------------ #
    async def ingest(
        self,
        hosts: Iterable = (),
        pings: Iterable[PingResult] = (),
        traceroutes: Iterable[TracerouteResult] = (),
        routers: Iterable = (),
        router_pings: Mapping[tuple[str, str], float] | None = None,
    ) -> frozenset[str]:
        """Absorb new measurements and swap in a fresh snapshot.

        Appends to the measurement log like :meth:`ingest_nowait`, then waits
        for the compaction that applies it, so it never overtakes an earlier
        append.  A fresh snapshot localizer then serves subsequent requests;
        requests already queued keep their enqueue-time snapshot.  Returns
        the touched host ids; a failed apply raises its own error, with the
        dataset left as it was.
        """
        if not self.started:
            raise RuntimeError("service not started; use 'async with service:'")
        record = IngestRecord.capture(
            hosts=hosts,
            pings=pings,
            traceroutes=traceroutes,
            routers=routers,
            router_pings=router_pings,
        )
        await asyncio.get_running_loop().run_in_executor(
            None, self.measurement_log.commit, record
        )
        return record.touched

    def ingest_nowait(
        self,
        hosts: Iterable = (),
        pings: Iterable[PingResult] = (),
        traceroutes: Iterable[TracerouteResult] = (),
        routers: Iterable = (),
        router_pings: Mapping[tuple[str, str], float] | None = None,
    ) -> int:
        """Append measurements to the write-optimized log; returns their seq.

        The write path for sustained measurement traffic: the payload lands
        in the measurement log's delta buffer under one short mutex hold --
        no matrix extension, no snapshot rebuild, no cache invalidation on
        the caller's thread.  The background compactor coalesces buffered
        appends into a single :meth:`MeasurementDataset.ingest` (one version
        bump per compaction, however many appends it absorbed) and swaps in
        the fresh snapshot.  Call :meth:`flush_ingest` to barrier on
        everything appended so far.
        """
        return self.measurement_log.append(
            hosts=hosts,
            pings=pings,
            traceroutes=traceroutes,
            routers=routers,
            router_pings=router_pings,
        )

    async def flush_ingest(self, timeout: float | None = 30.0) -> int:
        """Await compaction of everything appended via :meth:`ingest_nowait`."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.measurement_log.flush(timeout=timeout)
        )

    def _apply_record(self, record: IngestRecord) -> int:
        """The service's one write: apply ``record``, swap snapshots; new version.

        The measurement log's compactor calls it with every merged batch; a
        sharded worker calls it with each record the orchestrator replicates.
        """
        with self._ingest_lock:
            # The ingest stage boundary is checkpointed like any pipeline
            # stage: chaos plans can inject latency or failure here, and an
            # injected error reaches the writers of this batch before any
            # mutation happens.
            with resilience_scope(plan=self.fault_plan):
                checkpoint("ingest")
            retired = self._current
            # Deltas are scoped to the *retired snapshot's* version: that is
            # the state whose caches adopt_caches() carries.  It normally
            # equals the live version, but if the live dataset was advanced
            # behind the service's back the gap shows up here and resolves
            # to a full invalidation (deltas_since returns None).
            previous_version = (
                retired.dataset.version if retired is not None else self._live.version
            )
            record.apply(self._live)
            # Build before swapping so concurrent localize() calls always
            # observe a usable localizer (the old snapshot until the swap,
            # which is exactly the enqueue-time-snapshot contract).
            fresh = self._build_localizer()
            deltas = self._live.deltas_since(previous_version)
            if retired is not None:
                adopt = fresh.adopt_caches(retired, deltas)
                with self._stats_lock:
                    accounting = self._ingest_accounting
                    if adopt["full"]:
                        accounting["invalidations_full"] += 1
                    else:
                        accounting["invalidations_selective"] += 1
                    for key in (
                        "prepared_carried",
                        "prepared_evicted",
                        "tables_carried",
                        "dns_carried",
                    ):
                        accounting[key] += int(adopt[key])
            self._current = fresh
            self.stats.ingests += 1
            if self.drift is not None and deltas:
                # Membership probes (not iteration) against _seen: it is
                # mutated lock-free by request completions on other threads.
                affected = DriftDetector.affected_targets(deltas)
                self.drift.notify(
                    t for t in sorted(affected) if t in self._seen
                )
            return self._live.version

    # ------------------------------------------------------------------ #
    # Snapshot localizer plumbing
    # ------------------------------------------------------------------ #
    def _build_localizer(self) -> BatchLocalizer:
        localizer = BatchLocalizer(
            Octant(self._live.snapshot(), pipeline=self.pipeline),
            prepared_cache_size=PREPARED_CACHE_SIZE,
        )
        # Warm the full-cohort shared state before the first request hits it.
        localizer.shared_state()
        return localizer

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def install_fault_plan(self, plan: FaultPlan | None) -> FaultPlan | None:
        """Install (or with ``None``, remove) this service's fault plan.

        The plan activates through the resilience scope wrapped around
        every request execution and ingest, so it affects *this service's*
        work only -- unlike :func:`repro.resilience.install_fault_plan`,
        which is process-wide.  Returns the previously installed plan.
        Chaos runs that cannot edit code can set the ``OCTANT_FAULT_PLAN``
        environment variable instead (picked up process-wide, lazily).
        """
        previous = self.fault_plan
        self.fault_plan = plan
        return previous

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def liveness(self) -> dict[str, object]:
        """Is the process worth keeping?  (Restart-decision probe.)

        Deliberately minimal -- the k8s-style liveness contract: it must
        only fail when a *restart* would help, so it looks at nothing that
        legitimately degrades under load (breakers, queue depth).  A service
        that is started and not closing is alive, full stop.
        """
        alive = self.started and not self._closing
        return {
            "alive": alive,
            "started": self.started,
            "closing": self._closing,
        }

    def readiness(self) -> dict[str, object]:
        """Should traffic be routed here right now?  (Routing-decision probe.)

        Everything a load balancer or the sharded tier's orchestrator wants
        before sending a request: admission headroom (queue depth vs.
        capacity), breaker states and the snapshot version answers would
        pin.
        """
        breakers = self._breakers.snapshot()
        open_breakers = sorted(
            name for name, snap in breakers.items() if snap["state"] != "closed"
        )
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        log_stats = self.measurement_log.stats()
        return {
            "ready": self.started and not self._closing,
            "snapshot_version": self._live.version,
            "queue_depth": queue_depth,
            "queue_capacity": self.max_queue,
            "queue_headroom": max(0, self.max_queue - queue_depth),
            "workers": self.workers,
            "breakers_open": open_breakers,
            "degraded_answers": self.stats.degraded_answers,
            "deadline_failures": self.stats.deadline_failures,
            # Write-plane lag: how far the compactor is behind the newest
            # buffered append (age of the oldest un-compacted entry) and how
            # many appends are waiting.  A router can prefer a peer whose
            # answers pin a fresher snapshot.
            "compaction_lag_s": round(float(log_stats["lag_seconds"]), 6),
            "ingest_pending": log_stats["pending"],
            "drift_queue_depth": (
                self.drift.depth() if self.drift is not None else 0
            ),
        }

    def health(self) -> dict[str, object]:
        """Combined liveness + readiness summary for external monitors.

        Kept as the one-call probe (and for compatibility: ``status`` /
        ``started`` / ``breakers_open`` keep their meanings); the split
        :meth:`liveness` / :meth:`readiness` views are what the sharded
        tier reports per shard -- restart decisions and routing decisions
        have different failure bars.
        """
        liveness = self.liveness()
        readiness = self.readiness()
        open_breakers = readiness["breakers_open"]
        if not liveness["alive"]:
            status = "stopped"
        elif open_breakers:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "started": self.started,
            "closing": self._closing,
            "liveness": liveness,
            "readiness": readiness,
            "dataset_version": readiness["snapshot_version"],
            "queue_depth": readiness["queue_depth"],
            "queue_capacity": self.max_queue,
            "workers": self.workers,
            "breakers_open": open_breakers,
            "degraded_answers": self.stats.degraded_answers,
            "deadline_failures": self.stats.deadline_failures,
        }

    def _resilience_stats_snapshot(self) -> dict[str, object]:
        """The ``cache_stats()["resilience"]`` section."""
        stats = self.stats
        resilience = self.resilience
        with self._stats_lock:
            retries = stats.retries
            microbatch_retries = stats.microbatch_retries
        return {
            "deadline_s": resilience.deadline_s,
            "degradation": resilience.degradation,
            "baseline_fallback": resilience.baseline_fallback,
            "retries": retries,
            "degraded_answers": stats.degraded_answers,
            "baseline_answers": stats.baseline_answers,
            "shed_requests": stats.shed_requests,
            "microbatch_retries": microbatch_retries,
            "deadline_failures": stats.deadline_failures,
            "cancelled_failures": stats.cancelled_failures,
            "breakers": self._breakers.snapshot(),
            "faults": self.fault_plan.stats() if self.fault_plan is not None else None,
        }

    def cache_stats(self) -> dict[str, object]:
        """Warm/cold serving statistics plus every cache's hit/miss counters."""
        stats = self.stats
        pipeline = self.pipeline.stats.snapshot()
        return {
            "dataset_version": self._live.version,
            "served": stats.served,
            "failed": stats.failed,
            "ingests": stats.ingests,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "queue_high_water": stats.queue_high_water,
            "cold_requests": stats.cold_requests,
            "warm_requests": stats.warm_requests,
            "mean_cold_ms": round(stats.mean_cold_ms(), 3),
            "mean_warm_ms": round(stats.mean_warm_ms(), 3),
            "prepared_hits": pipeline["prepared_hits"],
            "prepared_misses": pipeline["prepared_misses"],
            "circle_cache": self.pipeline.circle_cache.stats(),
            "pipeline": pipeline,
            "fused": self._fused_stats_snapshot(),
            "resilience": self._resilience_stats_snapshot(),
            "ingest": self._ingest_stats_snapshot(),
        }

    def _ingest_stats_snapshot(self) -> dict[str, object]:
        """The ``cache_stats()["ingest"]`` section: write-plane counters.

        ``invalidations_selective`` counts post-ingest swaps where the delta
        log scoped the eviction (surviving prepared entries were carried
        into the fresh localizer); ``invalidations_full`` counts swaps that
        had to drop everything (delta log window exceeded, or router
        metadata replaced).  The satellite regression tests pin the
        selective path staying selective.
        """
        with self._stats_lock:
            accounting = dict(self._ingest_accounting)
        return {
            **accounting,
            "log": self.measurement_log.stats(),
            "drift": self.drift.stats() if self.drift is not None else None,
        }

    def _fused_stats_snapshot(self) -> dict[str, object]:
        """Fused micro-batch counters, read under the same lock that the
        executor-side dispatches mutate them under (a concurrent width-bucket
        insert would otherwise break the histogram iteration)."""
        stats = self.stats
        with self._stats_lock:
            histogram = dict(sorted(stats.fuse_width_histogram.items()))
            batches = stats.fused_batches
            passes = stats.fused_passes
            rows = stats.fused_rows
        return {
            "engine": self.config.solver.engine,
            "fuse_width": self._fuse_width(),
            "batches": batches,
            "width_histogram": histogram,
            "passes": passes,
            "rows": rows,
            "rows_per_pass": round(rows / passes, 3) if passes else 0.0,
        }
