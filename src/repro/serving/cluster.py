"""Sharded multi-process serving tier: N workers, one consistent answer.

:class:`ShardedLocalizationService` scales the single-process
:class:`~repro.serving.service.LocalizationService` *up* (same host, more
processes) while surviving the failures one process cannot: a worker that
crashes, is SIGKILLed, hangs, or silently drops replies.  The design in one
paragraph:

**Sharding is for cache warmth, replication is for survival.**  Targets are
consistent-hash-sharded (blake2b ring with virtual nodes) so each worker's
prepared-target and geometry caches stay hot for *its* keys, but every
worker holds the **full** replicated dataset -- ``ingest()`` fans out to all
live workers.  Any peer can therefore answer any key, which is what makes
failover and interim re-sharding (routing a dead worker's range along the
ring to live replicas) answer-preserving rather than answer-losing.

**Version-pinned dispatch.**  The orchestrator commits a dataset version
only after the ingest fan-out is acknowledged, and every dispatch pins the
committed version observed at send time (``localize_many`` pins one version
for the whole batch).  Workers answer pinned requests from a small retained
set of pre-ingest localizers, so a batch that straddles an ingest -- or
fails over mid-flight from a worker that applied the ingest to one that
hasn't -- is still served from a single consistent snapshot lineage, never a
mix.

**Supervision.**  A monitor thread (:class:`~repro.serving.supervisor.
Supervisor`) watches heartbeats and exit codes, SIGKILLs hung workers,
restarts corpses on bounded exponential backoff, and replays the ingests a
rebooted worker missed before it serves again.  Request-path protection is
layered on top: per-shard circuit breakers
(:class:`~repro.resilience.breaker.BreakerBoard`), hedged failover along the
ring, and -- when every worker is unreachable -- a lazily started in-process
service over the orchestrator's own live dataset, reusing the PR 7
degradation ladder.  ``ClusterConfig(supervise=False)`` turns the whole
umbrella off (no restarts, no failover, no fallback): the availability gap
between the two modes is exactly what ``benchmarks/bench_load.py`` measures.

Zero-fault answers are bit-identical to the single-process service: workers
run the unmodified engine stack, and the orchestrator only *annotates*
estimates (``details["cluster"]``), never recomputes them.
"""

from __future__ import annotations

import asyncio
import bisect
import threading
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Iterable, Mapping, Sequence

from ..core.batch import failed_estimate
from ..core.config import OctantConfig
from ..core.estimate import LocationEstimate
from ..network.dataset import IngestRecord, MeasurementDataset
from ..network.log import MeasurementLog
from ..resilience import (
    BreakerBoard,
    Deadline,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
)
from .protocol import (
    ErrorReply,
    HealthRequest,
    IngestRequest,
    LocalizeRequest,
    ShutdownRequest,
)
from .supervisor import Supervisor, WorkerDied, WorkerHandle, WorkerUnavailable
from .worker import WorkerBootstrap, worker_main

__all__ = ["ClusterConfig", "ClusterStats", "ShardedLocalizationService"]

#: Replicated-ingest records kept for catch-up replay; a worker restarting
#: after a longer outage gets a fresh snapshot instead (it always does --
#: respawn snapshots the live dataset -- so the log only serves workers that
#: boot *while* ingests land).
INGEST_LOG_LIMIT = 64


# --------------------------------------------------------------------------- #
# Configuration / stats
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ClusterConfig:
    """Topology and supervision knobs of the sharded tier."""

    #: Worker process count (= shard count).
    shards: int = 2
    #: Virtual nodes per shard on the consistent-hash ring.
    virtual_nodes: int = 64
    #: ``multiprocessing`` start method (``"fork"``/``"spawn"``/``None`` for
    #: the platform default).  The fault plan and all bootstrap state travel
    #: inside :class:`WorkerBootstrap`, so behavior is identical under both.
    start_method: str | None = None
    #: The supervision umbrella: monitor thread, backoff restarts, breaker
    #: gating, ring failover, and the in-process last-resort fallback.
    #: ``False`` strips all of it -- a crashed shard stays down and its
    #: requests fail -- which is the unsupervised baseline the availability
    #: benchmark compares against.
    supervise: bool = True
    #: Worker heartbeat period (sent from the worker's serving loop).
    heartbeat_interval_s: float = 0.1
    #: Heartbeat silence after which a live worker is declared hung.
    liveness_deadline_s: float = 3.0
    #: Budget for a spawned worker to report ready (cold engine warm-up).
    starting_deadline_s: float = 120.0
    #: Supervisor poll period.
    poll_interval_s: float = 0.05
    #: Per-shard attempt budget before failing over to the next replica.
    attempt_timeout_s: float = 10.0
    #: Bounded exponential backoff for worker restarts; ``max_attempts``
    #: consecutive failed restarts abandon the shard to its replicas.
    restart: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=8, base_delay_s=0.05, max_delay_s=2.0, jitter=0.25
        )
    )
    #: A restarted worker live this long resets its backoff budget.
    stable_after_s: float = 5.0
    #: Retired pre-ingest localizers each worker keeps answerable.
    snapshot_retention: int = 4


@dataclass
class ClusterStats:
    """Counters the orchestrator accumulates over its lifetime."""

    served: int = 0
    failed: int = 0
    #: Requests answered by a non-primary shard (any failover hop taken).
    failovers: int = 0
    #: Failover hops caused by a peer not retaining the pinned version.
    version_misses: int = 0
    #: Requests answered by the in-process last-resort service.
    local_fallbacks: int = 0
    ingests: int = 0


# --------------------------------------------------------------------------- #
# Consistent-hash ring
# --------------------------------------------------------------------------- #
def _hash64(text: str) -> int:
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


class _HashRing:
    """blake2b consistent-hash ring; route = distinct shards in ring order."""

    def __init__(self, shards: int, virtual_nodes: int):
        self.shards = shards
        points = []
        for shard in range(shards):
            for vnode in range(virtual_nodes):
                points.append((_hash64(f"shard:{shard}:vnode:{vnode}"), shard))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    def route(self, key: str) -> tuple[int, ...]:
        """All shards, primary first, in ring-successor (failover) order."""
        index = bisect.bisect_right(self._keys, _hash64(key))
        order: list[int] = []
        seen: set[int] = set()
        count = len(self._points)
        for step in range(count):
            shard = self._points[(index + step) % count][1]
            if shard not in seen:
                seen.add(shard)
                order.append(shard)
                if len(order) == self.shards:
                    break
        return tuple(order)


# --------------------------------------------------------------------------- #
# Orchestrator
# --------------------------------------------------------------------------- #
class ShardedLocalizationService:
    """Consistent-hash-sharded, crash-surviving front-end over worker processes.

    Usage mirrors :class:`LocalizationService`::

        cluster = ShardedLocalizationService(dataset, config,
                                             cluster=ClusterConfig(shards=2))
        async with cluster:
            estimate = await cluster.localize("host-sea")
            await cluster.ingest(hosts=[record], pings=new_pings)
            print(cluster.health()["shards"])
    """

    def __init__(
        self,
        dataset: MeasurementDataset,
        config: OctantConfig | None = None,
        *,
        cluster: ClusterConfig | None = None,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if dataset.is_snapshot:
            raise ValueError("serve the live dataset, not a snapshot")
        self.cluster = cluster or ClusterConfig()
        if self.cluster.shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self._live = dataset
        self.config = config or OctantConfig()
        self.resilience = (
            resilience if resilience is not None else self.config.resilience
        )
        self.fault_plan = fault_plan
        self.stats = ClusterStats()
        self._ring = _HashRing(self.cluster.shards, self.cluster.virtual_nodes)
        self._handles = [WorkerHandle(shard) for shard in range(self.cluster.shards)]
        self._supervisor: Supervisor | None = None
        self._ctx = None
        self.started = False
        self._closing = False
        #: Version the whole cluster is known to serve; bumped only after an
        #: ingest fan-out is acknowledged.  Dispatches pin this.
        self._committed_version = dataset.version
        #: ``(version, record)`` tail of replicated ingests, for catch-up.
        self._ingest_log: list[tuple[int, IngestRecord]] = []
        #: Serializes membership-sensitive transitions: ingest recipient
        #: selection + log append vs. a syncing worker's final live flip.
        self._membership_lock = threading.Lock()
        #: Guards the live dataset against ingest-apply vs. restart-snapshot
        #: races (the supervisor thread snapshots it for bootstraps).
        self._dataset_lock = threading.Lock()
        self._local_gate: asyncio.Lock | None = None
        self._local = None  # lazily started in-process LocalizationService
        #: Orchestrator-side per-shard circuit breakers (``shard:N``).
        self._breakers = BreakerBoard(self.resilience.breaker)
        #: The replicated write path: every ingest, synchronous or not,
        #: rides this log's delta buffer; the background compactor coalesces
        #: a burst into one merged record and replicates it as a single
        #: fan-out frame (one version bump cluster-wide per compaction),
        #: advancing ``committed_version`` only after every live recipient
        #: acknowledged.
        self.measurement_log = MeasurementLog(self._replicate_record)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "ShardedLocalizationService":
        if self.started:
            return self
        import multiprocessing

        self._ctx = multiprocessing.get_context(self.cluster.start_method)
        self._local_gate = asyncio.Lock()
        for handle in self._handles:
            process, conn = self._spawn_worker(handle.shard_id, incarnation=1)
            handle.attach(process, conn, incarnation=1)
        if self.cluster.supervise:
            self._supervisor = Supervisor(
                self._handles,
                spawn_worker=self._spawn_worker,
                sync_worker=self._sync_worker,
                restart_policy=self.cluster.restart,
                liveness_deadline_s=self.cluster.liveness_deadline_s,
                starting_deadline_s=self.cluster.starting_deadline_s,
                stable_after_s=self.cluster.stable_after_s,
                poll_interval_s=self.cluster.poll_interval_s,
            )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._await_ready)
        if self._supervisor is not None:
            self._supervisor.start()
        self.measurement_log.start()
        self.started = True
        return self

    def _await_ready(self) -> None:
        """Block until every first-incarnation worker is live (or dead)."""
        deadline = time.monotonic() + self.cluster.starting_deadline_s
        for handle in self._handles:
            handle.ready.wait(max(0.0, deadline - time.monotonic()))
            if handle.state == "syncing":
                try:
                    self._sync_worker(handle)
                except Exception as exc:
                    handle.mark_dead(f"catch-up failed: {exc}")
                    handle.kill(join_timeout=2.0)
        live = [h.shard_id for h in self._handles if h.state == "live"]
        if not live:
            reasons = {h.shard_id: h.death_reason or h.state for h in self._handles}
            raise RuntimeError(f"no worker became ready: {reasons}")

    async def stop(self) -> None:
        if not self.started and self._ctx is None:
            return
        self._closing = True
        loop = asyncio.get_running_loop()
        # Drain buffered appends (each compaction replicates and awaits
        # acks) before tearing down the workers they replicate to.
        await loop.run_in_executor(None, self.measurement_log.stop)
        if self._supervisor is not None:
            self._supervisor.stop()
        for handle in self._handles:
            try:
                _, future = handle.call(
                    lambda rid: ShutdownRequest(request_id=rid),
                    states=("live", "syncing", "starting"),
                )
                await asyncio.wait_for(asyncio.wrap_future(future), timeout=5.0)
            except Exception:  # noqa: BLE001 - shutdown is best-effort
                pass
            handle.mark_stopped()
            await loop.run_in_executor(None, handle.kill)
            conn = handle.conn
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        if self._local is not None:
            await self._local.stop()
        self.started = False

    async def __aenter__(self) -> "ShardedLocalizationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _ensure_started(self) -> None:
        if not self.started or self._closing:
            raise RuntimeError("cluster is not accepting requests")

    # ------------------------------------------------------------------ #
    # Worker lifecycle plumbing (called from the supervisor thread too)
    # ------------------------------------------------------------------ #
    def _spawn_worker(self, shard_id: int, incarnation: int):
        """Start one worker process; returns ``(process, parent_conn)``."""
        with self._dataset_lock:
            snapshot = self._live.snapshot()
        bootstrap = WorkerBootstrap(
            shard_id=shard_id,
            incarnation=incarnation,
            dataset=snapshot,
            config=self.config,
            resilience=self.resilience,
            fault_plan=self.fault_plan,
            heartbeat_interval_s=self.cluster.heartbeat_interval_s,
            snapshot_retention=self.cluster.snapshot_retention,
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, bootstrap),
            name=f"octant-shard{shard_id}-i{incarnation}",
            daemon=True,
        )
        process.start()
        # The parent must drop its copy of the child end, or worker death
        # would never surface as pipe EOF.
        child_conn.close()
        return process, parent_conn

    def _sync_worker(self, handle: WorkerHandle) -> None:
        """Replay the ingests a booting worker missed, then flip it live.

        Runs on the supervisor thread (or the start path); reply futures are
        resolved by the handle's reader thread, so blocking waits here do
        not self-deadlock.  The final ``syncing -> live`` flip happens under
        the membership lock, atomically with respect to ingest recipient
        selection: a worker is either caught up and sees every subsequent
        fan-out, or still syncing and will replay it -- never neither.
        """
        hello = handle.hello
        if hello is None:
            return
        worker_version = hello.version
        while True:
            with self._membership_lock:
                missing = [
                    entry for entry in self._ingest_log if entry[0] > worker_version
                ]
                if not missing:
                    if worker_version != self._committed_version:
                        raise RuntimeError(
                            f"ingest log gap: worker at {worker_version}, "
                            f"cluster committed {self._committed_version}"
                        )
                    if not handle.mark_live():
                        return  # died (or stopped) while we were syncing
                    return
                if missing[0][0] != worker_version + 1:
                    raise RuntimeError(
                        f"ingest log gap: worker at {worker_version}, "
                        f"log starts at {missing[0][0]}"
                    )
            for version, record in missing:
                _, future = handle.call(
                    lambda rid, r=record, v=version: IngestRequest(
                        request_id=rid, record=r, expect_version=v
                    ),
                    states=("syncing",),
                )
                reply = future.result(timeout=self.cluster.attempt_timeout_s)
                if isinstance(reply, ErrorReply):
                    raise RuntimeError(f"catch-up ingest failed: {reply.error}")
                worker_version = reply.version

    def kill_worker(self, shard_id: int) -> int | None:
        """SIGKILL a shard's worker process (chaos hook for tests/benchmarks).

        Deliberately does *not* mark the handle dead -- detecting the corpse
        is the supervisor's job, which is the thing under test.
        """
        handle = self._handles[shard_id]
        process = handle.process
        if process is None or not process.is_alive():
            return None
        pid = process.pid
        process.kill()
        return pid

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def shard_for(self, target_id: str) -> int:
        """The primary shard a target routes to."""
        return self._ring.route(target_id)[0]

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    async def localize(
        self,
        target_id: str,
        landmark_pool: Sequence[str] | None = None,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> LocationEstimate:
        """Route one localization to its shard, failing over along the ring.

        Same contract as :meth:`LocalizationService.localize`: every request
        gets an estimate (possibly a recorded failure), ``timeout`` bounds
        the caller's wait, ``deadline_s`` bounds the work.  The answer is
        pinned to the cluster-committed dataset version observed here, no
        matter which replica (or fallback) ends up serving it.
        """
        self._ensure_started()
        coroutine = self._localize(
            target_id,
            tuple(landmark_pool) if landmark_pool is not None else None,
            deadline_s,
            self._committed_version,
        )
        if timeout is not None:
            return await asyncio.wait_for(coroutine, timeout)
        return await coroutine

    async def localize_many(
        self, target_ids: Iterable[str]
    ) -> dict[str, LocationEstimate]:
        """Localize several targets concurrently at ONE committed version.

        The version vector is captured once, before any dispatch: even if a
        replicated ``ingest()`` commits mid-batch, every answer -- including
        failover and retained-snapshot answers -- comes from the same
        dataset lineage point.
        """
        self._ensure_started()
        targets = list(target_ids)
        version = self._committed_version
        estimates = await asyncio.gather(
            *(self._localize(t, None, None, version) for t in targets)
        )
        return dict(zip(targets, estimates))

    async def _localize(
        self,
        target_id: str,
        landmark_pool: tuple[str, ...] | None,
        deadline_s: float | None,
        pinned_version: int,
    ) -> LocationEstimate:
        if deadline_s is None:
            deadline_s = self.resilience.deadline_s
        deadline = Deadline.after(deadline_s) if deadline_s is not None else None
        supervise = self.cluster.supervise
        order = self._ring.route(target_id)
        if not supervise:
            order = order[:1]  # no failover: the primary or nothing
        attempts: list[dict[str, Any]] = []
        last_error: BaseException | None = None
        for shard in order:
            handle = self._handles[shard]
            breaker = (
                self._breakers.get(f"shard:{shard}") if supervise else None
            )
            if breaker is not None and not breaker.allow():
                attempts.append({"shard": shard, "outcome": "breaker-open"})
                continue
            remaining = deadline.remaining() if deadline is not None else None
            if remaining is not None and remaining <= 0:
                last_error = TimeoutError(
                    f"deadline expired after {len(attempts)} attempt(s)"
                )
                break
            try:
                request_id, future = handle.call(
                    lambda rid: LocalizeRequest(
                        request_id=rid,
                        target_id=target_id,
                        landmark_pool=landmark_pool,
                        version=pinned_version,
                        deadline_s=remaining,
                    )
                )
            except WorkerUnavailable as exc:
                attempts.append({"shard": shard, "outcome": "unavailable"})
                last_error = exc
                continue
            # The worker enforces `remaining` itself (degrading if needed);
            # the orchestrator-side attempt budget is slightly larger so a
            # deadline is answered by the worker's ladder, while pure
            # silence (hang, dropped reply, corpse) still fails over.
            attempt_timeout = self.cluster.attempt_timeout_s
            if remaining is not None:
                attempt_timeout = min(attempt_timeout, remaining + 0.5)
            try:
                reply = await asyncio.wait_for(
                    asyncio.wrap_future(future), attempt_timeout
                )
            except asyncio.TimeoutError:
                handle.discard(request_id)
                if breaker is not None:
                    breaker.record_failure()
                attempts.append({"shard": shard, "outcome": "timeout"})
                last_error = TimeoutError(f"shard {shard} attempt timed out")
                continue
            except (WorkerDied, WorkerUnavailable) as exc:
                attempts.append({"shard": shard, "outcome": "died"})
                last_error = exc
                continue
            if isinstance(reply, ErrorReply):
                if reply.error_class == "version":
                    self.stats.version_misses += 1
                    attempts.append({"shard": shard, "outcome": "version-miss"})
                else:
                    if breaker is not None:
                        breaker.record_failure()
                    attempts.append(
                        {"shard": shard, "outcome": f"error:{reply.error_class}"}
                    )
                last_error = RuntimeError(reply.error)
                continue
            if breaker is not None:
                breaker.record_success()
            return self._finish(reply.estimate, shard, reply.version,
                                pinned_version, attempts)
        if supervise:
            return await self._local_fallback(
                target_id, landmark_pool, deadline, pinned_version, attempts
            )
        self.stats.failed += 1
        estimate = failed_estimate(
            target_id,
            "cluster",
            last_error if last_error is not None else "no live shard",
            error_type=type(last_error).__name__ if last_error else "unavailable",
        )
        estimate.details["cluster"] = {
            "shard": None,
            "pinned_version": pinned_version,
            "attempts": attempts,
        }
        return estimate

    def _finish(
        self,
        estimate: LocationEstimate,
        shard: int,
        version: int,
        pinned_version: int,
        attempts: list[dict[str, Any]],
    ) -> LocationEstimate:
        info: dict[str, Any] = {
            "shard": shard,
            "version": version,
            "pinned_version": pinned_version,
        }
        if attempts:
            info["attempts"] = attempts
            self.stats.failovers += 1
        estimate.details["cluster"] = info
        self.stats.served += 1
        return estimate

    async def _local_fallback(
        self,
        target_id: str,
        landmark_pool: tuple[str, ...] | None,
        deadline: Deadline | None,
        pinned_version: int,
        attempts: list[dict[str, Any]],
    ) -> LocationEstimate:
        """Last resort: answer in-process when every worker is unreachable.

        Reuses the single-process service (and through it the whole PR 7
        degradation ladder) over the orchestrator's live dataset.  Serves
        the *current* dataset version -- during a total worker outage,
        availability outranks version pinning; the answer is annotated so
        callers can tell.
        """
        self.stats.local_fallbacks += 1
        loop = asyncio.get_running_loop()
        async with self._local_gate:
            if self._local is None:
                from .service import LocalizationService

                service = LocalizationService(
                    self._live,
                    self.config,
                    workers=1,
                    resilience=self.resilience,
                )
                await service.start()
                self._local = service
            service = self._local
            current = service._current
            if current is None or current.octant.dataset.version != self._live.version:
                # Cluster ingests bypass the fallback service; refresh its
                # snapshot before serving from it.
                await loop.run_in_executor(None, self._refresh_local)
        remaining = None
        if deadline is not None:
            remaining = max(0.05, deadline.remaining())
        estimate = await service.localize(
            target_id, landmark_pool, deadline_s=remaining
        )
        estimate.details["cluster"] = {
            "shard": None,
            "fallback": "local",
            "version": self._live.version,
            "pinned_version": pinned_version,
            "attempts": attempts,
        }
        self.stats.served += 1
        return estimate

    def _refresh_local(self) -> None:
        with self._dataset_lock:
            self._local._current = self._local._build_localizer()

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    async def ingest(
        self,
        hosts: Iterable = (),
        pings: Iterable = (),
        traceroutes: Iterable = (),
        routers: Iterable = (),
        router_pings: Mapping[tuple[str, str], float] | None = None,
    ) -> frozenset[str]:
        """Replicated ingest: append to the write log, await its commit.

        The record queues behind every earlier :meth:`ingest_nowait` append
        and commits through :meth:`_replicate_record` like them, so writes
        apply in the order they were issued.  Returns the touched host ids.
        """
        self._ensure_started()
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
        pings: Iterable = (),
        traceroutes: Iterable = (),
        routers: Iterable = (),
        router_pings: Mapping[tuple[str, str], float] | None = None,
    ) -> int:
        """Append measurements to the replicated write log; returns their seq.

        The caller never blocks on matrix extension or worker round trips:
        the payload lands in the measurement log's buffer and the compactor
        replicates a merged record in the background; use
        :meth:`flush_ingest` to barrier.
        """
        self._ensure_started()
        return self.measurement_log.append(
            hosts=hosts,
            pings=pings,
            traceroutes=traceroutes,
            routers=routers,
            router_pings=router_pings,
        )

    async def flush_ingest(self, timeout: float | None = 30.0) -> int:
        """Await compaction+replication of everything appended so far."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, lambda: self.measurement_log.flush(timeout=timeout)
        )

    def _replicate_record(self, record: IngestRecord) -> int:
        """The cluster's one write: commit one merged record, fan out, ack.

        Runs on the measurement log's compactor thread.  Apply, log append
        and sends happen under the membership lock so a worker finishing its
        catch-up concurrently either receives this fan-out (it flipped live
        first) or replays it from the log (the append landed first) --
        never misses it.  The cluster-committed version advances only after
        every recipient acknowledged; a recipient that fails to ack is
        declared dead (supervision restarts it from a post-ingest
        snapshot), never left silently stale.  Requests dispatched while the
        fan-out is in flight keep pinning the previous committed version,
        which every worker still retains -- so no batch observes a
        half-replicated ingest.
        """
        with self._membership_lock:
            with self._dataset_lock:
                record.apply(self._live)
                version = self._live.version
            self._ingest_log.append((version, record))
            del self._ingest_log[:-INGEST_LOG_LIMIT]
            sends = []
            for handle in self._handles:
                try:
                    request_id, future = handle.call(
                        lambda rid: IngestRequest(
                            request_id=rid, record=record, expect_version=version
                        )
                    )
                except WorkerUnavailable:
                    continue  # dead/starting/syncing: log or snapshot covers it
                sends.append((handle, request_id, future))
        for handle, request_id, future in sends:
            try:
                reply = future.result(timeout=self.cluster.attempt_timeout_s)
            except TimeoutError:
                handle.discard(request_id)
                handle.mark_dead("ingest ack timeout")
                handle.kill(join_timeout=2.0)
                continue
            except (WorkerDied, WorkerUnavailable):
                continue  # already marked dead; restart re-snapshots
            if isinstance(reply, ErrorReply):
                handle.mark_dead(f"ingest rejected: {reply.error}")
                handle.kill(join_timeout=2.0)
        self._committed_version = version
        self.stats.ingests += 1
        return version

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def committed_version(self) -> int:
        return self._committed_version

    def health(self) -> dict[str, object]:
        """Cluster liveness/readiness: one summary row per shard.

        Cheap -- built from supervision state and the latest heartbeats, no
        worker round trips (see :meth:`health_detail` for those).
        """
        breaker_snaps = self._breakers.snapshot()
        shards: dict[str, dict[str, object]] = {}
        live = 0
        for handle in self._handles:
            if handle.state == "live":
                live += 1
            beat = handle.heartbeat
            age = handle.heartbeat_age()
            shards[str(handle.shard_id)] = {
                "state": handle.state,
                "pid": handle.pid,
                "incarnation": handle.incarnation,
                "restarts": handle.restarts,
                "death_reason": handle.death_reason,
                "heartbeat_age_s": None if age is None else round(age, 3),
                "version": (
                    beat.version
                    if beat is not None
                    else (handle.hello.version if handle.hello else None)
                ),
                "served": beat.served if beat is not None else 0,
                "worker_breakers_open": (
                    list(beat.breakers_open) if beat is not None else []
                ),
                "breaker": breaker_snaps.get(
                    f"shard:{handle.shard_id}", {"state": "closed"}
                ),
            }
        open_breakers = sorted(
            name for name, snap in breaker_snaps.items() if snap["state"] != "closed"
        )
        if not self.started or self._closing:
            status = "stopped"
        elif live == 0:
            status = "unavailable"
        elif live == len(self._handles) and not open_breakers:
            status = "ok"
        else:
            status = "degraded"
        supervisor = self._supervisor
        log_stats = self.measurement_log.stats()
        return {
            "status": status,
            "started": self.started,
            "supervised": self.cluster.supervise,
            "committed_version": self._committed_version,
            # Replicated write-plane backlog: appends not yet compacted into
            # a committed version, and the age of the oldest one.
            "ingest_pending": log_stats["pending"],
            "compaction_lag_s": round(float(log_stats["lag_seconds"]), 6),
            "ingest_log": log_stats,
            "live_shards": live,
            "shards": shards,
            "breakers_open": open_breakers,
            "restarts_total": supervisor.restarts_total if supervisor else 0,
            "abandoned_shards": sorted(supervisor.gave_up) if supervisor else [],
            "local_fallbacks": self.stats.local_fallbacks,
        }

    async def health_detail(self) -> dict[int, dict[str, object]]:
        """Deep per-shard probe: each worker's own liveness + readiness split.

        Unlike :meth:`health` this does a round trip per live shard,
        returning the worker-side
        :meth:`~repro.serving.service.LocalizationService.liveness` /
        :meth:`~repro.serving.service.LocalizationService.readiness` splits,
        retained versions and fault-injection counters.
        """
        self._ensure_started()
        out: dict[int, dict[str, object]] = {}
        for handle in self._handles:
            try:
                request_id, future = handle.call(
                    lambda rid: HealthRequest(request_id=rid)
                )
                reply = await asyncio.wait_for(
                    asyncio.wrap_future(future),
                    timeout=self.cluster.attempt_timeout_s,
                )
            except Exception as exc:  # noqa: BLE001 - report, don't raise
                out[handle.shard_id] = {
                    "state": handle.state,
                    "error": f"{type(exc).__name__}: {exc}",
                }
                continue
            if isinstance(reply, ErrorReply):
                out[handle.shard_id] = {"state": handle.state, "error": reply.error}
                continue
            out[handle.shard_id] = {
                "state": handle.state,
                "liveness": reply.liveness,
                "readiness": reply.readiness,
                "retained_versions": list(reply.retained_versions),
                "faults": reply.faults,
            }
        return out
