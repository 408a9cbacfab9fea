"""The sharded tier's worker process: one shard of the localization service.

A worker is a child process running the *existing* single-process engine
stack -- a :class:`~repro.serving.service.LocalizationService` over its own
live dataset, warm :class:`~repro.core.batch.BatchLocalizer` and geometry
caches -- behind the framed pipe protocol (:mod:`repro.serving.protocol`).
Nothing about localization is reimplemented here; the worker is a transport
shell around PR 3-8 machinery, which is what keeps sharded answers
bit-identical to the single-process service.

**Bootstrap.**  The orchestrator ships a picklable :class:`WorkerBootstrap`:
a frozen dataset snapshot (thawed into the worker's live dataset), the
``OctantConfig``/``ResilienceConfig``, the chaos :class:`FaultPlan` (threaded
explicitly so schedules are identical under ``fork`` and ``spawn`` -- a
scoped or installed plan is thread/process state that never crosses the
boundary on ``spawn``), and a replay log of ingests that landed after the
snapshot was cut.

**Versioned serving.**  Every ingest retires the service's previous
:class:`BatchLocalizer` into a small bounded map ``version -> localizer``
instead of dropping it, so a :class:`LocalizeRequest` pinned to a recent
version is answered *at that version* even after the worker has moved on.
This is the cross-process analogue of the service's enqueue-time-snapshot
contract and what lets the orchestrator guarantee one consistent version
vector per dispatch.  A version that is neither current nor retained gets a
``version``-class :class:`ErrorReply` (the orchestrator fails over to a
peer).

**Liveness.**  The worker is single-threaded at the frame loop: heartbeats
are emitted between frames, never from a side thread.  A request that hangs
(e.g. an injected ``hang`` fault) therefore silences the heartbeat stream,
and the supervisor's liveness deadline reaps the process -- a side-thread
heartbeat would have kept a livelocked worker looking healthy forever.
"""

from __future__ import annotations

import os
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..core.config import OctantConfig
from ..network.dataset import IngestRecord, MeasurementDataset
from ..resilience import (
    Deadline,
    FaultPlan,
    ReplyDropped,
    ResilienceConfig,
    ResilienceError,
    classify_error,
    install_fault_plan,
)
from .protocol import (
    ErrorReply,
    HealthReply,
    HealthRequest,
    Heartbeat,
    Hello,
    IngestReply,
    IngestRequest,
    LocalizeReply,
    LocalizeRequest,
    ShutdownReply,
    ShutdownRequest,
    recv_message,
    send_message,
)

__all__ = ["WorkerBootstrap", "worker_main"]


@dataclass(frozen=True)
class WorkerBootstrap:
    """Everything a worker process needs, in one picklable bundle."""

    shard_id: int
    incarnation: int
    #: Frozen dataset snapshot (thawed into the worker's live dataset); a
    #: live dataset is accepted too (used by in-process tests).
    dataset: MeasurementDataset
    config: OctantConfig = field(default_factory=OctantConfig)
    resilience: ResilienceConfig | None = None
    #: Chaos plan, threaded explicitly across the process boundary: installed
    #: process-wide *and* handed to the service, so ``fork`` and ``spawn``
    #: workers run identical schedules (satellite fix -- ``spawn`` children
    #: never inherit the parent's installed plan).
    fault_plan: FaultPlan | None = None
    #: Ingests that landed after :attr:`dataset` was snapshotted, replayed
    #: before the worker reports ready.
    replay: tuple[IngestRecord, ...] = ()
    heartbeat_interval_s: float = 0.1
    #: How many retired (pre-ingest) localizers stay answerable.
    snapshot_retention: int = 4


def worker_main(conn, bootstrap: WorkerBootstrap) -> None:
    """Process entry point: serve frames until shutdown or orchestrator death.

    Importable at module top level so it pickles by reference under the
    ``spawn`` start method.
    """
    # The orchestrator owns ^C handling; a worker interrupted mid-frame
    # would otherwise die with a stack trace during interactive test runs.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    install_fault_plan(bootstrap.fault_plan)
    _WorkerLoop(conn, bootstrap).run()


class _WorkerLoop:
    """The worker's single-threaded frame loop around one service instance."""

    def __init__(self, conn, bootstrap: WorkerBootstrap):
        import asyncio

        from .service import LocalizationService

        self.conn = conn
        self.bootstrap = bootstrap
        dataset = bootstrap.dataset
        self.live = dataset.thaw() if dataset.is_snapshot else dataset
        for record in bootstrap.replay:
            record.apply(self.live)
        self.service = LocalizationService(
            self.live,
            bootstrap.config,
            workers=1,
            resilience=bootstrap.resilience,
            fault_plan=bootstrap.fault_plan,
        )
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        #: Retired localizers still answerable, oldest first.
        self.retained: "OrderedDict[int, object]" = OrderedDict()
        self.dropped_replies = 0
        self._running = True

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        self.loop.run_until_complete(self.service.start())
        send_message(
            self.conn,
            Hello(
                shard_id=self.bootstrap.shard_id,
                pid=os.getpid(),
                incarnation=self.bootstrap.incarnation,
                version=self.live.version,
            ),
        )
        interval = max(0.01, self.bootstrap.heartbeat_interval_s)
        last_beat = 0.0  # first iteration heartbeats immediately
        try:
            while self._running:
                now = time.monotonic()
                if now - last_beat >= interval:
                    self._heartbeat()
                    last_beat = now
                try:
                    message = recv_message(
                        self.conn, timeout=max(0.01, last_beat + interval - now)
                    )
                except (EOFError, OSError):
                    break  # orchestrator is gone; no one to serve
                if message is None:
                    continue
                self._dispatch(message)
        finally:
            self.loop.run_until_complete(self.service.stop())
            self.loop.close()
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _heartbeat(self) -> None:
        breakers = self.service._breakers.snapshot()
        send_message(
            self.conn,
            Heartbeat(
                shard_id=self.bootstrap.shard_id,
                incarnation=self.bootstrap.incarnation,
                version=self.live.version,
                served=self.service.stats.served,
                breakers_open=tuple(
                    sorted(
                        name
                        for name, snap in breakers.items()
                        if snap["state"] != "closed"
                    )
                ),
            ),
        )

    # ------------------------------------------------------------------ #
    # Frame dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, message) -> None:
        handler = {
            LocalizeRequest: self._handle_localize,
            IngestRequest: self._handle_ingest,
            HealthRequest: self._handle_health,
            ShutdownRequest: self._handle_shutdown,
        }.get(type(message))
        if handler is None:  # unsolicited frame kinds are orchestrator->worker
            return
        try:
            handler(message)
        except ReplyDropped:
            self.dropped_replies += 1  # chaos: answer computed, reply dropped
        except Exception as exc:  # noqa: BLE001 - the worker must survive
            request_id = getattr(message, "request_id", None)
            if request_id is not None:
                self._reply(
                    ErrorReply(
                        request_id=request_id,
                        error=f"{type(exc).__name__}: {exc}",
                        error_class=classify_error(exc),
                    )
                )

    def _reply(self, message) -> None:
        """Send one reply frame through the ``reply`` chaos checkpoint.

        A ``drop_reply`` fault raises :class:`ReplyDropped` out of here (the
        caller counts it and sends nothing); any *other* injected error at
        this boundary is meaningless -- the work is already done, only
        delivery remains -- and is ignored so a broad ``*`` error rule does
        not silently halve a worker's reply rate.
        """
        plan = self.bootstrap.fault_plan
        if plan is not None:
            try:
                plan.fire("reply", getattr(message, "request_id", None))
            except ReplyDropped:
                raise
            except ResilienceError:
                pass
        send_message(self.conn, message)

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    def _handle_localize(self, msg: LocalizeRequest) -> None:
        current = self.live.version
        if msg.version is None or msg.version == current:
            estimate = self.loop.run_until_complete(
                self.service.localize(
                    msg.target_id, msg.landmark_pool, deadline_s=msg.deadline_s
                )
            )
            served_version = current
        else:
            localizer = self.retained.get(msg.version)
            if localizer is None:
                self._reply(
                    ErrorReply(
                        request_id=msg.request_id,
                        error=(
                            f"version {msg.version} not retained "
                            f"(current {current}, retained "
                            f"{sorted(self.retained)})"
                        ),
                        error_class="version",
                        details={
                            "current": current,
                            "retained": tuple(sorted(self.retained)),
                        },
                    )
                )
                return
            estimate = self._localize_retained(localizer, msg)
            served_version = msg.version
        self._reply(
            LocalizeReply(
                request_id=msg.request_id, estimate=estimate, version=served_version
            )
        )

    def _localize_retained(self, localizer, msg: LocalizeRequest):
        """Serve a pinned past version through the service's resilience ladder.

        Reuses the service's executor-side request path (`_localize_sync`:
        deadline/token scope, retry + degradation ladder, breaker gating,
        failure capture) against the retired localizer -- the exact code a
        current-version request runs, minus the queue hop it doesn't need.
        """
        from .service import _Request

        request = _Request(
            target_id=msg.target_id,
            landmark_pool=msg.landmark_pool,
            localizer=localizer,
            future=None,
            snapshot_version=msg.version,
            deadline=(
                Deadline.after(msg.deadline_s) if msg.deadline_s is not None else None
            ),
        )
        estimate = self.service._localize_sync(request)
        self.service._record(request, estimate)
        return estimate

    def _handle_ingest(self, msg: IngestRequest) -> None:
        # Retire the current localizer *before* the swap so the version it
        # serves stays answerable (bounded retention, oldest evicted).
        current = self.service._current
        if current is not None:
            self.retained[self.live.version] = current
            while len(self.retained) > max(0, self.bootstrap.snapshot_retention):
                self.retained.popitem(last=False)
        version = self.service._apply_record(msg.record)
        if msg.expect_version is not None and version != msg.expect_version:
            # The replication stream skipped or duplicated a record; this
            # worker's data can no longer be trusted to match its peers.
            self._reply(
                ErrorReply(
                    request_id=msg.request_id,
                    error=(
                        f"ingest version skew: at {version}, "
                        f"expected {msg.expect_version}"
                    ),
                    error_class="fatal",
                )
            )
            return
        self._reply(IngestReply(request_id=msg.request_id, version=version))

    def _handle_health(self, msg: HealthRequest) -> None:
        plan = self.bootstrap.fault_plan
        self._reply(
            HealthReply(
                request_id=msg.request_id,
                shard_id=self.bootstrap.shard_id,
                liveness=self.service.liveness(),
                readiness=self.service.readiness(),
                retained_versions=tuple(sorted(self.retained)) + (self.live.version,),
                faults=plan.stats() if plan is not None else None,
            )
        )

    def _handle_shutdown(self, msg: ShutdownRequest) -> None:
        self._reply(
            ShutdownReply(request_id=msg.request_id, served=self.service.stats.served)
        )
        self._running = False
