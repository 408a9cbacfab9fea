"""Write-optimized measurement log with background compaction.

The read path of the system is built around expensive derived state: the
index-mapped RTT matrices on :class:`~repro.network.dataset.MeasurementDataset`
and the warm caches stacked on top of them.  Extending that state inside every
``ingest()`` call puts matrix work on the writer's critical path and, under a
sharded service, inside the replication lock.

:class:`MeasurementLog` splits the write path in two, the way write-optimized
IP-keyed stores (TWIAD) do:

* **Append** -- producers call :meth:`MeasurementLog.append` (or
  :meth:`append_record`) which takes one short mutex hold to push the frozen
  payload onto a bounded in-memory delta buffer and returns a sequence number.
  No matrix work, no dataset lock, no cache invalidation happens here.
* **Compact** -- a single background thread drains the buffer, coalesces the
  pending payloads into one equivalent :class:`IngestRecord` (last-wins per
  key, min-merge for router samples -- see :meth:`IngestRecord.merge`) and
  hands it to the owner's ``apply_fn``, which runs the ordinary ingest and
  publishes a new copy-on-write snapshot.  One burst of N appends becomes one
  version bump and one invalidation pass.

The log itself is storage-agnostic: ``apply_fn(record) -> version`` is the
only contract, so the single-process service applies locally while the
sharded orchestrator replicates the same merged record to every worker before
acknowledging.  It is also the *only* write path of both serving tiers: a
synchronous ``ingest()`` is :meth:`MeasurementLog.commit` (append, then wait
for its own seq), so writes apply in the order they were issued whichever
entry point issued them.

Durability is explicitly out of scope -- the buffer is process memory, like
the rest of this reproduction's measurement plane.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Mapping
from typing import Any

from .dataset import IngestRecord, NodeRecord
from .probes import PingResult, TracerouteResult

__all__ = ["MeasurementLog"]

#: Failed batches remembered for their producers (see ``MeasurementLog.flush``).
#: A producer that asks about its seq only after this many later batches
#: have also failed finds no record and sees success.
FAILURE_HISTORY = 64


class MeasurementLog:
    """Append-optimized buffer of ingest payloads with a compactor thread.

    Parameters
    ----------
    apply_fn:
        Called from the compactor thread with one merged
        :class:`IngestRecord`; must apply it and return the resulting dataset
        version.  Exceptions are captured, counted, and re-raised to the
        producers whose seqs were in the failed batch (see :meth:`flush`);
        the failed batch is dropped (the measurements exist only in memory,
        so replaying them against a store whose apply path is broken would
        wedge the compactor).
    max_pending:
        Backpressure bound on buffered payloads: :meth:`append` blocks once
        the buffer holds this many un-compacted entries.
    poll_interval_s:
        Compaction cadence: appends accumulate for up to this long (measured
        from the oldest buffered one) before the compactor drains them, so
        sustained streams cost one snapshot rebuild per interval instead of
        one per append.  :meth:`flush` and :meth:`stop` force an immediate
        pass regardless.
    """

    def __init__(
        self,
        apply_fn: Callable[[IngestRecord], int],
        *,
        max_pending: int = 4096,
        poll_interval_s: float = 0.05,
    ) -> None:
        self._apply_fn = apply_fn
        self.max_pending = max(1, max_pending)
        self.poll_interval_s = poll_interval_s
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._wakeup = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._pending: list[IngestRecord] = []
        self._oldest_pending_ts: float | None = None
        self._appended_seq = 0
        self._applied_seq = 0
        self._compactions = 0
        self._coalesced = 0
        self._apply_failures = 0
        #: ``(first_seq, last_seq, error)`` of recent failed batches.
        self._failures: deque[tuple[int, int, BaseException]] = deque(
            maxlen=FAILURE_HISTORY
        )
        #: Seq-less flushes have reported failures up to this seq.
        self._reported_seq = 0
        self._last_version: int | None = None
        self._stopping = False
        self._flush_requested = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def append(
        self,
        hosts: Iterable[NodeRecord] = (),
        pings: Iterable[PingResult] = (),
        traceroutes: Iterable[TracerouteResult] = (),
        routers: Iterable[NodeRecord] = (),
        router_pings: Mapping[tuple[str, str], float] | None = None,
    ) -> int:
        """Freeze one ingest payload into the delta buffer; returns its seq.

        The payload signature mirrors :meth:`MeasurementDataset.ingest`.
        Freezing (tuple construction) happens before the lock; the critical
        section is a list append and a counter bump.  Blocks only when the
        buffer is at ``max_pending`` (backpressure, not lost data).
        """
        return self.append_record(
            IngestRecord.capture(
                hosts=hosts,
                pings=pings,
                traceroutes=traceroutes,
                routers=routers,
                router_pings=router_pings,
            )
        )

    def append_record(self, record: IngestRecord) -> int:
        """Append an already-frozen :class:`IngestRecord`; returns its seq."""
        with self._lock:
            while len(self._pending) >= self.max_pending and not self._stopping:
                self._not_full.wait()
            if self._stopping:
                raise RuntimeError("measurement log is stopped")
            self._pending.append(record)
            if self._oldest_pending_ts is None:
                self._oldest_pending_ts = time.monotonic()
            self._appended_seq += 1
            seq = self._appended_seq
            self._wakeup.notify()
        return seq

    # ------------------------------------------------------------------ #
    # Compactor side
    # ------------------------------------------------------------------ #
    def start(self) -> "MeasurementLog":
        """Start the background compactor thread (idempotent)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stopping = False
            self._thread = threading.Thread(
                target=self._run, name="measurement-log-compactor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, *, drain: bool = True, timeout: float | None = 10.0) -> None:
        """Stop the compactor; by default drains buffered payloads first."""
        if drain:
            try:
                self.flush(timeout=timeout)
            except Exception:
                pass  # surfaced via stats/last_error; stop must still stop
        with self._lock:
            self._stopping = True
            self._wakeup.notify_all()
            self._not_full.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
        with self._lock:
            self._thread = None

    def flush(self, timeout: float | None = None, *, seq: int | None = None) -> int:
        """Block until ``seq`` (default: everything appended so far) is compacted.

        Runs the compaction inline when no compactor thread is alive (so
        tests and synchronous callers can use the log without threads).
        Returns the dataset version of the last applied batch.  Raises
        :class:`RuntimeError` from the apply error when a covered batch
        failed: with ``seq``, exactly when the batch carrying that seq
        failed, however many other producers flushed first; without, when
        any batch appended since the previous seq-less flush failed.
        """
        with self._lock:
            target = self._appended_seq if seq is None else seq
            thread_alive = self._thread is not None and self._thread.is_alive()
            if thread_alive:
                # Skip the remaining batching window: compact now.
                self._flush_requested = True
                self._wakeup.notify_all()
        if not thread_alive:
            while self._compact_once():
                pass
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._applied_seq < target:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"measurement log flush timed out at seq "
                            f"{self._applied_seq}/{target}"
                        )
                self._drained.wait(timeout=remaining)
            # A failed batch overlapping [low, target] is this caller's.
            if seq is None:
                low = self._reported_seq + 1
                self._reported_seq = max(self._reported_seq, target)
            else:
                low = seq
            error = next(
                (
                    exc
                    for first, last, exc in reversed(self._failures)
                    if first <= target and last >= low
                ),
                None,
            )
            if error is not None:
                raise RuntimeError("measurement log apply failed") from error
            return self._last_version if self._last_version is not None else -1

    def commit(self, record: IngestRecord, timeout: float | None = None) -> int:
        """Append ``record`` and block until its batch is applied; the version.

        The synchronous write: it queues behind every earlier append, so it
        never overtakes one.  A failure of its own batch re-raises the apply
        error unwrapped (not :meth:`flush`'s :class:`RuntimeError`); a failed
        batch is dropped, so it did not mutate the store.
        """
        seq = self.append_record(record)
        try:
            return self.flush(timeout, seq=seq)
        except RuntimeError as exc:
            if exc.__cause__ is None:
                raise
            raise exc.__cause__ from None

    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._stopping:
                    self._flush_requested = False  # nothing to skip ahead to
                    self._wakeup.wait(timeout=self.poll_interval_s)
                if self._stopping and not self._pending:
                    return
                # Batching window: let the stream accumulate for up to the
                # poll interval (measured from the oldest buffered append)
                # so one compaction absorbs the whole burst.  A flush or
                # stop cuts the window short.
                while not self._flush_requested and not self._stopping:
                    assert self._oldest_pending_ts is not None
                    remaining = (
                        self._oldest_pending_ts + self.poll_interval_s
                    ) - time.monotonic()
                    if remaining <= 0:
                        break
                    self._wakeup.wait(timeout=remaining)
                self._flush_requested = False
            self._compact_once()

    def _compact_once(self) -> bool:
        """Drain and apply one batch; True when work was done."""
        with self._lock:
            if not self._pending:
                return False
            batch = self._pending
            batch_seq = self._appended_seq
            first_seq = batch_seq - len(batch) + 1
            self._pending = []
            self._oldest_pending_ts = None
            self._not_full.notify_all()
        record = batch[0] if len(batch) == 1 else IngestRecord.merge(batch)
        try:
            version = self._apply_fn(record)
        except BaseException as exc:  # noqa: BLE001 - report via flush/stats
            with self._lock:
                self._apply_failures += 1
                self._failures.append((first_seq, batch_seq, exc))
                self._applied_seq = batch_seq
                self._drained.notify_all()
            return True
        with self._lock:
            self._compactions += 1
            self._coalesced += len(batch) - 1
            self._applied_seq = batch_seq
            self._last_version = version
            self._drained.notify_all()
        return True

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def lag_seconds(self) -> float:
        """Age of the oldest un-compacted append, 0.0 when fully drained."""
        with self._lock:
            if self._oldest_pending_ts is None:
                return 0.0
            return max(0.0, time.monotonic() - self._oldest_pending_ts)

    def stats(self) -> dict[str, Any]:
        """Counters for ``cache_stats()["ingest"]`` and readiness probes."""
        with self._lock:
            return {
                "appended": self._appended_seq,
                "applied": self._applied_seq,
                "pending": len(self._pending),
                "compactions": self._compactions,
                "coalesced": self._coalesced,
                "apply_failures": self._apply_failures,
                "last_version": self._last_version,
                "lag_seconds": (
                    0.0
                    if self._oldest_pending_ts is None
                    else max(0.0, time.monotonic() - self._oldest_pending_ts)
                ),
            }
