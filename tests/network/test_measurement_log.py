"""MeasurementLog: append/compact semantics, coalescing, failure surfacing."""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.network import IngestRecord, MeasurementDataset, MeasurementLog, collect_dataset
from repro.network.planetlab import small_deployment


@pytest.fixture(scope="module")
def deployment():
    return small_deployment(host_count=8, seed=13)


def fresh_dataset(deployment):
    return collect_dataset(deployment)


def perturbed(ping, shift_ms):
    return dataclasses.replace(ping, rtts_ms=tuple(r + shift_ms for r in ping.rtts_ms))


class TestInlineCompaction:
    """flush() without a compactor thread runs the compaction inline."""

    def test_burst_coalesces_into_one_version_bump(self, deployment):
        live = fresh_dataset(deployment)
        log = MeasurementLog(lambda record: (record.apply(live), live.version)[1])
        keys = sorted(live.pings)[:6]
        for key in keys:
            log.append(pings=[perturbed(live.pings[key], -0.5)])
        assert live.version == 0  # nothing applied yet: append is write-only
        version = log.flush()
        assert version == 1 and live.version == 1
        stats = log.stats()
        assert stats["compactions"] == 1
        assert stats["coalesced"] == len(keys) - 1
        assert stats["appended"] == stats["applied"] == len(keys)

    def test_final_state_matches_sequential_ingests(self, deployment):
        buffered = fresh_dataset(deployment)
        sequential = fresh_dataset(deployment)
        log = MeasurementLog(lambda r: (r.apply(buffered), buffered.version)[1])
        payloads = [
            [perturbed(sequential.pings[key], -0.5)]
            for key in sorted(sequential.pings)[:4]
        ]
        for pings in payloads:
            log.append(pings=pings)
            sequential.ingest(pings=pings)
        log.flush()
        assert buffered.pings == sequential.pings
        matrix_a = buffered.pairwise_min_rtt_matrix()[1]
        matrix_b = sequential.pairwise_min_rtt_matrix()[1]
        assert np.array_equal(matrix_a, matrix_b, equal_nan=True)

    def test_append_record_accepts_prefrozen_records(self, deployment):
        live = fresh_dataset(deployment)
        log = MeasurementLog(lambda r: (r.apply(live), live.version)[1])
        key = sorted(live.pings)[0]
        record = IngestRecord.capture(pings=[perturbed(live.pings[key], -1.0)])
        seq = log.append_record(record)
        assert seq == 1
        assert log.flush() == 1

    def test_apply_failure_surfaces_at_flush(self):
        def broken(record):
            raise RuntimeError("apply path down")

        log = MeasurementLog(broken)
        log.append(pings=())
        with pytest.raises(RuntimeError, match="apply failed"):
            log.flush()
        assert log.stats()["apply_failures"] == 1
        # The failure is consumed: a later flush with nothing pending
        # succeeds (sentinel version, no batch ever applied).
        assert log.flush() == -1

    def test_commit_raises_its_own_batch_error_unwrapped(self):
        def broken(record):
            raise ValueError("bad batch")

        log = MeasurementLog(broken)
        with pytest.raises(ValueError, match="bad batch"):
            log.commit(IngestRecord.capture())

    def test_flush_on_empty_log_returns_sentinel(self):
        log = MeasurementLog(lambda r: 0)
        assert log.flush() == -1


class TestBackgroundCompactor:
    def test_threaded_drain(self, deployment):
        live = fresh_dataset(deployment)
        applied = threading.Event()

        def apply(record):
            version = (record.apply(live), live.version)[1]
            applied.set()
            return version

        log = MeasurementLog(apply).start()
        try:
            key = sorted(live.pings)[0]
            log.append(pings=[perturbed(live.pings[key], -0.5)])
            log.flush(timeout=10.0)
            assert applied.is_set()
            assert live.version >= 1
        finally:
            log.stop()

    def test_stop_drains_pending_appends(self, deployment):
        live = fresh_dataset(deployment)
        log = MeasurementLog(lambda r: (r.apply(live), live.version)[1]).start()
        for key in sorted(live.pings)[:3]:
            log.append(pings=[perturbed(live.pings[key], -0.5)])
        log.stop()
        assert log.stats()["pending"] == 0
        assert live.version >= 1

    def test_failure_goes_to_the_producer_of_the_failed_batch(self):
        """A's batch fails; B's later flush succeeds; A's flush gets A's error."""
        calls = []

        def apply(record):
            calls.append(record)
            if len(calls) == 1:
                raise ValueError("batch A failed")
            return len(calls)

        log = MeasurementLog(apply, poll_interval_s=0.01).start()
        try:
            seq_a = log.append(pings=())
            deadline = time.monotonic() + 10.0
            while log.stats()["apply_failures"] == 0:
                assert time.monotonic() < deadline, "A's batch never compacted"
                time.sleep(0.005)
            seq_b = log.append(pings=())
            assert log.flush(timeout=10.0, seq=seq_b) == 2
            with pytest.raises(RuntimeError, match="apply failed") as failure:
                log.flush(timeout=10.0, seq=seq_a)
            assert isinstance(failure.value.__cause__, ValueError)
            # B's success did not consume A's failure, and vice versa.
            assert log.flush(timeout=10.0, seq=seq_b) == 2
        finally:
            log.stop()

    def test_append_after_stop_is_rejected(self):
        log = MeasurementLog(lambda r: 0).start()
        log.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            log.append(pings=())

    def test_lag_reports_oldest_pending_age(self):
        log = MeasurementLog(lambda r: 0)  # never compacted (no thread)
        assert log.lag_seconds() == 0.0
        log.append(pings=())
        assert log.lag_seconds() >= 0.0
        assert log.stats()["pending"] == 1
