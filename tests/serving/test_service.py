"""The asyncio localization service: correctness, snapshots, caches, errors.

Serving must be an *online view* of the exact offline machinery: every
estimate equals what a direct :class:`BatchLocalizer` over the same data
produces, snapshots isolate in-flight requests from ingests, and the warm
path is pure cache reuse (bit-identical answers, observable hit counters).
"""

from __future__ import annotations

import asyncio

import pytest

from repro import BatchLocalizer, LocalizationService, Octant, collect_dataset
from repro.network.planetlab import small_deployment
from repro.network.probes import PingResult


@pytest.fixture(scope="module")
def deployment():
    return small_deployment(host_count=9, seed=11)


@pytest.fixture(scope="module")
def full_dataset(deployment):
    return collect_dataset(deployment)


@pytest.fixture()
def live_dataset(deployment):
    """A fresh 8-host live dataset (the ninth host arrives via ingest)."""
    return collect_dataset(deployment, host_ids=sorted(deployment.host_ids)[:8])


def ninth_host_payload(deployment, full_dataset):
    ids = sorted(deployment.host_ids)
    new_id, kept = ids[8], set(ids[:8])
    pings = [
        p
        for (s, d), p in sorted(full_dataset.pings.items())
        if new_id in (s, d) and (s in kept or d in kept)
    ]
    return full_dataset.hosts[new_id], pings


def signature(estimate):
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
    )


def run(coro):
    return asyncio.run(coro)


class TestServiceAnswers:
    def test_matches_direct_batch_localizer(self, live_dataset):
        targets = live_dataset.host_ids[:3]
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))

        async def main():
            async with LocalizationService(live_dataset, workers=2) as service:
                return await service.localize_many(targets)

        served = run(main())
        for target in targets:
            assert signature(served[target]) == signature(
                reference.localize_one(target)
            )

    def test_repeated_target_is_bit_identical_and_warm(self, live_dataset):
        target = live_dataset.host_ids[0]

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                cold = await service.localize(target)
                warm = await service.localize(target)
                return cold, warm, service.cache_stats()

        cold, warm, stats = run(main())
        assert signature(cold) == signature(warm)
        assert stats["cold_requests"] == 1
        assert stats["warm_requests"] == 1
        assert stats["prepared_hits"] == 1
        assert stats["pipeline"]["planar_memo_hits"] == 1

    def test_unknown_target_returns_failed_estimate(self, live_dataset):
        async def main():
            async with LocalizationService(live_dataset) as service:
                return await service.localize("host-does-not-exist")

        estimate = run(main())
        assert estimate.point is None
        assert "error" in estimate.details
        assert estimate.details["error_type"] == "KeyError"

    def test_not_started_raises(self, live_dataset):
        service = LocalizationService(live_dataset)
        with pytest.raises(RuntimeError):
            run(service.localize("host-x"))

    def test_rejects_snapshot_dataset(self, live_dataset):
        with pytest.raises(ValueError):
            LocalizationService(live_dataset.snapshot())


class TestServiceIngest:
    def test_last_issued_write_wins_across_entry_points(self, live_dataset):
        """ingest() queues behind an earlier ingest_nowait() on the same pair."""
        a, b = live_dataset.host_ids[:2]

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, ingest_poll_interval_s=5.0
            ) as service:
                service.ingest_nowait(pings=[PingResult(src=a, dst=b, rtts_ms=(10.0,))])
                await service.ingest(pings=[PingResult(src=a, dst=b, rtts_ms=(20.0,))])
                await service.flush_ingest()

        run(main())
        assert live_dataset.pings[(a, b)].rtts_ms == (20.0,)

    def test_ingested_host_becomes_servable(
        self, deployment, full_dataset, live_dataset
    ):
        record, pings = ninth_host_payload(deployment, full_dataset)

        async def main():
            async with LocalizationService(live_dataset, workers=2) as service:
                missing = await service.localize(record.node_id)
                touched = await service.ingest(hosts=[record], pings=pings)
                found = await service.localize(record.node_id)
                return missing, touched, found, service.cache_stats()

        missing, touched, found, stats = run(main())
        assert missing.point is None  # not in the pre-ingest snapshot
        assert record.node_id in touched
        assert found.point is not None
        assert stats["ingests"] == 1
        assert stats["dataset_version"] == 1

    def test_requests_before_ingest_see_old_snapshot(
        self, deployment, full_dataset, live_dataset
    ):
        """Answers must come from the snapshot current at enqueue time."""
        record, pings = ninth_host_payload(deployment, full_dataset)
        target = live_dataset.host_ids[0]
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))
        want_old = signature(reference.localize_one(target))

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                # Enqueue first, ingest immediately after: the request holds
                # its enqueue-time localizer even if it runs post-ingest.
                # ensure_future only *schedules* the coroutine; yield to the
                # loop until it has actually captured its snapshot, otherwise
                # ingest's executor thread can race the capture and the
                # request legitimately binds to the new snapshot.
                pending = asyncio.ensure_future(service.localize(target))
                await asyncio.sleep(0)
                await service.ingest(hosts=[record], pings=pings)
                old_answer = await pending
                new_answer = await service.localize(target)
                return old_answer, new_answer

        old_answer, new_answer = run(main())
        assert signature(old_answer) == want_old
        # Post-ingest the landmark pool grew, so the answer may differ; it
        # must at least still resolve.
        assert new_answer.point is not None

    def test_circle_cache_survives_ingest(
        self, deployment, full_dataset, live_dataset
    ):
        record, pings = ninth_host_payload(deployment, full_dataset)
        target = live_dataset.host_ids[0]

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                await service.localize(target)
                before = service.cache_stats()["circle_cache"]["planar_entries"]
                await service.ingest(hosts=[record], pings=pings)
                await service.localize(target)
                after = service.cache_stats()["circle_cache"]
                return before, after

        before, after = run(main())
        assert before > 0
        # Entries were carried across the ingest and produced hits.
        assert after["planar_entries"] >= before
        assert after["planar_hits"] > 0

    def test_request_on_a_retired_snapshot_is_counted(
        self, deployment, full_dataset, live_dataset
    ):
        """Every snapshot counts into the service's one pipeline."""
        record, pings = ninth_host_payload(deployment, full_dataset)
        target = live_dataset.host_ids[0]

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                retired = service._current
                await service.ingest(hosts=[record], pings=pings)
                assert service._current is not retired
                before = service.cache_stats()
                retired.localize_one(target)
                return before, service.cache_stats()

        before, after = run(main())

        def planar(stats):
            pipeline = stats["pipeline"]
            return pipeline["planar_memo_hits"] + pipeline["planar_memo_misses"]

        def prepared(stats):
            return stats["prepared_hits"] + stats["prepared_misses"]

        assert after["pipeline"]["runs"] == before["pipeline"]["runs"] + 1
        assert planar(after) == planar(before) + 1
        assert prepared(after) == prepared(before) + 1


class TestServiceConcurrency:
    def test_many_concurrent_requests(self, live_dataset):
        targets = live_dataset.host_ids

        async def main():
            async with LocalizationService(
                live_dataset, workers=3, max_queue=4
            ) as service:
                first = await service.localize_many(targets)
                second = await service.localize_many(targets)
                return first, second, service.cache_stats()

        first, second, stats = run(main())
        assert len(second) == len(targets)
        assert all(e.point is not None for e in second.values())
        assert stats["served"] == len(targets) * 2
        # A burst of unseen targets is all cold; only the completed first
        # pass makes the second one warm.
        assert stats["cold_requests"] == len(targets)
        assert stats["warm_requests"] == len(targets)

    def test_stop_resolves_blocked_putters(self, live_dataset):
        """Requests stuck in queue admission must resolve during stop()."""
        targets = live_dataset.host_ids

        async def main():
            service = LocalizationService(live_dataset, workers=1, max_queue=1)
            await service.start()
            pending = [
                asyncio.ensure_future(service.localize(t)) for t in targets[:5]
            ]
            await asyncio.sleep(0)  # let them hit the queue / block in put
            await service.stop()
            return await asyncio.gather(*pending)

        estimates = run(main())
        assert len(estimates) == 5
        for estimate in estimates:
            # Either served before the drain or resolved as "service
            # stopped" -- never a stranded future (gather would hang).
            assert estimate.point is not None or "error" in estimate.details

    def test_timeout_raises(self, live_dataset):
        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                await service.localize(live_dataset.host_ids[0], timeout=1e-9)

        with pytest.raises(asyncio.TimeoutError):
            run(main())


class TestServiceMicroBatching:
    """Fused-engine request coalescing: correctness and snapshot semantics."""

    @pytest.fixture()
    def fused_config(self):
        from repro import OctantConfig
        from repro.core.config import SolverConfig

        return OctantConfig(solver=SolverConfig(engine="fused", fuse_width=4))

    def test_coalesced_requests_are_per_request_correct(
        self, live_dataset, fused_config
    ):
        """A burst through one worker coalesces, answers stay per-request."""
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))
        targets = live_dataset.host_ids

        async def main():
            async with LocalizationService(
                live_dataset, fused_config, workers=1
            ) as service:
                results = await service.localize_many(targets)
                return results, service.cache_stats()

        results, stats = run(main())
        for target in targets:
            assert signature(results[target]) == signature(
                reference.localize_one(target)
            )
        fused = stats["fused"]
        assert fused["engine"] == "fused"
        assert fused["fuse_width"] == 4
        # The burst outpaces the single worker, so at least one dispatch
        # coalesced multiple requests and the pooled pass counters moved.
        assert any(width > 1 for width in fused["width_histogram"])
        assert fused["batches"] >= 1
        assert fused["passes"] > 0 and fused["rows"] > 0

    def test_vector_engine_never_coalesces(self, live_dataset):
        """A non-fused engine never coalesces requests.

        The name predates the removal of the ``"vector"`` engine; the
        object engine is the non-fused one now.
        """
        from repro import OctantConfig
        from repro.core.config import SolverConfig

        config = OctantConfig(solver=SolverConfig(engine="object"))

        async def main():
            async with LocalizationService(live_dataset, config, workers=1) as service:
                await service.localize_many(live_dataset.host_ids[:4])
                return service.cache_stats()

        stats = run(main())
        assert stats["fused"]["fuse_width"] == 1
        assert all(w == 1 for w in stats["fused"]["width_histogram"])
        assert stats["fused"]["batches"] == 0

    def test_unknown_target_in_batch_fails_alone(self, live_dataset, fused_config):
        targets = list(live_dataset.host_ids[:3]) + ["host-bogus"]

        async def main():
            async with LocalizationService(
                live_dataset, fused_config, workers=1
            ) as service:
                return await service.localize_many(targets)

        results = run(main())
        assert results["host-bogus"].point is None
        assert results["host-bogus"].details["error_type"] == "KeyError"
        for target in targets[:3]:
            assert results[target].point is not None

    def test_mixed_snapshot_batch_preserves_enqueue_snapshots(
        self, deployment, full_dataset, live_dataset, fused_config
    ):
        """One dispatch spanning an ingest answers each request from its own
        enqueue-time snapshot (the batch regroups by localizer)."""
        import asyncio as aio

        from repro.serving.service import _Request

        record, pings = ninth_host_payload(deployment, full_dataset)
        new_id = record.node_id
        known = live_dataset.host_ids[0]

        async def main():
            async with LocalizationService(
                live_dataset, fused_config, workers=1
            ) as service:
                old_localizer = service._current
                await service.ingest(hosts=[record], pings=pings)
                new_localizer = service._current
                assert old_localizer is not new_localizer
                loop = aio.get_running_loop()
                batch = [
                    _Request(new_id, None, old_localizer, loop.create_future(), 0),
                    _Request(new_id, None, new_localizer, loop.create_future(), 1),
                    _Request(known, None, old_localizer, loop.create_future(), 0),
                ]
                estimates = await loop.run_in_executor(
                    service._executor, service._localize_batch_sync, batch
                )
                return estimates

        old_answer, new_answer, known_answer = run(main())
        # The pre-ingest snapshot does not know the ninth host ...
        assert old_answer.point is None
        assert old_answer.details["error_type"] == "KeyError"
        # ... the post-ingest snapshot resolves it ...
        assert new_answer.point is not None
        # ... and a target known to both answers from its own snapshot.
        assert known_answer.point is not None

    def test_cross_ingest_batch_splits_by_snapshot(
        self, deployment, full_dataset, live_dataset, fused_config
    ):
        """Requests coalesced across an ingest() run as separate cohort
        passes: each answer is bit-identical to a direct solve_many on its
        own enqueue-time snapshot, not to the other snapshot's answer."""
        import asyncio as aio

        from repro.serving.service import _Request

        record, pings = ninth_host_payload(deployment, full_dataset)
        targets = list(live_dataset.host_ids[:2])

        async def main():
            async with LocalizationService(
                live_dataset, fused_config, workers=1
            ) as service:
                old_localizer = service._current
                old_version = old_localizer.dataset.version
                await service.ingest(hosts=[record], pings=pings)
                new_localizer = service._current
                new_version = new_localizer.dataset.version
                assert new_version != old_version
                loop = aio.get_running_loop()
                # Interleave snapshots inside one coalesced dispatch.
                batch = [
                    _Request(t, None, loc, loop.create_future(), ver)
                    for t in targets
                    for loc, ver in (
                        (old_localizer, old_version),
                        (new_localizer, new_version),
                    )
                ]
                estimates = await loop.run_in_executor(
                    service._executor, service._localize_batch_sync, batch
                )
                return estimates, old_localizer, new_localizer

        estimates, old_localizer, new_localizer = run(main())
        old_direct = old_localizer.solve_many(targets)
        new_direct = new_localizer.solve_many(targets)
        for i, target in enumerate(targets):
            assert signature(estimates[2 * i]) == signature(old_direct[target])
            assert signature(estimates[2 * i + 1]) == signature(new_direct[target])
        # The landmark pool grew across the ingest, so at least one target's
        # answer must differ between snapshots -- which is exactly what a
        # conflated cohort pass would have papered over.
        assert any(
            signature(old_direct[t]) != signature(new_direct[t]) for t in targets
        )

    def test_repeated_target_within_batch(self, live_dataset, fused_config):
        """Duplicate targets in one coalesced dispatch each get an answer."""
        target = live_dataset.host_ids[0]

        async def main():
            async with LocalizationService(
                live_dataset, fused_config, workers=1
            ) as service:
                return await asyncio.gather(
                    *(service.localize(target) for _ in range(4))
                )

        estimates = run(main())
        first = signature(estimates[0])
        assert all(signature(e) == first for e in estimates)
        assert estimates[0].point is not None
