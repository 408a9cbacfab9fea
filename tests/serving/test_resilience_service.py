"""Serving-tier resilience: ladder degradation, deadlines, shedding, chaos.

The contract under test has two halves.  With no faults and no deadline
pressure the resilience machinery must be *invisible*: every answer is
bit-identical to a direct :class:`BatchLocalizer` over the same snapshot
and no degradation provenance appears.  Under injected faults the service
must keep answering -- retrying retriable faults, falling down the engine
ladder (bit-identical rungs), then to the coarse baseline -- and every
degraded answer must say exactly how it degraded.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro import (
    BatchLocalizer,
    FaultPlan,
    LocalizationService,
    Octant,
    OctantConfig,
    ResilienceConfig,
    collect_dataset,
)
from repro.core.config import SolverConfig
from repro.network.planetlab import small_deployment
from repro.resilience import BreakerConfig, FatalError, RetryPolicy


@pytest.fixture(scope="module")
def deployment():
    return small_deployment(host_count=9, seed=11)


@pytest.fixture(scope="module")
def full_dataset(deployment):
    return collect_dataset(deployment)


@pytest.fixture()
def live_dataset(deployment):
    return collect_dataset(deployment, host_ids=sorted(deployment.host_ids)[:8])


def signature(estimate):
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
    )


def run(coro):
    return asyncio.run(coro)


#: A retry policy with no sleeps, so fault-heavy tests stay fast.
FAST_RETRY = RetryPolicy(base_delay_s=0.0, max_delay_s=0.0, jitter=0.0)


class TestNoFaultEquivalence:
    """The bit-identical pin: resilience machinery is invisible on the happy path."""

    def test_randomized_requests_match_direct_localizer(self, live_dataset):
        rng = random.Random(20260807)
        targets = [rng.choice(live_dataset.host_ids) for _ in range(12)]
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))
        want = {t: signature(reference.localize_one(t)) for t in set(targets)}

        async def main():
            async with LocalizationService(live_dataset, workers=2) as service:
                estimates = await asyncio.gather(
                    *(service.localize(t) for t in targets)
                )
                return estimates, service.cache_stats()["resilience"]

        estimates, resilience = run(main())
        for target, estimate in zip(targets, estimates):
            assert signature(estimate) == want[target]
            assert "degraded" not in estimate.details
        # The ladder never engaged.
        assert resilience["retries"] == 0
        assert resilience["degraded_answers"] == 0
        assert resilience["baseline_answers"] == 0
        assert resilience["shed_requests"] == 0

    def test_latency_only_chaos_plan_is_bit_identical(self, live_dataset):
        """The CI chaos-smoke plan (latency spikes, no errors) must not
        change a single answer -- that is what makes it safe to run the
        whole tier-1 suite under it."""
        plan = FaultPlan.from_spec("seed=7;*:p=0.5,latency_ms=1,error=none")
        targets = live_dataset.host_ids[:4]
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))

        async def main():
            async with LocalizationService(
                live_dataset, workers=2, fault_plan=plan
            ) as service:
                return await service.localize_many(targets), service.cache_stats()

        served, stats = run(main())
        for target in targets:
            assert signature(served[target]) == signature(
                reference.localize_one(target)
            )
            assert "degraded" not in served[target].details
        faults = stats["resilience"]["faults"]
        assert faults["errors"] == {}
        assert sum(faults["delays"].values()) > 0  # the plan did fire


class TestDegradationLadder:
    def test_retriable_fault_retried_on_same_rung(self, live_dataset):
        """One retriable solve fault, then success: same engine, same
        answer, no degradation marker -- just a retry counter."""
        plan = FaultPlan.from_spec("solve:p=1,error=retriable,limit=1")
        target = live_dataset.host_ids[0]
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))
        resilience = ResilienceConfig(retry=FAST_RETRY)

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, resilience=resilience, fault_plan=plan
            ) as service:
                estimate = await service.localize(target)
                return estimate, service.cache_stats()["resilience"]

        estimate, stats = run(main())
        assert signature(estimate) == signature(reference.localize_one(target))
        assert "degraded" not in estimate.details
        assert stats["retries"] == 1
        assert stats["degraded_answers"] == 0

    def test_fatal_fault_falls_to_lower_engine_rung(self, live_dataset):
        """A fatal fault on the primary rung: the next engine answers,
        bit-identically, and the provenance names both rungs."""
        plan = FaultPlan.from_spec("solve:p=1,error=fatal,limit=1")
        target = live_dataset.host_ids[0]
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, fault_plan=plan
            ) as service:
                estimate = await service.localize(target)
                return estimate, service.cache_stats()["resilience"]

        estimate, stats = run(main())
        # Engines are bit-identical, so the degraded answer equals the
        # primary one -- degradation changes provenance, not results.
        assert signature(estimate) == signature(reference.localize_one(target))
        degraded = estimate.details["degraded"]
        assert degraded["engine"] == "object"  # default primary is "fused"
        assert degraded["primary"] == "fused"
        assert degraded["attempted"] == ["fused"]
        assert degraded["error_class"] == "fatal"
        assert stats["degraded_answers"] == 1
        assert stats["baseline_answers"] == 0

    def test_all_rungs_fatal_falls_to_baseline(self, live_dataset):
        plan = FaultPlan.from_spec("solve:p=1,error=fatal")
        target = live_dataset.host_ids[0]

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, fault_plan=plan
            ) as service:
                estimate = await service.localize(target)
                return estimate, service.cache_stats()["resilience"]

        estimate, stats = run(main())
        assert estimate.point is not None  # degraded, but an answer
        degraded = estimate.details["degraded"]
        assert degraded["fallback"] == "baseline"
        assert degraded["method"] == "shortest-ping"
        assert degraded["attempted"] == ["fused", "object"]
        assert degraded["error_class"] == "fatal"
        assert stats["degraded_answers"] == 1
        assert stats["baseline_answers"] == 1
        assert stats["faults"]["errors"]["solve"] >= 2

    def test_degradation_off_fails_terminally(self, live_dataset):
        plan = FaultPlan.from_spec("solve:p=1,error=fatal")
        target = live_dataset.host_ids[0]
        resilience = ResilienceConfig(degradation=False)

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, resilience=resilience, fault_plan=plan
            ) as service:
                return await service.localize(target), service.cache_stats()

        estimate, stats = run(main())
        assert estimate.point is None
        assert estimate.details["error_type"] == "FatalError"
        assert estimate.details["error_class"] == "fatal"
        assert "degraded" not in estimate.details
        assert stats["failed"] == 1

    def test_unknown_target_refusal_never_degrades(self, live_dataset):
        """Data refusals are deterministic on every rung: terminal, not
        laddered, even with degradation on."""

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                return await service.localize("host-bogus"), service.cache_stats()

        estimate, stats = run(main())
        assert estimate.point is None
        assert estimate.details["error_type"] == "KeyError"
        assert "degraded" not in estimate.details
        assert stats["resilience"]["degraded_answers"] == 0


class TestBreakers:
    def test_persistent_failure_opens_breaker_and_skips_rung(self, live_dataset):
        plan = FaultPlan.from_spec("solve:p=1,error=fatal")
        targets = live_dataset.host_ids[:3]
        resilience = ResilienceConfig(breaker=BreakerConfig(failure_threshold=1))

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, resilience=resilience, fault_plan=plan
            ) as service:
                first = await service.localize(targets[0])
                second = await service.localize(targets[1])
                return first, second, service.health(), service.cache_stats()

        first, second, health, stats = run(main())
        # First request trips both engine breakers (threshold 1) ...
        assert first.details["degraded"]["attempted"] == ["fused", "object"]
        # ... so the second request skips them without attempting a solve.
        assert second.details["degraded"]["attempted"] == [
            "fused:breaker-open",
            "object:breaker-open",
        ]
        breakers = stats["resilience"]["breakers"]
        assert breakers["solve:fused"]["state"] == "open"
        assert breakers["solve:object"]["state"] == "open"
        assert breakers["solve:fused"]["refusals"] >= 1
        assert health["status"] == "degraded"
        assert health["breakers_open"] == ["solve:fused", "solve:object"]


class TestDeadlines:
    def test_expired_deadline_sheds_at_dequeue(self, live_dataset):
        target = live_dataset.host_ids[0]

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                estimate = await service.localize(target, deadline_s=1e-9)
                return estimate, service.cache_stats()["resilience"]

        estimate, stats = run(main())
        assert estimate.point is None
        assert estimate.details["error_type"] == "DeadlineExceeded"
        assert estimate.details["error_class"] == "deadline"
        assert stats["shed_requests"] == 1
        assert stats["deadline_failures"] == 1

    def test_midflight_deadline_degrades_to_baseline(self, live_dataset):
        """With shedding off, the expired deadline is hit at a stage
        checkpoint and the request jumps straight to the baseline."""
        target = live_dataset.host_ids[0]
        resilience = ResilienceConfig(shed_expired=False)

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, resilience=resilience
            ) as service:
                estimate = await service.localize(target, deadline_s=1e-9)
                return estimate, service.cache_stats()["resilience"]

        estimate, stats = run(main())
        assert estimate.point is not None
        degraded = estimate.details["degraded"]
        assert degraded["fallback"] == "baseline"
        assert degraded["error_class"] == "deadline"
        assert stats["baseline_answers"] == 1
        assert stats["shed_requests"] == 0

    def test_config_deadline_is_the_default(self, live_dataset):
        """``ResilienceConfig.deadline_s`` applies when the call passes none."""
        target = live_dataset.host_ids[0]
        resilience = ResilienceConfig(deadline_s=1e-9)

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, resilience=resilience
            ) as service:
                return await service.localize(target)

        estimate = run(main())
        assert estimate.point is None
        assert estimate.details["error_class"] == "deadline"

    def test_generous_deadline_changes_nothing(self, live_dataset):
        target = live_dataset.host_ids[0]
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                return await service.localize(target, deadline_s=60.0)

        estimate = run(main())
        assert signature(estimate) == signature(reference.localize_one(target))
        assert "degraded" not in estimate.details


class TestCancellation:
    def test_timeout_reaps_the_underlying_request(self, live_dataset):
        """A caller timeout cancels the request token; the queued work is
        shed at dequeue instead of running for nobody (satellite fix for
        the fire-and-forget ``wait_for`` path)."""
        # The first request holds the single worker long enough for the
        # second caller to give up while its request is still queued.
        plan = FaultPlan.from_spec("dispatch:p=1,error=none,latency_ms=150,limit=1")
        targets = live_dataset.host_ids[:2]

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, fault_plan=plan
            ) as service:
                slow = asyncio.ensure_future(service.localize(targets[0]))
                await asyncio.sleep(0.01)  # let the slow request reach the worker
                with pytest.raises(asyncio.TimeoutError):
                    await service.localize(targets[1], timeout=0.01)
                first = await slow
                return first, service.cache_stats()["resilience"]

        first, stats = run(main())
        assert first.point is not None  # the slow request still completed
        # The abandoned request was shed with the caller-timeout reason; its
        # future was already cancelled by wait_for, so no terminal result is
        # delivered (nobody is listening) and cancelled_failures stays 0.
        assert stats["shed_requests"] == 1
        assert stats["cancelled_failures"] == 0

    def test_stop_resolves_queued_requests_with_shutdown_type(self, live_dataset):
        """Satellite fix: stop() leaves no stranded future, and every
        request it fails carries ``error_type="shutdown"``."""
        targets = live_dataset.host_ids

        async def main():
            service = LocalizationService(live_dataset, workers=1, max_queue=1)
            await service.start()
            pending = [
                asyncio.ensure_future(service.localize(t)) for t in targets[:5]
            ]
            await asyncio.sleep(0)  # block most of them in queue admission
            await service.stop()
            return await asyncio.gather(*pending)

        estimates = run(main())
        assert len(estimates) == 5
        for estimate in estimates:
            if estimate.point is None:
                assert estimate.details["error_type"] == "shutdown"
                assert estimate.details["error_class"] == "shutdown"

    def test_resolve_shutdown_terminal_results(self, live_dataset):
        """The worker-abandonment path: tokens cancelled, futures resolved."""
        from repro.serving.service import _Request

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                loop = asyncio.get_running_loop()
                batch = [
                    _Request(t, None, service._current, loop.create_future(), 0)
                    for t in live_dataset.host_ids[:3]
                ]
                service._resolve_shutdown(batch)
                return batch

        batch = run(main())
        for request in batch:
            assert request.token.cancelled
            assert request.token.reason == "shutdown"
            estimate = request.future.result()
            assert estimate.point is None
            assert estimate.details["error_type"] == "shutdown"


class TestMicroBatchFallback:
    """Satellite (c): the coalesced group solve's retry-individually branch."""

    @pytest.fixture()
    def fused_config(self):
        return OctantConfig(solver=SolverConfig(engine="fused", fuse_width=4))

    def test_group_failure_retries_each_request_individually(
        self, live_dataset, fused_config
    ):
        from repro.serving.service import _Request

        targets = list(live_dataset.host_ids[:3])
        reference = BatchLocalizer(
            Octant(live_dataset.snapshot(), fused_config)
        )
        want = {t: signature(reference.localize_one(t)) for t in targets}

        async def main():
            async with LocalizationService(
                live_dataset, fused_config, workers=1
            ) as service:
                # Poison the cohort path only: the per-request fallback goes
                # through localize_one, which must still succeed.
                def boom(*args, **kwargs):
                    raise RuntimeError("cohort kernel corrupted")

                service._current.solve_many = boom
                loop = asyncio.get_running_loop()
                batch = [
                    _Request(t, None, service._current, loop.create_future(), 0)
                    for t in targets
                ]
                estimates = await loop.run_in_executor(
                    service._executor, service._localize_batch_sync, batch
                )
                return estimates, service.cache_stats()["resilience"]

        estimates, stats = run(main())
        assert stats["microbatch_retries"] == 1
        for target, estimate in zip(targets, estimates):
            assert signature(estimate) == want[target]
            assert "degraded" not in estimate.details

    def test_injected_group_fault_still_answers_everyone(
        self, live_dataset, fused_config
    ):
        """A dispatch-stage fault fails the whole cohort once; the
        fallback answers each request through the resilient single path."""
        plan = FaultPlan.from_spec("dispatch:p=1,error=fatal,limit=1")
        targets = list(live_dataset.host_ids[:4])
        reference = BatchLocalizer(
            Octant(live_dataset.snapshot(), fused_config)
        )

        async def main():
            async with LocalizationService(
                live_dataset, fused_config, workers=1, fault_plan=plan
            ) as service:
                results = await service.localize_many(targets)
                return results, service.cache_stats()["resilience"]

        results, stats = run(main())
        for target in targets:
            assert signature(results[target]) == signature(
                reference.localize_one(target)
            )
        # Either the burst coalesced (group fault -> per-request fallback)
        # or it did not (the fault hit one single-request dispatch, whose
        # ladder absorbed it); both end with every answer correct.
        assert stats["microbatch_retries"] + stats["degraded_answers"] >= 0


class TestIngestFaults:
    def test_ingest_fault_surfaces_before_mutation(
        self, deployment, full_dataset, live_dataset
    ):
        plan = FaultPlan.from_spec("ingest:p=1,error=fatal,limit=1")
        ids = sorted(deployment.host_ids)
        new_id, kept = ids[8], set(ids[:8])
        record = full_dataset.hosts[new_id]
        pings = [
            p
            for (s, d), p in sorted(full_dataset.pings.items())
            if new_id in (s, d) and (s in kept or d in kept)
        ]

        async def main():
            async with LocalizationService(
                live_dataset, workers=1, fault_plan=plan
            ) as service:
                version_before = live_dataset.version
                with pytest.raises(FatalError):
                    await service.ingest(hosts=[record], pings=pings)
                assert live_dataset.version == version_before  # no mutation
                # The fault budget is spent; the retried ingest lands.
                touched = await service.ingest(hosts=[record], pings=pings)
                found = await service.localize(record.node_id)
                return touched, found

        touched, found = run(main())
        assert record.node_id in touched
        assert found.point is not None


class TestIntrospection:
    def test_resilience_stats_shape(self, live_dataset):
        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                await service.localize(live_dataset.host_ids[0])
                return service.cache_stats()["resilience"], service.health()

        resilience, health = run(main())
        assert set(resilience) == {
            "deadline_s",
            "degradation",
            "baseline_fallback",
            "retries",
            "degraded_answers",
            "baseline_answers",
            "shed_requests",
            "microbatch_retries",
            "deadline_failures",
            "cancelled_failures",
            "breakers",
            "faults",
        }
        assert resilience["faults"] is None  # no plan installed
        assert health["status"] == "ok"
        assert health["started"] is True
        assert health["breakers_open"] == []

    def test_health_reports_stopped(self, live_dataset):
        service = LocalizationService(live_dataset)
        assert service.health()["status"] == "stopped"

    def test_install_fault_plan_swaps_and_returns_previous(self, live_dataset):
        service = LocalizationService(live_dataset)
        plan = FaultPlan.from_spec("solve:p=1")
        assert service.install_fault_plan(plan) is None
        assert service.install_fault_plan(None) is plan
