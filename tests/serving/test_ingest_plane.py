"""The write-optimized ingest plane at the service layer.

Three contracts under test.  First, delta-scoped invalidation: an ingest
carries every warm cache entry whose roster the delta provably did not
touch, and the ``cache_stats()["ingest"]`` counters pin which path
(selective vs full) ran.  Second, drift re-localization: only targets
whose *own* measurements changed value are re-localized, against the new
snapshot.  Third, the hammer: streaming probe agents append through the
measurement log while ``localize_many`` batches run, and every answer is
bit-identical to a quiescent solve over the snapshot version it pinned.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import pytest

from repro import BatchLocalizer, LocalizationService, Octant, collect_dataset
from repro.network import MeasurementDataset, ProbeAgent
from repro.network.planetlab import small_deployment


@pytest.fixture(scope="module")
def deployment():
    return small_deployment(host_count=9, seed=17)


@pytest.fixture()
def live_dataset(deployment):
    return collect_dataset(deployment)


def signature(estimate):
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
    )


def run(coro):
    return asyncio.run(coro)


def lowered(ping, shift_ms=0.5):
    """A re-probe of ``ping`` whose every sample dropped: the min changed."""
    return dataclasses.replace(
        ping, rtts_ms=tuple(r - shift_ms for r in ping.rtts_ms)
    )


def ingest_stats(service):
    return service.cache_stats()["ingest"]


class TestSelectiveInvalidation:
    """Satellite (a): the selective path is pinned by counters."""

    def test_pool_entry_survives_out_of_roster_churn(self, live_dataset):
        ids = sorted(live_dataset.host_ids)
        pool, target = ids[:5], ids[5]
        churn = lowered(live_dataset.pings[(ids[7], ids[8])])

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                first = await service.localize(target, landmark_pool=pool)
                await service.ingest(pings=[churn])
                second = await service.localize(target, landmark_pool=pool)
                return first, second, ingest_stats(service), service.cache_stats()

        first, second, ingest, stats = run(main())
        assert ingest["invalidations_selective"] == 1
        assert ingest["invalidations_full"] == 0
        assert ingest["prepared_carried"] >= 1
        assert ingest["prepared_evicted"] == 0
        # The churned pair lies outside the pool entirely: the carried
        # entry serves the repeat bit-identically, without re-deriving.
        assert stats["prepared_hits"] == 1
        assert signature(first) == signature(second)

    def test_roster_churn_evicts_pool_entry(self, live_dataset):
        ids = sorted(live_dataset.host_ids)
        pool, target = ids[:5], ids[5]
        # Force the new sample below the *combined* min of the pair (either
        # direction may hold it), so the delta provably changed a roster value.
        floor = live_dataset.min_rtt_ms(ids[0], ids[1])
        churn = dataclasses.replace(
            live_dataset.pings[(ids[0], ids[1])], rtts_ms=(floor - 1.0,)
        )

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                await service.localize(target, landmark_pool=pool)
                await service.ingest(pings=[churn])
                await service.localize(target, landmark_pool=pool)
                return ingest_stats(service), service.cache_stats()

        ingest, stats = run(main())
        assert ingest["invalidations_selective"] == 1
        assert ingest["prepared_evicted"] >= 1
        assert stats["prepared_hits"] == 0  # evicted: the repeat re-derived

    def test_target_side_churn_keeps_roster_entry(self, live_dataset):
        """The target's own RTTs are read live, so its entry survives."""
        ids = sorted(live_dataset.host_ids)
        pool, target = ids[:5], ids[5]
        churn = lowered(live_dataset.pings[(ids[0], target)])

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                await service.localize(target, landmark_pool=pool)
                await service.ingest(pings=[churn])
                refreshed = await service.localize(target, landmark_pool=pool)
                return refreshed, ingest_stats(service), service.cache_stats()

        refreshed, ingest, stats = run(main())
        assert ingest["prepared_carried"] >= 1
        assert stats["prepared_hits"] == 1
        # The carried roster state is reused, but the answer reflects the
        # new target RTT (read live at assembly) -- it must still resolve.
        assert refreshed.point is not None


class TestFullInvalidation:
    def test_router_replacement_forces_full(self, live_dataset):
        ids = sorted(live_dataset.host_ids)
        router_id = sorted(live_dataset.routers)[0]
        changed = dataclasses.replace(
            live_dataset.routers[router_id], dns_name="relabeled.example.net"
        )

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                await service.localize(ids[0])
                await service.ingest(routers=[changed])
                await service.localize(ids[0])
                return ingest_stats(service), service.cache_stats()

        ingest, stats = run(main())
        assert ingest["invalidations_full"] == 1
        assert ingest["invalidations_selective"] == 0
        assert ingest["prepared_carried"] == 0
        assert ingest["prepared_evicted"] >= 1
        assert stats["prepared_hits"] == 0

    def test_out_of_window_fallback_is_full(self, live_dataset):
        """A delta gap the bounded log cannot vouch for carries nothing."""
        ids = sorted(live_dataset.host_ids)
        key = (ids[0], ids[1])

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                await service.localize(ids[2])
                # Advance the live dataset behind the service's back until
                # the delta window no longer covers the retired snapshot.
                for _ in range(MeasurementDataset.TOUCHED_LOG_LIMIT + 1):
                    service._live.ingest(pings=[lowered(service._live.pings[key], 0.01)])
                await service.ingest(pings=[lowered(service._live.pings[key], 0.5)])
                return ingest_stats(service)

        ingest = run(main())
        assert ingest["invalidations_full"] == 1
        assert ingest["prepared_carried"] == 0


class TestZeroChurnIdentity:
    def test_identical_reprobe_carries_everything(self, live_dataset):
        ids = sorted(live_dataset.host_ids)
        target = ids[0]
        reprobe = live_dataset.pings[(ids[1], ids[2])]  # value-identical

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                before = await service.localize(target)
                await service.ingest(pings=[reprobe])
                after = await service.localize(target)
                return before, after, ingest_stats(service), service.cache_stats()

        before, after, ingest, stats = run(main())
        assert ingest["invalidations_selective"] == 1
        assert ingest["prepared_carried"] >= 1
        assert ingest["prepared_evicted"] == 0
        assert stats["prepared_hits"] == 1
        assert signature(before) == signature(after)


class TestLogIngestPath:
    def test_nowait_append_compacts_to_same_state(self, deployment, live_dataset):
        """ingest_nowait + flush equals a synchronous ingest of the burst."""
        ids = sorted(live_dataset.host_ids)
        keys = [(ids[0], ids[1]), (ids[2], ids[3]), (ids[4], ids[5])]
        mirror = collect_dataset(deployment)
        payloads = [[lowered(mirror.pings[k])] for k in keys]

        async def main():
            async with LocalizationService(live_dataset, workers=1) as service:
                for pings in payloads:
                    service.ingest_nowait(pings=pings)
                version = await service.flush_ingest()
                answer = await service.localize(ids[0])
                return version, answer, service.measurement_log.stats()

        version, answer, log_stats = run(main())
        for pings in payloads:
            mirror.ingest(pings=pings)
        # The burst coalesced: one compaction, one version bump for three
        # appends -- and the compacted state matches sequential ingests.
        assert log_stats["appended"] == 3
        assert log_stats["compactions"] >= 1
        assert version >= 1
        assert live_dataset.pings == mirror.pings
        assert answer.point is not None

    def test_readiness_surfaces_ingest_plane(self, live_dataset):
        async def main():
            service = LocalizationService(live_dataset, drift_relocalize=True)
            async with service:
                ready = service.readiness()
                stats = service.cache_stats()
                return ready, stats

        ready, stats = run(main())
        assert ready["ingest_pending"] == 0
        assert ready["compaction_lag_s"] == 0.0
        assert ready["drift_queue_depth"] == 0
        assert stats["ingest"]["log"]["appended"] == 0
        assert stats["ingest"]["drift"]["queue_limit"] == 64


class TestDriftRelocalization:
    def test_seen_target_is_refreshed_against_new_snapshot(self, live_dataset):
        ids = sorted(live_dataset.host_ids)
        target, other = ids[0], ids[1]
        churn = lowered(live_dataset.pings[(target, other)], 2.0)

        async def main():
            service = LocalizationService(
                live_dataset, workers=1, drift_relocalize=True
            )
            async with service:
                await service.localize(target)  # target becomes "seen"
                await service.ingest(pings=[churn])
                deadline = time.monotonic() + 10.0
                while target not in service.drift.refreshed:
                    if time.monotonic() > deadline:
                        raise TimeoutError("drift never refreshed the target")
                    await asyncio.sleep(0.02)
                return service.drift.refreshed[target], service.drift.stats()

        refreshed, drift_stats = run(main())
        assert drift_stats["processed"] >= 1
        assert drift_stats["errors"] == 0
        # The refresh ran against the *new* snapshot: bit-identical to a
        # quiescent solve over the post-churn dataset.
        reference = BatchLocalizer(Octant(live_dataset.snapshot()))
        assert signature(refreshed) == signature(reference.localize_one(target))

    def test_unseen_targets_are_not_enqueued(self, live_dataset):
        ids = sorted(live_dataset.host_ids)
        churn = lowered(live_dataset.pings[(ids[3], ids[4])])

        async def main():
            service = LocalizationService(
                live_dataset, workers=1, drift_relocalize=True
            )
            async with service:
                await service.localize(ids[0])  # seen, but untouched by churn
                await service.ingest(pings=[churn])
                return service.drift.stats()

        drift_stats = run(main())
        assert drift_stats["enqueued"] == 0


class TestStreamingHammer:
    """Satellite (c): agents append while batches pin snapshot versions."""

    def test_every_answer_matches_quiescent_solve_on_pinned_snapshot(
        self, deployment
    ):
        live = collect_dataset(deployment)
        base = dict(live.pings)
        ids = sorted(live.host_ids)
        targets = ids[:3]
        pairs = [k for k in sorted(base) if k[0] in ids[5:] or k[1] in ids[5:]][:6]

        service = LocalizationService(live, workers=2)
        snapshots: dict[int, MeasurementDataset] = {}
        original_build = service._build_localizer

        def capturing_build():
            fresh = original_build()
            snapshots[fresh.dataset.version] = fresh.dataset
            return fresh

        service._build_localizer = capturing_build

        def make_probe(shift_per_tick):
            def probe(src, dst, tick):
                ping = base[(src, dst)]
                return dataclasses.replace(
                    ping,
                    rtts_ms=tuple(r - shift_per_tick * (tick + 1) for r in ping.rtts_ms),
                )

            return probe

        agents = [
            ProbeAgent(
                f"hammer-{i}",
                service.measurement_log,
                pairs,
                probe_fn=make_probe(0.001 * (i + 1)),
                rate_per_s=400.0,
                seed=i,
                max_ticks=25,
            )
            for i in range(2)
        ]

        async def main():
            async with service:
                for agent in agents:
                    agent.start()
                rounds = []
                for _ in range(3):
                    rounds.append(await service.localize_many(targets))
                    await asyncio.sleep(0.05)
                for agent in agents:
                    agent.stop()
                await service.flush_ingest()
                return rounds

        rounds = run(main())
        for agent in agents:
            assert agent.errors == 0
        log_stats = service.measurement_log.stats()
        assert log_stats["appended"] == 50
        assert log_stats["applied"] == 50
        assert log_stats["pending"] == 0
        # Churn actually landed while serving: compactions swapped in new
        # snapshot versions beyond the initial one.
        assert len(snapshots) > 1
        assert service.cache_stats()["ingests"] >= 1

        # Every answer must be bit-identical to a quiescent solve over the
        # exact snapshot version it pinned at enqueue time.
        references: dict[int, BatchLocalizer] = {}
        for answers in rounds:
            for target, estimate in answers.items():
                version = estimate.details["snapshot_version"]
                assert version in snapshots
                reference = references.setdefault(
                    version, BatchLocalizer(Octant(snapshots[version]))
                )
                assert signature(estimate) == signature(
                    reference.localize_one(target)
                ), (target, version)
