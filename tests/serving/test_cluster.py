"""The sharded multi-process tier: identity, consistency, crash survival.

The contract under test, in order of appearance:

* zero-fault sharded answers are **bit-identical** to the single-process
  :class:`LocalizationService` (randomized equivalence over target choice
  and order -- the orchestrator must never recompute, only route);
* replicated ingest + version-pinned dispatch give every ``localize_many``
  batch one consistent version vector even when it straddles an ingest;
* under supervision the cluster survives SIGKILL, injected process kills,
  hangs and dropped replies -- every request still gets an answer -- while
  the unsupervised cluster measurably loses its dead shard (the gap the
  availability benchmark gates on);
* chaos schedules threaded through the worker bootstrap are identical under
  ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import asyncio
import os
import random

import pytest

from repro import collect_dataset
from repro.network.planetlab import small_deployment
from repro.network.probes import PingResult
from repro.serving import (
    ClusterConfig,
    LocalizationService,
    ShardedLocalizationService,
)
from repro.serving.cluster import _HashRing
from repro.serving.protocol import (
    FrameError,
    Heartbeat,
    Hello,
    LocalizeRequest,
    decode_frame,
    encode_frame,
)
from repro.resilience import FaultPlan


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


@pytest.fixture(scope="module")
def reference_answers(deployment):
    """Single-process answers over the 8-host dataset, the identity oracle."""
    dataset = collect_dataset(deployment, host_ids=sorted(deployment.host_ids)[:8])

    async def main():
        async with LocalizationService(dataset, workers=1) as service:
            return await service.localize_many(sorted(dataset.hosts))

    return asyncio.run(main())


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


#: Tight supervision timings so crash tests run in seconds, not minutes.
FAST = dict(
    shards=2,
    heartbeat_interval_s=0.05,
    poll_interval_s=0.02,
    liveness_deadline_s=0.8,
    attempt_timeout_s=8.0,
    stable_after_s=0.5,
)


def make_cluster(dataset, *, fault_plan=None, **overrides):
    options = {**FAST, **overrides}
    return ShardedLocalizationService(
        dataset, cluster=ClusterConfig(**options), fault_plan=fault_plan
    )


async def wait_for(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        if predicate():
            return True
        if asyncio.get_running_loop().time() > deadline:
            return False
        await asyncio.sleep(interval_s)


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_frame_round_trip(self):
        message = LocalizeRequest(
            request_id=7, target_id="host-a", landmark_pool=("l1", "l2"),
            version=3, deadline_s=1.5,
        )
        assert decode_frame(encode_frame(message)) == message

    def test_unsolicited_frames_round_trip(self):
        for message in (
            Hello(shard_id=1, pid=42, incarnation=2, version=0),
            Heartbeat(shard_id=1, incarnation=2, version=0, served=9,
                      breakers_open=("solve:fused",)),
        ):
            assert decode_frame(encode_frame(message)) == message

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(Hello(0, 1, 1, 0)))
        frame[0:2] = b"XX"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = encode_frame(Hello(0, 1, 1, 0))
        with pytest.raises(FrameError, match="truncated|length"):
            decode_frame(frame[:4])
        with pytest.raises(FrameError, match="length"):
            decode_frame(frame[:-3])

    def test_kind_payload_mismatch_rejected(self):
        hello = encode_frame(Hello(0, 1, 1, 0))
        beat = encode_frame(Heartbeat(0, 1, 0, 0))
        forged = beat[:8] + hello[8:]  # Heartbeat header, Hello payload
        with pytest.raises(FrameError):
            decode_frame(forged)

    def test_corrupt_payload_raises_only_frame_error(self):
        """Inverting any one payload byte yields a FrameError or a valid
        Heartbeat, never another exception: the readers treat only
        FrameError as a protocol failure, so anything else would kill the
        supervisor's reader thread without marking the shard dead."""
        import pickle

        beat = Heartbeat(shard_id=1, incarnation=2, version=3, served=9,
                         breakers_open=("solve:fused",))
        frame = encode_frame(beat)
        payload = len(pickle.dumps(beat, protocol=pickle.HIGHEST_PROTOCOL))
        outcomes = set()
        for index in range(len(frame) - payload, len(frame)):
            corrupt = bytearray(frame)
            corrupt[index] ^= 0xFF
            try:
                message = decode_frame(bytes(corrupt))
            except FrameError:
                outcomes.add("FrameError")
            else:
                assert type(message) is Heartbeat
                outcomes.add("Heartbeat")
        assert outcomes == {"FrameError", "Heartbeat"}

    def test_non_message_rejected(self):
        with pytest.raises(FrameError, match="not a protocol message"):
            encode_frame({"definitely": "not a frame"})


# --------------------------------------------------------------------------- #
# Consistent-hash ring
# --------------------------------------------------------------------------- #
class TestHashRing:
    def test_route_is_a_permutation_of_all_shards(self):
        ring = _HashRing(shards=3, virtual_nodes=32)
        for key in (f"host-{i}" for i in range(40)):
            assert sorted(ring.route(key)) == [0, 1, 2]

    def test_route_is_deterministic(self):
        a, b = _HashRing(4, 64), _HashRing(4, 64)
        for key in (f"host-{i}" for i in range(40)):
            assert a.route(key) == b.route(key)

    def test_keys_spread_across_shards(self):
        ring = _HashRing(shards=2, virtual_nodes=64)
        primaries = {ring.route(f"host-{i}")[0] for i in range(64)}
        assert primaries == {0, 1}


# --------------------------------------------------------------------------- #
# Zero-fault identity
# --------------------------------------------------------------------------- #
class TestClusterAnswers:
    def test_randomized_equivalence_with_single_process(
        self, live_dataset, reference_answers
    ):
        """Random target choice + order, repeats included: signatures equal.

        Set ``OCTANT_CLUSTER_SEED`` to replay a failing draw.
        """
        seed = int(os.environ.get("OCTANT_CLUSTER_SEED", "0") or 0)
        if not seed:
            seed = random.SystemRandom().randrange(1, 2**31)
        rng = random.Random(seed)
        hosts = sorted(live_dataset.hosts)
        picks = [rng.choice(hosts) for _ in range(rng.randint(6, 12))]
        rng.shuffle(picks)

        async def main():
            async with make_cluster(live_dataset) as cluster:
                singles = [await cluster.localize(t) for t in picks[: len(picks) // 2]]
                batch = await cluster.localize_many(picks[len(picks) // 2 :])
                return singles, batch

        singles, batch = run(main())
        for target, estimate in zip(picks[: len(picks) // 2], singles):
            assert signature(estimate) == signature(reference_answers[target]), (
                f"seed={seed} target={target}"
            )
        for target, estimate in batch.items():
            assert signature(estimate) == signature(reference_answers[target]), (
                f"seed={seed} target={target}"
            )

    def test_answers_annotated_with_routing_shard(self, live_dataset):
        targets = sorted(live_dataset.hosts)[:4]

        async def main():
            async with make_cluster(live_dataset) as cluster:
                estimates = await cluster.localize_many(targets)
                expected = {t: cluster.shard_for(t) for t in targets}
                return estimates, expected

        estimates, expected = run(main())
        for target in targets:
            info = estimates[target].details["cluster"]
            assert info["shard"] == expected[target]
            assert "attempts" not in info  # zero faults: no failover hops
            assert info["version"] == info["pinned_version"] == 0


# --------------------------------------------------------------------------- #
# Replicated ingest / version vectors
# --------------------------------------------------------------------------- #
class TestIngestConsistency:
    def test_replicated_ingest_serves_new_host_from_any_shard(
        self, deployment, full_dataset, live_dataset
    ):
        host, pings = ninth_host_payload(deployment, full_dataset)

        async def main():
            async with make_cluster(live_dataset) as cluster:
                touched = await cluster.ingest(hosts=[host], pings=pings)
                estimate = await cluster.localize(host.node_id)
                detail = await cluster.health_detail()
                return touched, estimate, detail

        touched, estimate, detail = run(main())
        assert host.node_id in touched
        assert estimate.point is not None
        assert estimate.details["cluster"]["version"] == 1
        # Every worker applied the replicated ingest and retains version 0.
        for shard, info in detail.items():
            assert info["retained_versions"] == [0, 1], shard

    def test_log_ingest_replicates_and_surfaces_health(
        self, deployment, full_dataset, live_dataset
    ):
        """ingest_nowait replicates via the compactor; health shows the lag."""
        host, pings = ninth_host_payload(deployment, full_dataset)

        async def main():
            async with make_cluster(live_dataset) as cluster:
                seq = cluster.ingest_nowait(hosts=[host], pings=pings)
                version = await cluster.flush_ingest()
                estimate = await cluster.localize(host.node_id)
                health = cluster.health()
                detail = await cluster.health_detail()
                return seq, version, estimate, health, detail

        seq, version, estimate, health, detail = run(main())
        assert seq == 1 and version == 1
        assert estimate.point is not None
        assert estimate.details["cluster"]["version"] == 1
        assert health["ingest_pending"] == 0
        assert health["compaction_lag_s"] == 0.0
        assert health["ingest_log"]["compactions"] == 1
        # Worker readiness (satellite surface) carries the ingest-plane keys.
        for shard, info in detail.items():
            assert info["retained_versions"] == [0, 1], shard
            readiness = info["readiness"]
            assert readiness["ingest_pending"] == 0, shard
            assert "compaction_lag_s" in readiness, shard
            assert "drift_queue_depth" in readiness, shard

    def test_last_issued_write_wins_across_entry_points(self, live_dataset):
        """ingest() queues behind an earlier ingest_nowait() on the same pair."""
        a, b = live_dataset.host_ids[:2]

        async def main():
            cluster = make_cluster(live_dataset)
            # A long batching window: only ingest()'s own flush compacts.
            cluster.measurement_log.poll_interval_s = 5.0
            async with cluster:
                cluster.ingest_nowait(pings=[PingResult(src=a, dst=b, rtts_ms=(10.0,))])
                await cluster.ingest(pings=[PingResult(src=a, dst=b, rtts_ms=(20.0,))])
                await cluster.flush_ingest()

        run(main())
        assert live_dataset.pings[(a, b)].rtts_ms == (20.0,)

    def test_localize_many_straddling_ingest_pins_one_version_vector(
        self, deployment, full_dataset, live_dataset, reference_answers
    ):
        """A batch that races a replicated ingest answers at ONE version.

        The batch captures the committed version before the ingest lands;
        workers swap snapshots mid-batch; requests dispatched after the
        swap must be served from the *retained* pre-ingest localizer, so
        every answer is bit-identical to the pre-ingest single-process
        service -- no mixed vectors, no torn batch.
        """
        host, pings = ninth_host_payload(deployment, full_dataset)
        targets = sorted(live_dataset.hosts)

        async def main():
            async with make_cluster(live_dataset) as cluster:
                batch_task = asyncio.create_task(cluster.localize_many(targets))
                await asyncio.sleep(0)  # batch captures version 0, dispatches
                touched = await cluster.ingest(hosts=[host], pings=pings)
                batch = await batch_task
                after = await cluster.localize(targets[0])
                return touched, batch, after, cluster.committed_version

        touched, batch, after, committed = run(main())
        assert host.node_id in touched
        assert committed == 1
        pinned = {e.details["cluster"]["pinned_version"] for e in batch.values()}
        served = {e.details["cluster"]["version"] for e in batch.values()}
        assert pinned == {0}, "batch straddling ingest mixed version vectors"
        assert served == {0}, "an answer was served off its pinned version"
        for target, estimate in batch.items():
            assert signature(estimate) == signature(reference_answers[target])
        # A request dispatched after the commit pins the new version.
        assert after.details["cluster"]["pinned_version"] == 1


# --------------------------------------------------------------------------- #
# Crash survival
# --------------------------------------------------------------------------- #
class TestCrashRecovery:
    def test_sigkill_fails_over_then_restarts_bit_identically(
        self, live_dataset, reference_answers
    ):
        targets = sorted(live_dataset.hosts)

        async def main():
            async with make_cluster(live_dataset) as cluster:
                victim = cluster.shard_for(targets[0])
                assert cluster.kill_worker(victim) is not None
                # Served immediately by the surviving replica.
                estimate = await cluster.localize(targets[0])
                restarted = await wait_for(
                    lambda: cluster.health()["shards"][str(victim)]["state"]
                    == "live"
                    and cluster.health()["shards"][str(victim)]["incarnation"] >= 2
                )
                again = await cluster.localize(targets[0])
                return victim, estimate, restarted, again, cluster.health(), (
                    cluster.stats
                )

        victim, estimate, restarted, again, health, stats = run(main())
        assert signature(estimate) == signature(reference_answers[targets[0]])
        info = estimate.details["cluster"]
        assert info["shard"] != victim  # a replica answered
        assert any(a["shard"] == victim for a in info["attempts"])
        assert restarted, f"victim never restarted: {health}"
        assert health["restarts_total"] >= 1
        assert signature(again) == signature(reference_answers[targets[0]])
        assert stats.failed == 0
        assert stats.failovers >= 1

    def test_unsupervised_crash_loses_the_dead_shard(self, live_dataset):
        targets = sorted(live_dataset.hosts)

        async def main():
            async with make_cluster(live_dataset, supervise=False) as cluster:
                victim = cluster.shard_for(targets[0])
                survivor_target = next(
                    t for t in targets if cluster.shard_for(t) != victim
                )
                cluster.kill_worker(victim)
                await wait_for(
                    lambda: cluster.health()["shards"][str(victim)]["state"]
                    == "dead",
                    timeout_s=10.0,
                )
                lost = await cluster.localize(targets[0])
                kept = await cluster.localize(survivor_target)
                await asyncio.sleep(0.3)  # a supervisor would restart by now
                return lost, kept, cluster.health(), cluster.stats

        lost, kept, health, stats = run(main())
        # The dead shard's requests FAIL: no failover, no fallback, no restart.
        assert lost.point is None
        assert lost.details["cluster"]["shard"] is None
        assert kept.point is not None
        victim = str(
            next(s for s, v in health["shards"].items() if v["state"] == "dead")
        )
        assert health["shards"][victim]["incarnation"] == 1
        assert health["restarts_total"] == 0
        assert health["status"] in ("degraded", "unavailable")
        assert stats.failed >= 1
        assert stats.local_fallbacks == 0

    def test_dropped_replies_fail_over_and_exhaust(self, live_dataset):
        """Every worker drops its first reply: request 1 must survive anyway.

        Primary drops -> attempt timeout -> peer drops -> attempt timeout ->
        in-process fallback answers.  Request 2 finds both limits exhausted
        and is served normally by its primary.
        """
        plan = FaultPlan.from_spec("reply:p=1,error=drop_reply,limit=1")
        target = sorted(live_dataset.hosts)[0]

        async def main():
            async with make_cluster(
                live_dataset, fault_plan=plan, attempt_timeout_s=0.75
            ) as cluster:
                first = await cluster.localize(target)
                second = await cluster.localize(target)
                detail = await cluster.health_detail()
                return first, second, detail, cluster.stats

        first, second, detail, stats = run(main())
        assert first.point is not None  # answered despite total silence
        assert first.details["cluster"]["fallback"] == "local"
        outcomes = [a["outcome"] for a in first.details["cluster"]["attempts"]]
        assert outcomes == ["timeout", "timeout"]
        assert second.point is not None
        assert second.details["cluster"].get("fallback") is None
        assert "attempts" not in second.details["cluster"]
        assert stats.local_fallbacks == 1
        for info in detail.values():
            assert info["faults"]["errors"] == {"reply": 1}

    def test_hung_worker_reaped_by_liveness_deadline(self, live_dataset):
        """A hang stops heartbeats; the supervisor SIGKILLs and restarts.

        The worker's frame loop is single-threaded by design, so an injected
        ``hang`` (sleeping inside the request path) silences heartbeats --
        this test is the proof that liveness detection catches livelock, not
        just death.
        """
        plan = FaultPlan.from_spec("dispatch:p=1,error=hang,limit=1")
        target = sorted(live_dataset.hosts)[0]

        async def main():
            async with make_cluster(live_dataset, fault_plan=plan) as cluster:
                estimate = await cluster.localize(target)
                restarted = await wait_for(
                    lambda: all(
                        s["state"] == "live"
                        for s in cluster.health()["shards"].values()
                    )
                    and cluster.health()["restarts_total"] >= 1
                )
                return estimate, restarted, cluster.health()

        estimate, restarted, health = run(main())
        assert estimate.point is not None
        assert restarted, health
        reasons = [s["death_reason"] for s in health["shards"].values()]
        assert any(r and "liveness" in r for r in reasons), reasons

    def test_injected_kill_schedule_full_availability_under_supervision(
        self, live_dataset, reference_answers
    ):
        """A fixed FaultPlan kill schedule: every request still answered.

        ``reply:p=0.35`` keyed by per-shard request ids is a deterministic
        kill schedule (the worker computes the answer, then dies before
        sending).  Under supervision each kill costs a failover or fallback,
        never an unanswered request, and the corpses are restarted.
        """
        plan = FaultPlan.from_spec("seed=5;reply:p=0.35,error=kill")
        targets = sorted(live_dataset.hosts)

        async def main():
            async with make_cluster(live_dataset, fault_plan=plan) as cluster:
                estimates = []
                for i in range(10):
                    estimates.append(await cluster.localize(targets[i % len(targets)]))
                return estimates, cluster.stats, cluster.health()

        estimates, stats, health = run(main())
        for i, estimate in enumerate(estimates):
            expected = reference_answers[targets[i % len(targets)]]
            assert signature(estimate) == signature(expected), f"request {i}"
        assert stats.failed == 0
        assert health["restarts_total"] >= 1, health


# --------------------------------------------------------------------------- #
# fork/spawn parity (the bootstrap carries the chaos plan)
# --------------------------------------------------------------------------- #
class TestStartMethodParity:
    @staticmethod
    async def _chaos_run(dataset, start_method):
        """Same plan, same request sequence; returns (signatures, fault stats)."""
        plan = FaultPlan.from_spec("seed=9;reply:p=0.5,error=none,latency_ms=1")
        targets = sorted(dataset.hosts)[:4]
        cluster = ShardedLocalizationService(
            dataset,
            cluster=ClusterConfig(
                shards=1,
                start_method=start_method,
                heartbeat_interval_s=0.05,
                attempt_timeout_s=15.0,
            ),
            fault_plan=plan,
        )
        async with cluster:
            estimates = [await cluster.localize(t) for t in targets]
            detail = await cluster.health_detail()
        return [signature(e) for e in estimates], detail[0]["faults"]

    def test_fault_schedule_identical_under_fork_and_spawn(self, deployment):
        """The spawn-start satellite fix: a spawned worker inherits nothing,
        so the plan must arrive via the bootstrap -- and produce the *same*
        deterministic schedule a forked worker runs."""
        ids = sorted(deployment.host_ids)[:8]

        async def main():
            fork = await self._chaos_run(
                collect_dataset(small_deployment(host_count=9, seed=11), host_ids=ids),
                "fork",
            )
            spawn = await self._chaos_run(
                collect_dataset(small_deployment(host_count=9, seed=11), host_ids=ids),
                "spawn",
            )
            return fork, spawn

        (fork_sigs, fork_faults), (spawn_sigs, spawn_faults) = run(main())
        assert fork_sigs == spawn_sigs
        # The plan actually fired in BOTH processes (a spawn worker that
        # silently lost its plan would report zero injections)...
        assert fork_faults["delays"].get("reply", 0) > 0
        # ...and fired identically: same seed, same draws, same counters.
        assert fork_faults == spawn_faults
