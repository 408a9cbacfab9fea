"""Delta-scoped ingest accounting: IngestDelta recording and deltas_since.

The write-optimized measurement plane carries warm cache entries across
ingests by proving their inputs did not change.  That proof is the
:class:`IngestDelta` each ingest records: only measurements whose *value*
an estimator could observe changing enter the delta's scope.  These tests
pin the recording rules (a refreshed ping landing on the same combined
minimum is a no-op), the bounded-window semantics of ``deltas_since``, and
the bit-identity of the vectorized matrix-extension path.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.network import IngestRecord, MeasurementDataset, collect_dataset
from repro.network.dataset import IngestDelta
from repro.network.planetlab import small_deployment
from repro.network.probes import PingResult


@pytest.fixture(scope="module")
def deployment():
    return small_deployment(host_count=9, seed=21)


@pytest.fixture()
def dataset(deployment):
    return collect_dataset(deployment)


def rebuilt_like(dataset):
    """A from-scratch dataset over the same measurement dicts."""
    return MeasurementDataset(
        hosts=dict(dataset.hosts),
        routers=dict(dataset.routers),
        pings=dict(dataset.pings),
        traceroutes=dict(dataset.traceroutes),
        router_pings=dict(dataset.router_pings),
        whois=dataset.whois,
    )


def perturbed(ping: PingResult, shift_ms: float) -> PingResult:
    return dataclasses.replace(
        ping, rtts_ms=tuple(r + shift_ms for r in ping.rtts_ms)
    )


def last_delta(dataset) -> IngestDelta:
    deltas = dataset.deltas_since(dataset.version - 1)
    assert deltas is not None and len(deltas) == 1
    return deltas[0]


class TestDeltaRecording:
    def test_identical_reprobe_has_empty_ping_scope(self, dataset):
        (src, dst), ping = next(iter(sorted(dataset.pings.items())))
        dataset.ingest(pings=[ping])
        delta = last_delta(dataset)
        # Touched (host granularity) still reports both endpoints ...
        assert src in delta.touched and dst in delta.touched
        # ... but no pair changed value, so the delta scope is empty.
        assert delta.ping_pairs == frozenset()
        assert delta.record_hosts == frozenset()

    def test_raised_one_direction_is_noop_when_other_holds_min(self, dataset):
        # Raising one direction's RTTs cannot change the combined minimum
        # when the other direction already holds it.
        key = next(iter(sorted(dataset.pings)))
        a, b = min(key), max(key)
        fwd, bwd = dataset.pings[(a, b)], dataset.pings.get((b, a))
        assert bwd is not None
        loser = (a, b) if fwd.min_rtt_ms >= bwd.min_rtt_ms else (b, a)
        dataset.ingest(pings=[perturbed(dataset.pings[loser], +5.0)])
        assert last_delta(dataset).ping_pairs == frozenset()

    def test_lowered_min_is_recorded_canonically(self, dataset):
        key = next(iter(sorted(dataset.pings)))
        a, b = min(key), max(key)
        dataset.ingest(pings=[perturbed(dataset.pings[(a, b)], -0.5)])
        assert last_delta(dataset).ping_pairs == frozenset({(a, b)})

    def test_new_pair_is_recorded(self, deployment):
        ids = sorted(deployment.host_ids)
        partial = collect_dataset(deployment, host_ids=ids[:8])
        full = collect_dataset(deployment)
        new_id = ids[8]
        record = full.hosts[new_id]
        ping = full.pings[(new_id, ids[0])]
        partial.ingest(hosts=[record], pings=[ping])
        delta = last_delta(partial)
        assert (min(new_id, ids[0]), max(new_id, ids[0])) in delta.ping_pairs
        assert new_id in delta.new_hosts
        assert new_id in delta.record_hosts

    def test_unchanged_host_record_has_empty_record_scope(self, dataset):
        host = sorted(dataset.hosts)[0]
        dataset.ingest(hosts=[dataset.hosts[host]])
        assert last_delta(dataset).record_hosts == frozenset()

    def test_router_min_merge_scopes_only_effective_observers(self, dataset):
        (host, router), rtt = next(iter(sorted(dataset.router_pings.items())))
        # A higher sample loses the min-merge: no observer recorded.
        dataset.ingest(router_pings={(host, router): rtt + 10.0})
        assert last_delta(dataset).router_observers == frozenset()
        # A lower sample wins: the observing host enters the scope.
        dataset.ingest(router_pings={(host, router): rtt - 1.0})
        assert last_delta(dataset).router_observers == frozenset({host})

    def test_router_replacement_forces_unknown(self, dataset):
        router_id = sorted(dataset.routers)[0]
        changed = dataclasses.replace(
            dataset.routers[router_id], dns_name="changed.example.net"
        )
        before = dataset.version
        dataset.ingest(routers=[changed])
        assert dataset.deltas_since(before) is None


class TestDeltasSince:
    def test_up_to_date_returns_empty(self, dataset):
        assert dataset.deltas_since(dataset.version) == ()

    def test_covers_multiple_ingests_in_order(self, dataset):
        base = dataset.version
        pings = sorted(dataset.pings)
        for offset, key in enumerate(pings[:3]):
            dataset.ingest(pings=[perturbed(dataset.pings[key], -0.25)])
        deltas = dataset.deltas_since(base)
        assert [d.version for d in deltas] == [base + 1, base + 2, base + 3]
        assert dataset.deltas_since(base + 2) == deltas[2:]

    def test_window_overflow_returns_none(self, dataset):
        base = dataset.version
        key = sorted(dataset.pings)[0]
        for i in range(MeasurementDataset.TOUCHED_LOG_LIMIT + 1):
            dataset.ingest(pings=[perturbed(dataset.pings[key], -0.01)])
        assert dataset.deltas_since(base) is None
        # The covered tail is still served.
        assert dataset.deltas_since(dataset.version - 2) is not None

    def test_snapshot_thaw_starts_fresh_log(self, dataset):
        live = dataset.snapshot().thaw()
        key = sorted(live.pings)[0]
        live.ingest(pings=[perturbed(live.pings[key], -0.5)])
        assert live.deltas_since(live.version - 1) is not None
        # The window of the thawed copy cannot vouch for older versions.
        assert live.deltas_since(live.version - 2) is None


class TestAffectsRoster:
    def test_ping_pair_must_lie_within_roster(self):
        delta = IngestDelta(
            version=1, touched=frozenset({"a", "b"}), ping_pairs=frozenset({("a", "b")})
        )
        assert delta.affects_roster(frozenset({"a", "b", "c"}))
        # One endpoint outside the roster: the pair is invisible to it.
        assert not delta.affects_roster(frozenset({"a", "c"}))

    def test_record_and_router_scopes_are_per_host(self):
        delta = IngestDelta(
            version=1,
            touched=frozenset({"a"}),
            record_hosts=frozenset({"a"}),
            router_observers=frozenset({"b"}),
        )
        assert delta.affects_roster(frozenset({"a"}))
        assert delta.affects_roster(frozenset({"b"}))
        assert not delta.affects_roster(frozenset({"c"}))

    def test_router_replacement_affects_everything(self):
        delta = IngestDelta(version=1, touched=frozenset(), router_replaced=True)
        assert delta.affects_roster(frozenset())


class TestVectorizedExtension:
    def test_extension_bit_identical_to_rebuild(self, dataset):
        dataset.pairwise_min_rtt()  # build, so ingest extends incrementally
        pings = sorted(dataset.pings)
        payload = [perturbed(dataset.pings[k], -0.75) for k in pings[:5]]
        payload.append(dataset.pings[pings[6]])  # unchanged re-probe
        dataset.ingest(pings=payload)
        extended = dataset.pairwise_min_rtt_matrix()[1]
        rebuilt = rebuilt_like(dataset).pairwise_min_rtt_matrix()[1]
        assert np.array_equal(extended, rebuilt, equal_nan=True)

    def test_extension_with_new_host_bit_identical(self, deployment):
        ids = sorted(deployment.host_ids)
        partial = collect_dataset(deployment, host_ids=ids[:8])
        full = collect_dataset(deployment)
        partial.pairwise_min_rtt()
        new_id = ids[8]
        pings = [
            p
            for (s, d), p in sorted(full.pings.items())
            if new_id in (s, d)
        ]
        partial.ingest(hosts=[full.hosts[new_id]], pings=pings)
        extended = partial.pairwise_min_rtt_matrix()[1]
        rebuilt = rebuilt_like(partial).pairwise_min_rtt_matrix()[1]
        assert np.array_equal(extended, rebuilt, equal_nan=True)


class TestRecordMerge:
    def test_merge_equals_sequential_application(self, deployment):
        live_a = collect_dataset(deployment)
        live_b = collect_dataset(deployment)
        keys = sorted(live_a.pings)
        records = [
            IngestRecord.capture(pings=[perturbed(live_a.pings[keys[0]], -0.5)]),
            IngestRecord.capture(pings=[perturbed(live_a.pings[keys[0]], -1.0)]),
            IngestRecord.capture(
                pings=[perturbed(live_a.pings[keys[1]], -0.25)],
                router_pings=dict([next(iter(sorted(live_a.router_pings.items())))]),
            ),
        ]
        for record in records:
            record.apply(live_a)
        merged = IngestRecord.merge(records)
        merged.apply(live_b)
        assert live_a.pings == live_b.pings
        assert live_a.router_pings == live_b.router_pings
        assert live_a.hosts == live_b.hosts
        # One version bump for the merged burst, three for the sequence.
        assert live_a.version == 3 and live_b.version == 1
        matrix_a = live_a.pairwise_min_rtt_matrix()[1]
        matrix_b = live_b.pairwise_min_rtt_matrix()[1]
        assert np.array_equal(matrix_a, matrix_b, equal_nan=True)

    def test_touched_is_what_apply_returns(self, dataset):
        ping = dataset.pings[sorted(dataset.pings)[0]]
        trace = dataset.traceroutes[sorted(dataset.traceroutes)[-1]]
        host = dataset.hosts[sorted(dataset.hosts)[-1]]
        record = IngestRecord.capture(
            hosts=[host],
            pings=[perturbed(ping, -0.5)],
            traceroutes=[trace],
            router_pings=dict([next(iter(sorted(dataset.router_pings.items())))]),
        )
        assert record.touched == record.apply(dataset)
        assert record.touched == dataset.deltas_since(dataset.version - 1)[0].touched
