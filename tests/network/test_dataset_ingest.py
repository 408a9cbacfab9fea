"""Measurement ingest, copy-on-write snapshots and PairMatrixView edge cases.

The online service relies on three dataset-layer contracts:

* ingest extends the index-mapped pair matrices *incrementally* and the
  result is bit-identical to rebuilding them from scratch,
* snapshots are isolated: queries against a snapshot taken before an ingest
  keep seeing exactly the pre-ingest data,
* :class:`PairMatrixView` keeps behaving like the plain dict it replaced
  (missing keys, ``.get`` defaults, iteration order).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network import MeasurementDataset, collect_dataset
from repro.network.dataset import PairMatrixView
from repro.network.planetlab import small_deployment
from repro.network.probes import PingResult


@pytest.fixture(scope="module")
def deployment():
    return small_deployment(host_count=9, seed=21)


@pytest.fixture(scope="module")
def full_dataset(deployment):
    """All nine hosts measured: the source of truth for ingested records."""
    return collect_dataset(deployment)


def eight_host_dataset(deployment):
    """A fresh live dataset covering only the first eight hosts."""
    return collect_dataset(deployment, host_ids=sorted(deployment.host_ids)[:8])


def ninth_host_payload(deployment, full_dataset):
    """The ninth host's record and its pings against the first eight."""
    ids = sorted(deployment.host_ids)
    new_id, kept = ids[8], set(ids[:8])
    pings = [
        p
        for (s, d), p in sorted(full_dataset.pings.items())
        if new_id in (s, d) and (s in kept or d in kept)
    ]
    return full_dataset.hosts[new_id], pings


def touched_since(dataset, version):
    """Hosts touched after ``version``: the union of each delta's ``touched``."""
    deltas = dataset.deltas_since(version)
    if deltas is None:
        return None
    return frozenset().union(*(delta.touched for delta in deltas))


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


class TestPairMatrixViewDictCompat:
    @pytest.fixture()
    def view(self, full_dataset):
        return full_dataset.pairwise_min_rtt()

    @pytest.fixture()
    def legacy(self, full_dataset):
        """The dict this view replaced, built the pre-matrix way."""
        ids = full_dataset.host_ids
        out = {}
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                rtt = full_dataset.min_rtt_ms(a, b)
                if rtt is not None:
                    out[(a, b)] = rtt
        return out

    def test_missing_key_raises(self, view):
        with pytest.raises(KeyError):
            view[("host-nope", "host-also-nope")]

    def test_unmeasured_pair_raises(self, view, full_dataset):
        a = full_dataset.host_ids[0]
        with pytest.raises(KeyError):
            view[(a, a)]  # the diagonal is never a measured pair

    def test_get_returns_default_for_missing(self, view):
        assert view.get(("host-nope", "host-x")) is None
        assert view.get(("host-nope", "host-x"), 123.0) == 123.0

    def test_get_returns_value_for_present(self, view, legacy):
        key = next(iter(legacy))
        assert view.get(key) == legacy[key]

    def test_contains(self, view, legacy):
        key = next(iter(legacy))
        assert key in view
        assert ("host-nope", "host-x") not in view

    def test_iteration_order_matches_legacy_dict(self, view, legacy):
        assert list(view) == list(legacy)
        assert list(view.items()) == list(legacy.items())

    def test_len_matches_legacy(self, view, legacy):
        assert len(view) == len(legacy)

    def test_values_match_legacy(self, view, legacy):
        for key, value in legacy.items():
            assert view[key] == value


class TestSnapshotIsolation:
    def test_snapshot_sees_pre_ingest_data(self, deployment, full_dataset):
        dataset = eight_host_dataset(deployment)
        record, pings = ninth_host_payload(deployment, full_dataset)
        before_hosts = list(dataset.host_ids)
        before_rtt = dataset.pairwise_min_rtt().items()

        snap = dataset.snapshot()
        dataset.ingest(hosts=[record], pings=pings)

        # The live dataset advanced...
        assert record.node_id in dataset.hosts
        assert dataset.version == snap.version + 1
        # ...while the snapshot still sees exactly the old data.
        assert snap.host_ids == before_hosts
        assert record.node_id not in snap.hosts
        assert snap.pairwise_min_rtt().items() == before_rtt
        assert snap.min_rtt_ms(record.node_id, before_hosts[0]) is None

    def test_snapshot_is_immutable(self, deployment, full_dataset):
        dataset = eight_host_dataset(deployment)
        record, pings = ninth_host_payload(deployment, full_dataset)
        snap = dataset.snapshot()
        assert snap.is_snapshot and not dataset.is_snapshot
        with pytest.raises(RuntimeError):
            snap.ingest(hosts=[record], pings=pings)

    def test_snapshot_before_matrices_built(self, deployment, full_dataset):
        dataset = eight_host_dataset(deployment)
        record, pings = ninth_host_payload(deployment, full_dataset)
        snap = dataset.snapshot()  # no matrices built yet
        dataset.ingest(hosts=[record], pings=pings)
        # The snapshot builds its own matrices from its own (old) dicts.
        assert record.node_id not in snap.pairwise_min_rtt().ids
        assert record.node_id in dataset.pairwise_min_rtt().ids


class TestIncrementalIngest:
    def test_matrices_match_full_rebuild(self, deployment, full_dataset):
        dataset = eight_host_dataset(deployment)
        # Force both matrices to exist so ingest takes the incremental path.
        dataset.pairwise_min_rtt()
        dataset.pairwise_distance_km()
        record, pings = ninth_host_payload(deployment, full_dataset)
        dataset.ingest(hosts=[record], pings=pings)

        fresh = rebuilt_like(dataset)
        ids_inc, rtt_inc = dataset.pairwise_min_rtt_matrix()
        ids_fresh, rtt_fresh = fresh.pairwise_min_rtt_matrix()
        assert ids_inc == ids_fresh
        assert np.array_equal(rtt_inc, rtt_fresh, equal_nan=True)

        dist_ids_inc, dist_inc = dataset.pairwise_distance_matrix()
        dist_ids_fresh, dist_fresh = fresh.pairwise_distance_matrix()
        assert dist_ids_inc == dist_ids_fresh
        assert np.array_equal(dist_inc, dist_fresh, equal_nan=True)

        assert dict(dataset.measured_pair_degree()) == dict(
            fresh.measured_pair_degree()
        )

    def test_refreshed_measurement_updates_existing_pair(self, deployment):
        dataset = eight_host_dataset(deployment)
        a, b = dataset.host_ids[0], dataset.host_ids[1]
        dataset.pairwise_min_rtt()
        old = dataset.cached_min_rtt_ms(a, b)
        faster = PingResult(src=a, dst=b, rtts_ms=(old / 2,))
        touched = dataset.ingest(pings=[faster])
        assert touched == {a, b}
        assert dataset.cached_min_rtt_ms(a, b) == old / 2
        assert dataset.min_rtt_ms(a, b) == old / 2

    def test_ping_only_ingest_keeps_distance_matrix(self, deployment):
        """No location changed, so the distance matrix must not be rebuilt."""
        dataset = eight_host_dataset(deployment)
        dataset.pairwise_distance_km()
        before = dataset._distance_view
        a, b = dataset.host_ids[0], dataset.host_ids[1]
        dataset.ingest(pings=[PingResult(src=a, dst=b, rtts_ms=(12.0,))])
        assert dataset._distance_view is before

    def test_lru_overwrite_does_not_evict_neighbors(self):
        from repro._lru import BoundedLRU

        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 3)  # overwrite at capacity
        assert lru.get("a") == 3
        assert lru.get("b") == 2  # survived the overwrite

    def test_router_pings_merge_by_minimum(self, deployment):
        dataset = eight_host_dataset(deployment)
        (host, router), rtt = next(iter(sorted(dataset.router_pings.items())))
        dataset.ingest(router_pings={(host, router): rtt + 5.0})
        assert dataset.router_pings[(host, router)] == rtt  # kept the minimum
        dataset.ingest(router_pings={(host, router): rtt / 2})
        assert dataset.router_pings[(host, router)] == rtt / 2

    def test_touched_since_tracks_versions(self, deployment, full_dataset):
        dataset = eight_host_dataset(deployment)
        record, pings = ninth_host_payload(deployment, full_dataset)
        v0 = dataset.version
        assert touched_since(dataset, v0) == frozenset()
        first = dataset.ingest(pings=pings[:1])
        second = dataset.ingest(hosts=[record])
        assert touched_since(dataset, v0) == first | second
        assert touched_since(dataset, v0 + 1) == second
        assert touched_since(dataset, dataset.version) == frozenset()

    def test_router_record_replacement_forces_full_invalidation(self, deployment):
        from repro.network import NodeRecord

        dataset = eight_host_dataset(deployment)
        v0 = dataset.version
        record = next(iter(sorted(dataset.routers.items())))[1]
        renamed = NodeRecord(
            record.node_id,
            record.ip_address,
            "renamed.example.net",
            record.location,
            record.is_host,
        )
        # A changed router record has no per-host scope: "unknown" forces
        # callers to drop every derived cache entry.
        dataset.ingest(routers=[renamed])
        assert touched_since(dataset, v0) is None
        # Re-ingesting the identical record (and brand-new routers) keeps
        # the selective path working.
        v1 = dataset.version
        dataset.ingest(routers=[renamed])
        assert touched_since(dataset, v1) == frozenset()

    def test_touched_since_unknown_after_log_truncation(self, deployment):
        dataset = eight_host_dataset(deployment)
        a, b = dataset.host_ids[0], dataset.host_ids[1]
        v0 = dataset.version
        for i in range(dataset.TOUCHED_LOG_LIMIT + 2):
            dataset.ingest(pings=[PingResult(src=a, dst=b, rtts_ms=(10.0 + i,))])
        assert touched_since(dataset, v0) is None


class TestLocalizationAfterIngest:
    def test_ingested_target_is_localizable(self, deployment, full_dataset):
        from repro import BatchLocalizer, Octant

        dataset = eight_host_dataset(deployment)
        localizer = BatchLocalizer(Octant(dataset))
        record, pings = ninth_host_payload(deployment, full_dataset)
        old_target = dataset.host_ids[0]
        before = localizer.localize_one(old_target)

        dataset.ingest(hosts=[record], pings=pings)
        estimate = localizer.localize_one(record.node_id)
        assert estimate.point is not None

        # Shared state was rebuilt for the new version, and the pre-ingest
        # target still resolves (against the enlarged landmark pool now).
        assert localizer.shared_state().dataset_version == dataset.version
        after = localizer.localize_one(old_target)
        assert after.point is not None
        assert before.point is not None

    def test_octant_prepared_cache_invalidation(self, deployment):
        from repro import Octant

        dataset = eight_host_dataset(deployment)
        octant = Octant(dataset)
        target = dataset.host_ids[0]
        first = octant.localize(target)
        a, b = dataset.host_ids[1], dataset.host_ids[2]
        old = dataset.min_rtt_ms(a, b)
        dataset.ingest(pings=[PingResult(src=a, dst=b, rtts_ms=(old / 3,))])
        second = octant.localize(target)
        # The landmark set includes the touched hosts: the post-ingest answer
        # is derived from the new measurement, exactly as a fresh Octant's.
        fresh = Octant(dataset).localize(target)
        assert first.point is not None
        assert (second.point, second.constraints_used, second.region_area_km2()) == (
            fresh.point,
            fresh.constraints_used,
            fresh.region_area_km2(),
        )
        assert second.details["max_weight"] == fresh.details["max_weight"]
