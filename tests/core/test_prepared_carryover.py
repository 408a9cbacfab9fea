"""adopt_caches: delta-scoped carry of warm state across snapshot swaps.

A prepared entry is a pure function of its roster's measurements, so it
may cross an ingest iff the recorded deltas prove no input changed.
These tests pin the survival rule at the unit level: what carries, what
dies, that survivors are the *same objects* re-keyed to the new version,
and that a carried entry answers bit-identically to a fresh derivation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import BatchLocalizer, Octant, collect_dataset
from repro.network.planetlab import small_deployment


@pytest.fixture(scope="module")
def deployment():
    return small_deployment(host_count=9, seed=29)


@pytest.fixture()
def live(deployment):
    return collect_dataset(deployment, host_ids=sorted(deployment.host_ids)[:8])


def localizer_for(live):
    return BatchLocalizer(Octant(live.snapshot()), prepared_cache_size=64)


def signature(estimate):
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
    )


def forced_lower(live, a, b, drop_ms=1.0):
    """A re-probe guaranteed to lower the pair's combined minimum."""
    return dataclasses.replace(
        live.pings[(a, b)], rtts_ms=(live.min_rtt_ms(a, b) - drop_ms,)
    )


def cached_entry(localizer, key):
    with localizer._prepared_lock:
        return localizer._prepared_cache.get(key)


class TestSurvivalRule:
    def test_survivor_is_same_object_rekeyed(self, live):
        ids = sorted(live.host_ids)
        pool, target = ids[:5], ids[5]
        old = localizer_for(live)
        old.localize_one(target, landmark_pool=pool)
        pool_key = tuple(sorted(pool))
        entry = cached_entry(old, (live.version, target, pool_key))
        assert entry is not None

        base = live.version
        live.ingest(pings=[forced_lower(live, ids[6], ids[7])])  # outside pool
        fresh = localizer_for(live)
        stats = fresh.adopt_caches(old, live.deltas_since(base))
        assert stats["full"] is False
        assert stats["prepared_carried"] == 1
        assert stats["prepared_evicted"] == 0
        carried = cached_entry(fresh, (live.version, target, pool_key))
        assert carried is entry

    def test_roster_churn_evicts(self, live):
        ids = sorted(live.host_ids)
        pool, target = ids[:5], ids[5]
        old = localizer_for(live)
        old.localize_one(target, landmark_pool=pool)

        base = live.version
        live.ingest(pings=[forced_lower(live, ids[0], ids[1])])  # in the roster
        fresh = localizer_for(live)
        stats = fresh.adopt_caches(old, live.deltas_since(base))
        assert stats["prepared_carried"] == 0
        assert stats["prepared_evicted"] == 1

    def test_new_host_kills_implicit_pool_entries_only(self, deployment, live):
        ids = sorted(deployment.host_ids)
        full = collect_dataset(deployment)
        pool, target = ids[:5], ids[5]
        old = localizer_for(live)
        old.localize_one(target)  # implicit leave-one-out entry
        old.localize_one(target, landmark_pool=pool)  # explicit-pool entry

        base = live.version
        new_id = ids[8]
        pings = [
            p
            for (s, d), p in sorted(full.pings.items())
            if new_id in (s, d) and (s in set(ids[:8]) or d in set(ids[:8]))
        ]
        live.ingest(hosts=[full.hosts[new_id]], pings=pings)
        fresh = localizer_for(live)
        stats = fresh.adopt_caches(old, live.deltas_since(base))
        # The cohort itself changed: the implicit entry's roster is stale.
        # The explicit pool excludes the newcomer, so that entry carries.
        assert stats["prepared_carried"] == 1
        assert stats["prepared_evicted"] == 1
        pool_key = tuple(sorted(pool))
        assert cached_entry(fresh, (live.version, target, pool_key)) is not None
        assert cached_entry(fresh, (live.version, target, None)) is None

    def test_none_deltas_carry_nothing(self, live):
        ids = sorted(live.host_ids)
        old = localizer_for(live)
        old.localize_one(ids[0])
        old.localize_one(ids[1])

        live.ingest(pings=[forced_lower(live, ids[2], ids[3])])
        fresh = localizer_for(live)
        stats = fresh.adopt_caches(old, None)
        assert stats["full"] is True
        assert stats["prepared_carried"] == 0
        assert stats["prepared_evicted"] == 2
        assert stats["tables_carried"] == 0
        assert stats["dns_carried"] == 0


class TestCarriedStateCorrectness:
    def test_carried_entry_answers_bit_identically(self, live):
        ids = sorted(live.host_ids)
        pool, target = ids[:5], ids[5]
        old = localizer_for(live)
        old.localize_one(target, landmark_pool=pool)

        base = live.version
        live.ingest(pings=[forced_lower(live, ids[6], ids[7])])
        adopted = localizer_for(live)
        adopted.adopt_caches(old, live.deltas_since(base))
        derived = localizer_for(live)  # no carry: derives from scratch

        warm = adopted.localize_one(target, landmark_pool=pool)
        cold = derived.localize_one(target, landmark_pool=pool)
        adopted_stats = adopted.octant.pipeline.stats
        derived_stats = derived.octant.pipeline.stats
        assert (adopted_stats.prepared_hits, adopted_stats.prepared_misses) == (1, 0)
        assert (derived_stats.prepared_hits, derived_stats.prepared_misses) == (0, 1)
        assert signature(warm) == signature(cold)

    def test_dns_cache_transfers_wholesale(self, live):
        ids = sorted(live.host_ids)
        old = localizer_for(live)
        old.localize_one(ids[0])
        dns_size = len(old._shared.dns_cache)

        base = live.version
        live.ingest(pings=[forced_lower(live, ids[2], ids[3])])
        fresh = localizer_for(live)
        stats = fresh.adopt_caches(old, live.deltas_since(base))
        assert stats["dns_carried"] == dns_size
        if dns_size:
            assert fresh.shared_state().dns_cache == old._shared.dns_cache
