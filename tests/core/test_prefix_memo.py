"""The fused solver's geographic-prefix memo.

The ocean and uninhabited rings sort first in every solve and depend on no
measurement, so ``FusedSolverKernel`` memoizes its piece buffer after them
(``repro.geometry.kernel.prefix_key``).  These tests pin the contract: a
resumed solve is bit-identical to a cold one, anything that could change
the prefix state changes the key while a measurement change does not,
configurations without a prefix store nothing, and the memo stays within
its bound with read-only entries.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import BatchLocalizer, Octant, OctantConfig, SolverConfig, collect_dataset
from repro._lru import BoundedLRU
from repro.core import PlanarConstraint
from repro.core.solver import solve_systems
from repro.geometry import AzimuthalEquidistantProjection, GeoPoint
from repro.geometry.kernel import PREFIX_MEMO_CAPACITY, prefix_key
from repro.network.planetlab import small_deployment


@pytest.fixture(scope="module")
def dataset():
    return collect_dataset(small_deployment(host_count=8, seed=5))


def presolved_systems(dataset, config, count=3):
    """``(planar, projection, prefix_length)`` for the first targets."""
    octant = Octant(dataset, config)
    localizer = BatchLocalizer(octant)
    out = []
    for target in dataset.host_ids[:count]:
        presolved = octant.presolve(
            target, prepared=localizer.prepare_for_target(target)
        )
        planar = presolved.planar
        out.append(
            (planar, presolved.projection, octant.pipeline._prefix_length(planar))
        )
    return out


@pytest.fixture(scope="module")
def systems(dataset):
    return presolved_systems(dataset, OctantConfig())


def answer(region, diagnostics):
    """Everything an answer exposes, bit for bit."""
    return (
        [(p.weight, p.polygon.coords) for p in region.pieces],
        diagnostics.constraints_applied,
        diagnostics.constraints_skipped,
        list(diagnostics.dropped_constraints),
        diagnostics.max_pieces_seen,
        diagnostics.final_piece_count,
        diagnostics.max_weight,
        diagnostics.selected_weight,
    )


def cold(config, system):
    planar, projection, _n = system
    ((region, diagnostics),) = solve_systems(config, [(planar, projection)])
    assert diagnostics.prefix_memo is None
    return answer(region, diagnostics)


def memoized(config, systems, memo):
    results = solve_systems(
        config, [(p, proj) for p, proj, _n in systems], memo, [n for *_s, n in systems]
    )
    return [(answer(r, d), d.prefix_memo) for r, d in results]


def test_prefix_is_the_geographic_rings(systems):
    for planar, _projection, n in systems:
        assert n == 18
        assert all(c.label.startswith(("ocean:", "uninhabited:")) for c in planar[:n])
        assert not planar[n].label.startswith(("ocean:", "uninhabited:"))


def test_width_two_cohort_hit_and_miss_match_cold_solves(systems):
    config = SolverConfig()
    hit_system, miss_system = systems[0], systems[1]
    memo = BoundedLRU(PREFIX_MEMO_CAPACITY)
    ((_first, outcome),) = memoized(config, [hit_system], memo)
    assert outcome == "miss" and len(memo) == 1

    (hit, hit_outcome), (miss, miss_outcome) = memoized(
        config, [hit_system, miss_system], memo
    )
    assert (hit_outcome, miss_outcome) == ("hit", "miss")
    assert hit == cold(config, hit_system)
    assert miss == cold(config, miss_system)
    assert len(memo) == 2


def test_hit_reports_only_the_work_done(systems):
    config = SolverConfig()
    memo = BoundedLRU(PREFIX_MEMO_CAPACITY)
    planar, projection, n = systems[0]
    runs = [
        solve_systems(config, [(planar, projection)], memo, [n])[0][1]
        for _ in range(2)
    ]
    miss, hit = (d.kernel_summary() for d in runs)
    assert (miss["prefix_memo"], hit["prefix_memo"]) == ("miss", "hit")
    counters = ("prefilter_bbox", "prefilter_inside", "prefilter_outside")
    assert sum(hit[c] for c in counters) < sum(miss[c] for c in counters)


@pytest.mark.parametrize(
    "change",
    [
        {"max_pieces": 12},
        {"circle_segments": 24},
    ],
    ids=["max_pieces", "circle_segments"],
)
def test_config_change_is_a_miss(systems, change):
    base = SolverConfig()
    changed = replace(base, **change)
    memo = BoundedLRU(PREFIX_MEMO_CAPACITY)
    memoized(base, systems[:1], memo)
    ((result, outcome),) = memoized(changed, systems[:1], memo)
    assert outcome == "miss"
    assert result == cold(changed, systems[0])
    assert len(memo) == 2


def test_measurement_radius_change_still_hits(systems):
    """The churn case: a write that moves an RTT moves one disk's radius.

    Every solve starts from the same world square, so the rings' state
    does not depend on any measurement: the changed system resumes from
    the first one's prefix and still equals its cold solve.
    """
    config = SolverConfig()
    planar, projection, n = systems[0]
    # The widest measured disk, grown by a tenth about its centroid.
    i = max(
        (k for k in range(n, len(planar)) if planar[k].inclusion is not None),
        key=lambda k: planar[k].inclusion.area(),
    )
    changed = planar[i]
    churned = list(planar)
    churned[i] = PlanarConstraint(
        changed.inclusion.scaled(1.1, changed.inclusion.centroid()),
        changed.exclusion,
        changed.weight,
        changed.label,
    )
    memo = BoundedLRU(PREFIX_MEMO_CAPACITY)
    memoized(config, [systems[0]], memo)
    ((result, outcome),) = memoized(config, [(churned, projection, n)], memo)
    assert outcome == "hit" and len(memo) == 1
    assert result == cold(config, (churned, projection, n))


def test_projection_centre_change_is_a_miss(systems):
    config = SolverConfig()
    planar, projection, n = systems[0]
    moved = AzimuthalEquidistantProjection(GeoPoint(10.0, 20.0))
    same = prefix_key(config, projection, planar[:n])
    assert same == prefix_key(config, projection, list(planar[:n]))
    assert prefix_key(config, moved, planar[:n]) != same

    memo = BoundedLRU(PREFIX_MEMO_CAPACITY)
    solve_systems(config, [(planar, projection)], memo, [n])
    ((_region, diagnostics),) = solve_systems(config, [(planar, moved)], memo, [n])
    assert diagnostics.prefix_memo == "miss"


def test_unkeyable_projection_gets_no_memo(systems):
    class Unkeyed(AzimuthalEquidistantProjection):
        def cache_key(self):
            return None

    planar, _projection, n = systems[0]
    memo = BoundedLRU(PREFIX_MEMO_CAPACITY)
    ((_r, diagnostics),) = solve_systems(
        SolverConfig(), [(planar, Unkeyed(GeoPoint(40.0, -95.0)))], memo, [n]
    )
    assert diagnostics.prefix_memo is None
    assert len(memo) == 0


def test_latency_only_has_no_prefix_and_stores_nothing(dataset):
    octant = Octant(dataset, OctantConfig.latency_only())
    target = dataset.host_ids[0]
    for _ in range(2):
        estimate = octant.localize(target)
        assert estimate.details["kernel"]["prefix_memo"] is None
    assert len(octant.pipeline._prefix_memo) == 0
    stats = octant.pipeline.stats
    assert (stats.prefix_memo_hits, stats.prefix_memo_misses) == (0, 0)


def test_octant_localize_hits_on_repeat(dataset):
    octant = Octant(dataset)
    target = dataset.host_ids[0]
    first = octant.localize(target)
    second = octant.localize(target)
    assert first.details["kernel"]["prefix_memo"] == "miss"
    assert second.details["kernel"]["prefix_memo"] == "hit"
    assert second.details["dropped_constraints"] == first.details["dropped_constraints"]
    assert (second.point.lat, second.point.lon) == (first.point.lat, first.point.lon)
    assert second.region.area_km2() == first.region.area_km2()
    assert second.constraints_used == first.constraints_used
    stats = octant.pipeline.stats
    assert (stats.prefix_memo_hits, stats.prefix_memo_misses, stats.runs) == (1, 1, 2)


def test_object_engine_ignores_the_memo(systems):
    memo = BoundedLRU(PREFIX_MEMO_CAPACITY)
    planar, projection, n = systems[0]
    ((_r, diagnostics),) = solve_systems(
        SolverConfig(engine="object"), [(planar, projection)], memo, [n]
    )
    assert diagnostics.prefix_memo is None
    assert len(memo) == 0


def test_memo_never_exceeds_its_bound(systems):
    memo = BoundedLRU(2)
    for max_pieces in (12, 14, 16, 18):
        memoized(SolverConfig(max_pieces=max_pieces), systems, memo)
        assert len(memo) <= 2


def test_default_memo_is_bounded_by_the_module_constant(dataset):
    assert Octant(dataset).pipeline._prefix_memo.capacity == PREFIX_MEMO_CAPACITY


def test_memoized_buffer_is_read_only(systems):
    memo = BoundedLRU(PREFIX_MEMO_CAPACITY)
    memoized(SolverConfig(), systems[:1], memo)
    ((_key, state),) = memo.items()
    buffer = state.buffer
    X, Y, counts = buffer.padded()
    arrays = (
        buffer.xs,
        buffer.ys,
        buffer.offsets,
        buffer.weights,
        buffer.signed_areas,
        buffer.bboxes,
        X,
        Y,
        counts,
    )
    for array in arrays:
        # A compact copy, not a view into a cohort's pooled arrays.
        assert array.base is None
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]


def test_threads_sharing_one_memo_get_cold_answers(dataset, systems):
    """Executor threads share one pipeline and memo: answers and counts hold."""
    import sys
    import threading

    octant = Octant(dataset)
    pipeline = octant.pipeline
    expected = [cold(SolverConfig(), system) for system in systems]
    rounds, workers = 3, 4
    failures: list[str] = []

    def work(offset: int) -> None:
        for r in range(rounds):
            i = (offset + r) % len(systems)
            planar, projection, _n = systems[i]
            region, diagnostics = pipeline.solve(planar, projection)
            if answer(region, diagnostics) != expected[i]:
                failures.append(f"system {i} differs")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    stats = pipeline.stats
    assert stats.prefix_memo_hits + stats.prefix_memo_misses == rounds * workers
    assert len(pipeline._prefix_memo) == len(systems)
