"""Tests for the batch leave-one-out localization engine.

The central property: for every target, :class:`BatchLocalizer`'s
cohort-derived leave-one-out estimate is *identical* (point
coordinates, region area, selected weight, constraint counts) to the
from-scratch reference (:func:`repro.core.reference.reference_localize`),
which re-derives every landmark's state with the scalar estimators.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import BatchLocalizer, Octant, OctantConfig, collect_dataset, small_deployment
from repro.core import batch as batch_module
from repro.core.batch import failed_estimate, localize_many
from repro.core.reference import reference_localize, reference_prepare
from repro.geometry import GeoPoint
from repro.network.dataset import MeasurementDataset, NodeRecord
from repro.network.probes import PingResult
from repro.resilience.faults import FaultPlan


def estimate_signature(estimate):
    """Everything that must match between the batch and sequential paths."""
    return (
        estimate.target_id,
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
        None if estimate.region is None else len(estimate.region.pieces),
        estimate.details.get("max_weight"),
        estimate.details.get("landmark_count"),
        estimate.details.get("target_height_ms"),
    )


@pytest.fixture(scope="module")
def dataset():
    return collect_dataset(small_deployment(host_count=10, seed=23))


class TestBatchSequentialEquality:
    def test_full_config_identical(self, dataset):
        """localize_all matches the from-scratch reference, solved both by
        the fused kernel and by the scalar reference solve."""
        config = OctantConfig()
        sequential = Octant(dataset, config)
        results = BatchLocalizer(Octant(dataset, config)).localize_all()
        assert list(results) == dataset.host_ids
        for scalar_solve in (False, True):
            for target in dataset.host_ids:
                expected = reference_localize(
                    sequential, target, scalar_solve=scalar_solve
                )
                assert estimate_signature(results[target]) == estimate_signature(
                    expected
                ), (scalar_solve, target)

    def test_latency_only_config_identical(self, dataset):
        config = OctantConfig.latency_only()
        sequential = Octant(dataset, config)
        results = BatchLocalizer(Octant(dataset, config)).localize_all(
            dataset.host_ids[:4]
        )
        for target in dataset.host_ids[:4]:
            expected = reference_localize(sequential, target)
            assert estimate_signature(results[target]) == estimate_signature(expected)

    def test_landmark_pool_identical(self, dataset):
        """The Figure 4 sweep path: a restricted landmark population."""
        pool = dataset.host_ids[:6]
        config = OctantConfig()
        sequential = Octant(dataset, config)
        batch = BatchLocalizer(Octant(dataset, config))
        for target in dataset.host_ids[:4]:
            landmark_set = [lid for lid in pool if lid != target]
            expected = reference_localize(sequential, target, landmark_set)
            derived = batch.localize_one(target, landmark_pool=pool)
            assert estimate_signature(derived) == estimate_signature(expected)

    def test_prepared_state_identical(self, dataset):
        """The derived PreparedLandmarks matches a from-scratch derivation."""
        target = dataset.host_ids[0]
        landmarks = dataset.landmark_ids_excluding(target)
        sequential = reference_prepare(Octant(dataset, OctantConfig()), landmarks)
        derived = BatchLocalizer(Octant(dataset, OctantConfig())).prepare_for_target(
            target
        )
        assert derived.landmark_ids == sequential.landmark_ids
        assert derived.locations == sequential.locations
        assert derived.heights is not None and sequential.heights is not None
        assert derived.heights.heights_ms == sequential.heights.heights_ms
        assert derived.heights.residual_ms == sequential.heights.residual_ms
        assert derived.calibrations.landmark_ids() == sequential.calibrations.landmark_ids()
        for lid in derived.calibrations.landmark_ids():
            a = derived.calibrations.get(lid)
            b = sequential.calibrations.get(lid)
            assert a.cutoff_ms == b.cutoff_ms
            assert a.upper.breakpoints == b.upper.breakpoints
            assert a.lower.breakpoints == b.lower.breakpoints
        assert set(derived.router_positions) == set(sequential.router_positions)
        for rid, position in derived.router_positions.items():
            assert position == sequential.router_positions[rid]

    def test_workers_deterministic(self, dataset):
        """Concurrent localize_one on one shared localizer matches serial.

        Mirrors the serving executor: many threads drive one warm
        ``BatchLocalizer`` (shared state, prepared cache, circle cache).
        """
        serial = BatchLocalizer(Octant(dataset, OctantConfig())).localize_all()
        shared = BatchLocalizer(
            Octant(dataset, OctantConfig()), prepared_cache_size=64
        )
        targets = dataset.host_ids * 2  # repeats exercise the warm caches
        with ThreadPoolExecutor(3) as pool:
            threaded = list(pool.map(shared.localize_one, targets))
        for target, estimate in zip(targets, threaded):
            assert estimate_signature(estimate) == estimate_signature(serial[target])


class _TickClock:
    """A ``time`` stand-in whose ``perf_counter`` advances 1 s per reading,
    per thread, so every timed stage of a call records exactly 1 s."""

    def __init__(self):
        self._local = threading.local()

    def perf_counter(self):
        self._local.ticks = getattr(self._local, "ticks", 0.0) + 1.0
        return self._local.ticks


class TestPipelineCounters:
    def test_concurrent_prepare_many_counts_every_call(self, dataset, monkeypatch):
        """Threads sharing one pipeline: the counters sum every call's work."""
        monkeypatch.setattr(batch_module, "time", _TickClock())
        octant = Octant(dataset)
        cold = BatchLocalizer(octant)
        warm = BatchLocalizer(octant, prepared_cache_size=64)
        cohort = dataset.host_ids[:4]
        stats = octant.pipeline.stats
        warm.prepare_many(cohort)
        before = stats.snapshot()
        cold.prepare_many(cohort)
        after_one = stats.snapshot()
        stages = ("heights_seconds", "calibration_seconds", "piecewise_seconds")
        one_call = {name: after_one[name] - before[name] for name in stages}
        assert all(one_call.values()), one_call
        rounds, workers = 3, 4

        def work() -> None:
            for _ in range(rounds):
                cold.prepare_many(cohort)
                warm.prepare_many(cohort)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        totals = stats.snapshot()
        calls = rounds * workers
        for name in stages:
            assert totals[name] - after_one[name] == calls * one_call[name], name
        hits = totals["prepared_hits"] - after_one["prepared_hits"]
        assert hits == calls * len(cohort)
        assert totals["prepared_misses"] == after_one["prepared_misses"]

    def test_localize_all_reuses_the_kept_batch_localizer(self, dataset, monkeypatch):
        built = []
        original = batch_module.BatchSharedState

        def counting(*args, **kwargs):
            built.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(batch_module, "BatchSharedState", counting)
        octant = Octant(dataset, OctantConfig.latency_only())
        targets = dataset.host_ids[:3]
        first = octant.localize_all(targets)
        second = octant.localize_all(targets)
        assert len(built) == 1
        for target in targets:
            assert estimate_signature(first[target]) == estimate_signature(
                second[target]
            )


def _synthetic_dataset(pairs):
    """A hand-built dataset with exactly the given measured host pairs.

    Hosts h0..h5 sit at distinct locations; ``pairs`` lists (a, b, rtt_ms).
    """
    coords = [
        (40.7, -74.0),
        (41.9, -87.6),
        (33.7, -84.4),
        (47.6, -122.3),
        (39.7, -105.0),
        (30.3, -97.7),
    ]
    dataset = MeasurementDataset()
    for i, (lat, lon) in enumerate(coords):
        host = f"h{i}"
        dataset.hosts[host] = NodeRecord(
            node_id=host,
            ip_address=f"10.0.0.{i + 1}",
            dns_name=f"{host}.example.net",
            location=GeoPoint(lat, lon),
            is_host=True,
        )
    for a, b, rtt in pairs:
        dataset.pings[(a, b)] = PingResult(a, b, (rtt, rtt + 1.0))
    return dataset


class TestMaskedEdgeCases:
    def test_masked_heights_fall_away(self):
        """Excluding a hub host starves height estimation for that mask only.

        h0 participates in most measured pairs; leaving h0 out drops the
        masked pair count below the landmark count, so heights must be None
        for h0's leave-one-out view but present for other targets -- in the
        batch path and the reference, with identical estimates.
        """
        pairs = [
            ("h0", "h1", 18.0),
            ("h0", "h2", 25.0),
            ("h0", "h3", 60.0),
            ("h0", "h4", 40.0),
            ("h0", "h5", 35.0),
            ("h1", "h2", 21.0),
            ("h1", "h3", 55.0),
            ("h1", "h4", 38.0),
            ("h1", "h5", 30.0),
            ("h2", "h3", 58.0),
            ("h2", "h4", 36.0),
            ("h2", "h5", 24.0),
            ("h3", "h4", 28.0),
        ]
        dataset = _synthetic_dataset(pairs)
        config = OctantConfig(use_piecewise=False, use_whois=False)
        sequential = Octant(dataset, config)
        batch = BatchLocalizer(Octant(dataset, config))

        # Masking h5 keeps enough pairs: heights present in both paths.
        with_heights = batch.prepare_for_target("h5")
        assert with_heights.heights is not None
        assert (
            reference_prepare(sequential, dataset.landmark_ids_excluding("h5")).heights
            is not None
        )

        # Masking h0 removes five measured pairs: 13 - 5 = 8 pairs for 5
        # landmarks still works, so starve it further by masking h1 via a
        # pool: landmarks h2..h5 have pairs (h2,h3),(h2,h4),(h2,h5),(h3,h4)
        # = 4 pairs >= 4 landmarks -- still enough.  The real starvation
        # case: pool h3..h5 plus h2 as target leaves 3 landmarks with only
        # one measured pair.
        pool = ["h2", "h3", "h4", "h5"]
        derived = batch.prepare_for_target("h2", landmark_pool=pool)
        expected = reference_prepare(sequential, ["h3", "h4", "h5"])
        assert derived.heights is None and expected.heights is None

        for target in ("h0", "h2", "h5"):
            got = batch.localize_one(target)
            want = reference_localize(sequential, target)
            assert estimate_signature(got) == estimate_signature(want)

    def test_masked_calibration_skips_starved_landmarks(self):
        """Landmarks with fewer than 3 samples under the mask are uncalibrated."""
        pairs = [
            ("h0", "h1", 18.0),
            ("h0", "h2", 25.0),
            ("h0", "h3", 60.0),
            ("h0", "h4", 40.0),
            ("h0", "h5", 35.0),
            ("h1", "h2", 21.0),
        ]
        dataset = _synthetic_dataset(pairs)
        config = OctantConfig(use_piecewise=False, use_whois=False)
        sequential = Octant(dataset, config)
        batch = BatchLocalizer(Octant(dataset, config))
        for target in ("h5", "h3"):
            derived = batch.prepare_for_target(target)
            expected = reference_prepare(
                sequential, dataset.landmark_ids_excluding(target)
            )
            if expected.heights is None:
                assert derived.heights is None
            else:
                assert derived.heights is not None
                assert derived.heights.heights_ms == expected.heights.heights_ms
            # Only the hub h0 accumulates >= 3 samples under these masks;
            # every spoke landmark is skipped, identically in both paths.
            assert derived.calibrations.landmark_ids() == expected.calibrations.landmark_ids()
            assert derived.calibrations.landmark_ids() == ["h0"]
            got = batch.localize_one(target)
            want = reference_localize(sequential, target)
            assert estimate_signature(got) == estimate_signature(want)


class TestFailureCapture:
    def test_too_few_landmarks_is_recorded_not_raised(self):
        dataset = collect_dataset(small_deployment(host_count=3, seed=5))
        octant = Octant(dataset, OctantConfig())
        with pytest.raises(ValueError):
            octant.localize(dataset.host_ids[0])  # sequential still raises
        results = octant.localize_all()
        assert set(results) == set(dataset.host_ids)
        for estimate in results.values():
            assert estimate.point is None
            assert not estimate.succeeded
            assert "landmarks" in estimate.details["error"]

    def test_partial_failure_keeps_going(self):
        dataset = collect_dataset(small_deployment(host_count=8, seed=5))
        unlocated = dataset.host_ids[3]
        dataset.hosts[unlocated] = dataset.hosts[unlocated].with_location(None)
        results = Octant(dataset, OctantConfig.latency_only()).localize_all()
        # Every target whose landmark set includes the unlocated host fails;
        # the unlocated host itself (which excludes itself) succeeds.
        assert results[unlocated].succeeded
        for target in dataset.host_ids:
            if target == unlocated:
                continue
            assert results[target].point is None
            assert "error" in results[target].details

    def test_failed_estimate_shape(self):
        estimate = failed_estimate("h1", "octant", ValueError("boom"))
        assert estimate.point is None
        assert estimate.region is None
        assert estimate.details["error"] == "boom"
        assert estimate.error_miles(GeoPoint(0.0, 0.0)) == float("inf")
        assert not estimate.contains_true_location(GeoPoint(0.0, 0.0))

    def test_localize_many_baseline_capture(self, dataset):
        class Flaky:
            def localize(self, target_id):
                raise ValueError(f"cannot localize {target_id}")

        results = localize_many(Flaky(), dataset.host_ids[:2], method="flaky")
        assert all(r.point is None for r in results.values())
        assert all("cannot localize" in r.details["error"] for r in results.values())


class _RecordingPlan(FaultPlan):
    """A fault plan that injects nothing and records every stage crossing."""

    def __init__(self):
        super().__init__([])
        self.crossings: list[tuple[str, object]] = []

    def fire(self, stage, key=None):
        self.crossings.append((stage, key))


class TestFaultScheduleKeys:
    """Seeded fault draws are keyed ``(stage, key)``: every checkpoint a
    request crosses must carry its target id, whatever cohort it rides in."""

    def test_localize_one_crossings(self, dataset):
        localizer = BatchLocalizer(dataset)
        localizer.fault_plan = _RecordingPlan()
        target = dataset.host_ids[0]
        localizer.localize_one(target)
        assert localizer.fault_plan.crossings == [
            ("prepare", target),
            ("prepare", target),
            ("assemble", target),
            ("planarize", target),
            ("solve", target),
        ]

    def test_solve_many_crossings_keyed_per_target(self, dataset):
        localizer = BatchLocalizer(dataset)
        localizer.fault_plan = _RecordingPlan()
        cohort = dataset.host_ids[:3]
        localizer.solve_many(cohort)
        crossings = localizer.fault_plan.crossings
        for stage, count in (
            ("prepare", 2), ("assemble", 1), ("planarize", 1), ("solve", 1)
        ):
            keys = [key for s, key in crossings if s == stage]
            assert sorted(keys) == sorted(cohort * count), stage
