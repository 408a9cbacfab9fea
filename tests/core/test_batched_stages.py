"""Cohort-axis stage estimators are bit-identical to their scalar references.

Every pre-solve stage grew a ``*_many`` batched form for the cohort-axis
pipeline (heights, calibration, piecewise router localization, constraint
planarization) and ``BatchLocalizer.solve_many`` composes them end to end.
The scalar paths stay the reference semantics; these suites pin the batched
forms to them bit for bit over randomized rosters, including the degenerate
cohorts the pipeline must survive: cohorts of one, all-failed cohorts, and
leave-one-out mask exclusions.
"""

from __future__ import annotations

import random

import pytest

from repro import BatchLocalizer, Octant, collect_dataset
from repro.core.calibration import (
    build_calibration_set,
    build_calibration_sets_many,
)
from repro.core.heights import (
    HeightModel,
    TargetHeightTables,
    estimate_landmark_heights,
    estimate_landmark_heights_many,
    estimate_target_height,
    estimate_target_height_tabled,
)
from repro.core.reference import reference_prepare, reference_pseudo_target_heights
from repro.core.piecewise import RouterLocalizer, localize_routers_many
from repro.geometry import GeoPoint
from repro.network.planetlab import small_deployment


@pytest.fixture(scope="module")
def dataset():
    return collect_dataset(small_deployment(host_count=10, seed=23))


@pytest.fixture(scope="module")
def localizer(dataset):
    return BatchLocalizer(dataset)


def loo_rosters(dataset, shared):
    """One leave-one-out landmark roster per host, as prepare_many builds them."""
    rosters = []
    for target in dataset.host_ids:
        key = tuple(lid for lid in dataset.host_ids if lid != target)
        rosters.append((target, key, {lid: shared.locations[lid] for lid in key}))
    return rosters


def estimate_signature(estimate):
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
        estimate.details.get("target_height_ms"),
        estimate.details.get("reason"),
        estimate.details.get("error_type"),
    )


def calibration_signature(calibration_set):
    def facet(fn):
        return (tuple(fn._xs), tuple(fn._ys))

    return {
        lid: (
            facet(cal.upper),
            facet(cal.lower),
            cal.cutoff_ms,
            cal.upper_slope_beyond_cutoff,
            cal.sample_count,
            cal.slack,
        )
        for lid, cal in calibration_set._calibrations.items()
    }


def planar_signature(planar):
    def poly(p):
        return None if p is None else tuple(p.coords)

    return [
        (poly(c.inclusion), poly(c.exclusion), c.weight, c.label) for c in planar
    ]


class TestHeightsStage:
    def test_landmark_heights_many_matches_scalar(self, dataset, localizer):
        shared = localizer.shared_state()
        rosters = loo_rosters(dataset, shared)
        batched = estimate_landmark_heights_many(
            [locs for _, _, locs in rosters],
            shared.rtt_matrix,
            distance_km=dataset.cached_distance_km,
        )
        for (target, _key, locs), model in zip(rosters, batched):
            scalar = estimate_landmark_heights(
                locs, shared.rtt_matrix, distance_km=dataset.cached_distance_km
            )
            assert isinstance(model, HeightModel)
            assert model.heights_ms == scalar.heights_ms, target
            assert model.residual_ms == scalar.residual_ms, target

    def test_undersized_roster_captured_as_value_error(self, dataset, localizer):
        shared = localizer.shared_state()
        ids = dataset.host_ids
        good = {lid: shared.locations[lid] for lid in ids[1:]}
        tiny = {lid: shared.locations[lid] for lid in ids[:2]}
        batched = estimate_landmark_heights_many(
            [good, tiny], shared.rtt_matrix, distance_km=dataset.cached_distance_km
        )
        assert isinstance(batched[0], HeightModel)
        assert isinstance(batched[1], ValueError)
        with pytest.raises(ValueError) as excinfo:
            estimate_landmark_heights(
                tiny, shared.rtt_matrix, distance_km=dataset.cached_distance_km
            )
        assert str(batched[1]) == str(excinfo.value)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_target_height_tabled_matches_scalar_randomized(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(3, 24)
            ids = [f"h{i}" for i in range(n)]
            locs = {
                i: GeoPoint(rng.uniform(-60, 70), rng.uniform(-150, 150))
                for i in ids
            }
            model = HeightModel({i: rng.uniform(0.0, 30.0) for i in ids}, 1.0)
            rtts = {i: rng.uniform(5.0, 250.0) for i in ids}
            # Leave-one-out mask exclusions: drop a random landmark from the
            # measurements (not the tables) and mark another unusable.
            if n > 4:
                del rtts[rng.choice(ids)]
                rtts[rng.choice(sorted(rtts))] = -1.0
            tables = TargetHeightTables(sorted(ids), locs)
            assert estimate_target_height_tabled(
                rtts, locs, model, tables
            ) == estimate_target_height(rtts, locs, model)

    def test_target_height_tabled_falls_back_when_not_covering(self):
        """Missing ids, moved coordinates or no tables: a roster table is built."""
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(3, 16)
            ids = [f"h{i}" for i in range(n)]
            locs = {
                i: GeoPoint(rng.uniform(-60, 70), rng.uniform(-150, 150)) for i in ids
            }
            model = HeightModel({i: rng.uniform(0.0, 30.0) for i in ids}, 1.0)
            rtts = {i: rng.uniform(5.0, 250.0) for i in ids}
            moved = dict(locs)
            moved[ids[-1]] = GeoPoint(locs[ids[-1]].lat + 0.5, locs[ids[-1]].lon)
            want = estimate_target_height(rtts, locs, model)
            for tables in (
                None,
                TargetHeightTables(ids[: n - 1], locs),  # one landmark missing
                TargetHeightTables(ids, moved),  # stale coordinates
            ):
                assert estimate_target_height_tabled(rtts, locs, model, tables) == want


class TestCalibrationStage:
    def test_calibration_sets_many_matches_scalar(self, dataset, localizer):
        shared = localizer.shared_state()
        rosters = loo_rosters(dataset, shared)
        config = localizer.config
        heights_list = [
            estimate_landmark_heights(
                locs, shared.rtt_matrix, distance_km=dataset.cached_distance_km
            )
            for _, _, locs in rosters
        ]
        pseudo_list = [
            reference_pseudo_target_heights(key, locs, heights, dataset.cached_min_rtt_ms)
            for (_, key, locs), heights in zip(rosters, heights_list)
        ]
        batched = build_calibration_sets_many(
            [key for _, key, _ in rosters],
            shared.locations,
            dataset.cached_min_rtt_ms,
            heights_list=heights_list,
            pseudo_heights_list=pseudo_list,
            distance_km=dataset.cached_distance_km,
            cutoff_percentile=config.calibration_cutoff_percentile,
            sentinel_ms=config.calibration_sentinel_ms,
            slack=config.calibration_slack,
        )
        for (target, key, _locs), heights, pseudo, got in zip(
            rosters, heights_list, pseudo_list, batched
        ):
            scalar = build_calibration_set(
                key,
                shared.locations,
                dataset.cached_min_rtt_ms,
                heights=heights,
                pseudo_heights=pseudo,
                distance_km=dataset.cached_distance_km,
                cutoff_percentile=config.calibration_cutoff_percentile,
                sentinel_ms=config.calibration_sentinel_ms,
                slack=config.calibration_slack,
            )
            assert calibration_signature(got) == calibration_signature(scalar), target

    def test_cohort_of_one(self, dataset, localizer):
        shared = localizer.shared_state()
        key = tuple(dataset.host_ids[1:])
        batched = build_calibration_sets_many(
            [key],
            shared.locations,
            dataset.cached_min_rtt_ms,
            distance_km=dataset.cached_distance_km,
        )
        scalar = build_calibration_set(
            key,
            shared.locations,
            dataset.cached_min_rtt_ms,
            distance_km=dataset.cached_distance_km,
        )
        assert len(batched) == 1
        assert calibration_signature(batched[0]) == calibration_signature(scalar)


class TestPiecewiseStage:
    def test_localize_routers_many_matches_scalar(self, dataset, localizer):
        shared = localizer.shared_state()
        rosters = loo_rosters(dataset, shared)
        # Router-localizer inputs from the from-scratch reference, so the
        # batched stage is not checked against its own cohort derivation.
        reference = Octant(dataset, localizer.config, localizer.parser)
        prepared = {
            target: reference_prepare(reference, key) for target, key, _locs in rosters
        }
        localizers = [
            RouterLocalizer(
                dataset,
                localizer.config,
                prepared[target].calibrations,
                prepared[target].heights,
                localizer.parser,
                dns_cache=shared.dns_cache,
                router_observations=shared.router_observations,
                circle_cache=localizer.octant.pipeline.circle_cache,
            )
            for target, _key, _locs in rosters
        ]
        batched = localize_routers_many(
            localizers, [list(key) for _, key, _ in rosters]
        )
        for (target, key, _locs), scalar_localizer, got in zip(
            rosters, localizers, batched
        ):
            assert got == scalar_localizer.localize_routers(list(key)), target


class TestPlanarizationStage:
    def test_planarize_many_matches_scalar(self, dataset):
        octant = Octant(dataset)
        presolved = [
            octant.presolve(
                target,
                reference_prepare(octant, dataset.landmark_ids_excluding(target)),
                planarize=False,
            )
            for target in dataset.host_ids[:6]
        ]
        batched = octant.pipeline.planarize_many(
            [(p.constraints, p.projection) for p in presolved]
        )
        reference = Octant(dataset)
        for p, got in zip(presolved, batched):
            scalar = reference.pipeline.planarize(p.constraints, p.projection)
            assert planar_signature(got) == planar_signature(scalar), p.target_id


class TestWholePipeline:
    @pytest.mark.parametrize("seed", [1, 9])
    def test_solve_many_matches_localize_one_randomized(self, dataset, seed):
        rng = random.Random(seed)
        cohort = rng.sample(dataset.host_ids, k=rng.randint(2, len(dataset.host_ids)))
        cohort.append(cohort[0])  # a duplicate must answer like the original
        # Leave-one-out mask exclusion: drop a random host from the pool.
        pool = [lid for lid in dataset.host_ids if lid != rng.choice(dataset.host_ids)]
        batched = BatchLocalizer(dataset).solve_many(cohort, pool)
        reference = BatchLocalizer(dataset)
        assert list(batched) == cohort[:-1]  # input order, duplicates collapsed
        for target in cohort:
            assert estimate_signature(batched[target]) == estimate_signature(
                reference.localize_one(target, pool)
            ), target

    def test_cohort_of_one(self, dataset):
        target = dataset.host_ids[0]
        batched = BatchLocalizer(dataset).solve_many([target])
        assert estimate_signature(batched[target]) == estimate_signature(
            BatchLocalizer(dataset).localize_one(target)
        )

    def test_all_failed_cohort(self, dataset):
        """A pool too small for any roster fails every target, like the
        scalar path, without aborting the cohort pass."""
        pool = dataset.host_ids[:3]
        targets = list(pool)  # every roster is pool-minus-self: 2 landmarks
        batched = BatchLocalizer(dataset).solve_many(targets, pool)
        reference = BatchLocalizer(dataset)
        for target in targets:
            scalar = reference.localize_one(target, pool)
            assert batched[target].point is None
            assert estimate_signature(batched[target]) == estimate_signature(scalar)
            assert batched[target].details["error_type"] == "ValueError"

    def test_failed_estimate_carries_pipeline_stats(self):
        """A mid-pipeline failure keeps its share of the stage timings, so
        benchmarks and serving stats don't undercount failed work."""
        from repro.core.batch import failed_estimate

        shares = {"heights_seconds": 0.25, "calibration_seconds": 0.125}
        estimate = failed_estimate("t", "octant", ValueError("x"), stats=shares)
        assert estimate.details["pipeline_stats"] == shares
        # Roster-stage failures have consumed no stage time: no key at all.
        bare = failed_estimate("t", "octant", ValueError("x"))
        assert "pipeline_stats" not in bare.details

    def test_mixed_cohort_failure_capture(self, dataset):
        """Failed targets ride along with solvable ones; each answer matches
        the scalar path and failures carry their stage-timing share."""
        pool = dataset.host_ids[:3]
        good = dataset.host_ids[4]
        bad = pool[0]
        batch = BatchLocalizer(dataset)
        # The good target uses the full pool implicitly via its own call;
        # here both ride one cohort against the tiny pool, so the non-pool
        # target solves against all three landmarks while pool members fail.
        batched = batch.solve_many([good, bad], pool)
        reference = BatchLocalizer(dataset)
        assert batched[good].point is not None
        assert batched[bad].point is None
        assert estimate_signature(batched[good]) == estimate_signature(
            reference.localize_one(good, pool)
        )
        assert estimate_signature(batched[bad]) == estimate_signature(
            reference.localize_one(bad, pool)
        )
