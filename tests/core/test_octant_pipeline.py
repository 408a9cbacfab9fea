"""Integration tests: the full Octant pipeline on a small simulated deployment."""

import pytest

from repro import Octant, OctantConfig, collect_dataset, small_deployment
from repro.core import GeoRegionConstraint, Polarity
from repro.core.piecewise import RouterLocalizer, RouterPosition
from repro.core.reference import reference_prepare
from repro.network import UndnsParser


@pytest.fixture(scope="module")
def dataset():
    return collect_dataset(small_deployment(host_count=10, seed=17))


@pytest.fixture(scope="module")
def octant(dataset):
    return Octant(dataset, OctantConfig())


class TestPreparation:
    def test_prepare_builds_per_landmark_state(self, dataset, octant):
        landmarks = dataset.landmark_ids_excluding(dataset.host_ids[0])
        prepared = reference_prepare(octant, landmarks)
        assert set(prepared.landmark_ids) == set(landmarks)
        assert prepared.heights is not None
        assert len(prepared.calibrations) == len(landmarks)
        assert prepared.router_positions  # piecewise enabled by default

    def test_heights_disabled_config(self, dataset):
        octant = Octant(dataset, OctantConfig(use_heights=False, use_piecewise=False))
        landmarks = dataset.landmark_ids_excluding(dataset.host_ids[0])
        prepared = reference_prepare(octant, landmarks)
        assert prepared.heights is None

    def test_calibration_disabled_config(self, dataset):
        octant = Octant(dataset, OctantConfig(use_calibration=False, use_piecewise=False))
        landmarks = dataset.landmark_ids_excluding(dataset.host_ids[0])
        prepared = reference_prepare(octant, landmarks)
        assert len(prepared.calibrations) == 0


class TestConstraintConstruction:
    def test_one_distance_constraint_per_landmark(self, dataset, octant):
        target = dataset.host_ids[0]
        landmarks = dataset.landmark_ids_excluding(target)
        prepared = reference_prepare(octant, landmarks)
        constraints = octant.build_constraints(target, prepared)
        distance = constraints.distance_constraints()
        latency_only = [c for c in distance if c.label.startswith("latency:")]
        assert len(latency_only) == len(landmarks)

    def test_geographic_constraints_included(self, dataset, octant):
        target = dataset.host_ids[0]
        prepared = reference_prepare(octant, dataset.landmark_ids_excluding(target))
        constraints = octant.build_constraints(target, prepared)
        labels = [c.label for c in constraints]
        assert any(label.startswith("ocean:") for label in labels)
        assert any(label.startswith("uninhabited:") for label in labels)

    def test_piecewise_constraints_included(self, dataset, octant):
        target = dataset.host_ids[0]
        prepared = reference_prepare(octant, dataset.landmark_ids_excluding(target))
        constraints = octant.build_constraints(target, prepared)
        assert any(c.label.startswith("piecewise:") for c in constraints)

    def test_whois_constraint_when_enabled(self, dataset):
        octant = Octant(dataset, OctantConfig(use_whois=True, use_piecewise=False))
        target = dataset.host_ids[0]
        prepared = reference_prepare(octant, dataset.landmark_ids_excluding(target))
        constraints = octant.build_constraints(target, prepared)
        assert any(c.label.startswith("whois:") for c in constraints)

    def test_max_bound_respects_floor(self, dataset, octant):
        target = dataset.host_ids[0]
        prepared = reference_prepare(octant, dataset.landmark_ids_excluding(target))
        for c in octant.build_constraints(target, prepared).distance_constraints():
            assert c.max_km >= octant.config.min_positive_bound_km or c.label.startswith(
                "piecewise:"
            )


class TestLocalization:
    def test_estimate_has_point_and_region(self, dataset, octant):
        target = dataset.host_ids[1]
        estimate = octant.localize(target)
        assert estimate.succeeded
        assert estimate.region is not None
        assert estimate.region_area_km2() > 0
        assert estimate.constraints_used > 0

    def test_point_estimate_in_sane_range(self, dataset, octant):
        target = dataset.host_ids[2]
        truth = dataset.true_location(target)
        estimate = octant.localize(target)
        # With only 9 landmarks the error can be large, but the estimate must
        # land on the right continent (well under a quarter of the Earth).
        assert estimate.error_km(truth) < 5000.0

    def test_region_excludes_oceans(self, dataset, octant):
        from repro.geometry import GeoPoint

        estimate = octant.localize(dataset.host_ids[3])
        mid_atlantic = GeoPoint(38.0, -40.0)
        assert not estimate.region.contains_geopoint(mid_atlantic)

    def test_localize_requires_enough_landmarks(self, dataset, octant):
        with pytest.raises(ValueError):
            octant.localize(dataset.host_ids[0], landmark_ids=dataset.host_ids[1:3])

    def test_localize_with_landmark_subset(self, dataset, octant):
        target = dataset.host_ids[4]
        subset = dataset.landmark_ids_excluding(target)[:5]
        estimate = octant.localize(target, landmark_ids=subset)
        assert estimate.succeeded
        assert estimate.details["landmark_count"] == 5

    def test_localize_all(self, dataset):
        octant = Octant(dataset, OctantConfig.latency_only())
        targets = dataset.host_ids[:3]
        estimates = octant.localize_all(targets)
        assert set(estimates) == set(targets)
        assert all(e.succeeded for e in estimates.values())

    def test_conservative_config_is_sound(self, dataset):
        """Speed-of-light bounds only: the true location is always inside."""
        octant = Octant(dataset, OctantConfig.conservative())
        for target in dataset.host_ids[:4]:
            truth = dataset.true_location(target)
            estimate = octant.localize(target)
            assert estimate.contains_true_location(truth)

    def test_solve_time_is_a_few_seconds(self, dataset, octant):
        """The paper reports solution times under a few seconds per target."""
        estimate = octant.localize(dataset.host_ids[5])
        assert estimate.solve_time_s < 10.0


class TestRouterLocalization:
    def test_router_positions_close_to_truth(self, dataset, octant):
        target = dataset.host_ids[0]
        landmarks = dataset.landmark_ids_excluding(target)
        prepared = reference_prepare(octant, landmarks)
        localizer = RouterLocalizer(
            dataset, octant.config, prepared.calibrations, prepared.heights, UndnsParser()
        )
        checked = 0
        good = 0
        for router_id, position in prepared.router_positions.items():
            record = dataset.routers[router_id]
            if record.location is None:
                continue
            error = position.center.distance_km(record.location)
            checked += 1
            if error <= position.uncertainty_km + 1200.0:
                good += 1
        assert checked > 0
        # A small fraction of routers carry deliberately misleading DNS names
        # (as on the real Internet), so a handful of positions may be far off;
        # the overwhelming majority must be close.
        assert good >= 0.85 * checked

    def test_dns_hinted_routers_have_high_confidence(self, dataset, octant):
        target = dataset.host_ids[0]
        prepared = reference_prepare(octant, dataset.landmark_ids_excluding(target))
        dns_positions = [
            p for p in prepared.router_positions.values() if p.source == RouterPosition.DNS
        ]
        assert dns_positions
        assert all(p.confidence >= 0.6 for p in dns_positions)


class TestConfigVariants:
    def test_with_overrides(self):
        config = OctantConfig().with_overrides(use_heights=False, weight_decay_ms=10.0)
        assert not config.use_heights
        assert config.weight_decay_ms == 10.0

    def test_factory_configs(self):
        assert not OctantConfig.conservative().use_calibration
        assert OctantConfig.latency_only().use_calibration
        assert not OctantConfig.latency_only().use_piecewise
        assert OctantConfig.full().use_whois

    def test_geographic_constraints_off(self, dataset):
        octant = Octant(dataset, OctantConfig(use_geographic_constraints=False, use_piecewise=False))
        prepared = reference_prepare(
            octant, dataset.landmark_ids_excluding(dataset.host_ids[0])
        )
        constraints = octant.build_constraints(dataset.host_ids[0], prepared)
        assert not any(c.label.startswith("ocean:") for c in constraints)

    def test_geo_region_constraint_reused_in_pipeline(self):
        constraint = GeoRegionConstraint(
            ring=(
                __import__("repro").geometry.GeoPoint(50.0, -40.0),
                __import__("repro").geometry.GeoPoint(45.0, -20.0),
                __import__("repro").geometry.GeoPoint(35.0, -30.0),
            ),
            polarity=Polarity.NEGATIVE,
        )
        assert constraint.weight == 1.0
