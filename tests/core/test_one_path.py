"""One pre-solve path: every runtime localization goes through the cohort forms.

``Octant.localize`` is a cohort of one through ``BatchLocalizer.solve_many``;
the scalar chain lives only in :mod:`repro.core.reference`, which the
identity suites compare against and which no runtime module imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro import BatchLocalizer, Octant, OctantConfig, collect_dataset, small_deployment
from repro.core.heights import estimate_landmark_heights_many
from repro.core.piecewise import RouterLocalizer
from repro.core.reference import reference_localize


def signature(estimate):
    region = estimate.region
    return (
        estimate.target_id,
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if region is None else region.area_km2(),
        None if region is None else len(region.pieces),
        estimate.details.get("max_weight"),
        estimate.details.get("landmark_count"),
        estimate.details.get("target_height_ms"),
        estimate.details.get("error"),
    )


@pytest.fixture(scope="module")
def dataset():
    return collect_dataset(small_deployment(host_count=10, seed=23))


CONFIGS = {
    "default": OctantConfig(),
    "latency_only": OctantConfig.latency_only(),
    "full": OctantConfig.full(),
}


class TestOctantLocalizeIsACohortOfOne:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_equals_localize_one_and_reference(self, dataset, name):
        config = CONFIGS[name]
        octant = Octant(dataset, config)
        localizer = BatchLocalizer(Octant(dataset, config))
        reference = Octant(dataset, config)
        for target in dataset.host_ids[:3]:
            got = signature(octant.localize(target))
            assert got == signature(localizer.localize_one(target)), target
            assert got == signature(reference_localize(reference, target)), target

    def test_restricted_landmark_pool(self, dataset):
        pool = dataset.host_ids[:6]
        octant = Octant(dataset)
        localizer = BatchLocalizer(Octant(dataset))
        reference = Octant(dataset)
        for target in dataset.host_ids[4:8]:
            got = signature(octant.localize(target, landmark_ids=pool))
            assert got == signature(localizer.localize_one(target, pool)), target
            assert got == signature(reference_localize(reference, target, pool)), target

    def test_one_localizer_per_octant(self, dataset):
        octant = Octant(dataset, OctantConfig.latency_only())
        localizer = octant.batch_localizer()
        assert localizer.octant is octant
        octant.localize(dataset.host_ids[0])
        octant.localize_all(dataset.host_ids[:2])
        assert octant.batch_localizer() is localizer

    def test_too_few_landmarks_raises_like_reference(self, dataset):
        target = dataset.host_ids[0]
        pool = dataset.host_ids[:3]
        with pytest.raises(ValueError) as got:
            Octant(dataset).localize(target, landmark_ids=pool)
        with pytest.raises(ValueError) as want:
            reference_localize(Octant(dataset), target, pool)
        assert str(got.value) == str(want.value)

    def test_unlocated_landmark_raises_like_reference(self):
        dataset = collect_dataset(small_deployment(host_count=6, seed=5))
        unlocated = dataset.host_ids[2]
        dataset.hosts[unlocated] = dataset.hosts[unlocated].with_location(None)
        target = dataset.host_ids[0]
        with pytest.raises(KeyError) as got:
            Octant(dataset, OctantConfig.latency_only()).localize(target)
        with pytest.raises(KeyError) as want:
            reference_localize(Octant(dataset, OctantConfig.latency_only()), target)
        assert str(got.value) == str(want.value)
        assert unlocated in str(got.value)


def test_pooled_router_failure_isolates_one_target(dataset, monkeypatch):
    """A roster failing inside the pooled router pass fails only its target."""
    cohort = dataset.host_ids[:4]
    victim = cohort[1]
    solo = {t: signature(BatchLocalizer(dataset).localize_one(t)) for t in cohort}

    original = RouterLocalizer._observation_disks
    calls = {"victim": 0}

    def observation_disks(self, observations):
        # Every leave-one-out roster lacks exactly its own target.
        if victim not in self.heights.heights_ms:
            calls["victim"] += 1
            raise ValueError("injected router failure")
        return original(self, observations)

    monkeypatch.setattr(RouterLocalizer, "_observation_disks", observation_disks)
    estimates = BatchLocalizer(dataset).solve_many(cohort)
    # Once in the pooled pass, once in the victim's own rerun.
    assert calls["victim"] == 2
    failed = estimates[victim]
    assert failed.point is None
    assert failed.details["error"] == "injected router failure"
    assert failed.details["error_type"] == "ValueError"
    for target in cohort:
        if target != victim:
            assert signature(estimates[target]) == solo[target], target


def test_landmark_heights_many_rejects_a_plain_mapping(dataset):
    locations = {h: dataset.true_location(h) for h in dataset.host_ids}
    plain = dict(dataset.pairwise_min_rtt().items())
    with pytest.raises(TypeError):
        estimate_landmark_heights_many([locations], plain)


#: Scalar-chain entry points only the reference module may call.
REFERENCE_ONLY_CALLS = {
    "estimate_landmark_heights",
    "estimate_target_height",
    "build_calibration_set",
    "localize_routers",
    "reference_localize",
    "reference_prepare",
    "reference_pseudo_target_heights",
}


def _imported_modules(tree: ast.Module, package: str) -> set[str]:
    """Absolute names of every module (and ``from`` member) a module imports."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_runtime_module_reaches_the_reference():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "reference.py" and path.parent.name == "core":
            continue
        relative = path.relative_to(root.parent).with_suffix("")
        package = ".".join(relative.parts[:-1])
        tree = ast.parse(path.read_text(), filename=str(path))
        if "repro.core.reference" in _imported_modules(tree, package):
            offenders.append(f"{relative}: imports repro.core.reference")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in REFERENCE_ONLY_CALLS:
                offenders.append(f"{relative}:{node.lineno}: calls {name}")
    assert offenders == []
