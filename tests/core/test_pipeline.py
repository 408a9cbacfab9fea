"""The staged constraint pipeline: stage contracts, caching, shared state."""

from __future__ import annotations

import pytest

from repro import BatchLocalizer, Octant, OctantConfig, collect_dataset
from repro.core import ConstraintPipeline, DistanceConstraint, geographic_constraints
from repro.network.dns import UndnsParser
from repro.network.planetlab import small_deployment


@pytest.fixture(scope="module")
def dataset():
    return collect_dataset(small_deployment(host_count=8, seed=5))


@pytest.fixture(scope="module")
def octant(dataset):
    return Octant(dataset)


@pytest.fixture(scope="module")
def prepared(octant, dataset):
    return BatchLocalizer(octant).prepare_for_target(dataset.host_ids[0])


class TestStages:
    def test_build_constraints_delegates_to_assemble(self, octant, dataset, prepared):
        target = dataset.host_ids[0]
        via_octant = octant.build_constraints(target, prepared)
        via_pipeline = octant.pipeline.assemble(dataset, target, prepared)
        assert [c.label for c in via_octant] == [c.label for c in via_pipeline]
        assert [c.weight for c in via_octant] == [c.weight for c in via_pipeline]

    def test_planarize_matches_manual_realization(self, octant, dataset, prepared):
        """Planarize realizes the measurement constraints; the rings mask."""
        target = dataset.host_ids[0]
        constraints = octant.pipeline.assemble(dataset, target, prepared)
        projection = octant._projection_for(prepared, target)
        planar = octant.pipeline.planarize(constraints, projection)
        rings = geographic_constraints(octant.config)
        manual = [
            p
            for c in constraints.sorted_by_weight()
            if c not in rings and (p := c.to_planar(projection)) is not None
        ]
        assert [p.label for p in planar] == [p.label for p in manual]
        for a, b in zip(planar, manual):
            if a.inclusion is not None:
                assert a.inclusion.coords == b.inclusion.coords
            if a.exclusion is not None:
                assert a.exclusion.coords == b.exclusion.coords
        assert len(rings) == 18
        assert [m.coords for m in octant.pipeline.land_mask(projection)] == [
            c.to_planar(projection).exclusion.coords for c in rings
        ]

    def test_run_equals_localize_region(self, octant, dataset, prepared):
        """The staged run and the facade produce the same estimate region."""
        target = dataset.host_ids[0]
        estimate = octant.localize(target, prepared=prepared)
        projection = octant._projection_for(prepared, target)
        height = estimate.details["target_height_ms"]
        pipeline = octant.pipeline
        constraints = pipeline.assemble(dataset, target, prepared, height)
        planar = pipeline.planarize(constraints, projection)
        region, diagnostics = pipeline.solve(planar, projection)
        assert estimate.region is not None
        assert region.area_km2() == estimate.region.area_km2()
        assert diagnostics.constraints_applied == estimate.constraints_used

    def test_stats_accumulate(self, dataset, prepared):
        octant = Octant(dataset)
        target = dataset.host_ids[0]
        assert octant.pipeline.stats.runs == 0
        octant.localize(target, prepared=prepared)
        stats = octant.pipeline.stats
        assert stats.runs == 1
        assert stats.constraints_assembled > 0
        assert stats.constraints_planarized > 0
        assert stats.planarize_seconds >= 0.0
        snap = stats.snapshot()
        assert snap["runs"] == 1


class TestSharedGeometryCache:
    def test_injected_cache_is_shared(self, dataset):
        """Octants over different snapshots share one pipeline's caches."""
        pipeline = ConstraintPipeline()
        first = Octant(dataset, pipeline=pipeline)
        second = Octant(dataset.snapshot(), pipeline=pipeline)
        assert first.pipeline is second.pipeline is pipeline
        target = dataset.host_ids[0]
        first.localize(target)
        second.localize(target)
        stats = pipeline.stats
        assert (stats.planar_memo_hits, stats.planar_memo_misses) == (1, 1)
        assert stats.runs == 2

    def test_octant_takes_config_from_its_pipeline(self, dataset):
        config, parser = OctantConfig.latency_only(), UndnsParser()
        pipeline = ConstraintPipeline(config, parser)
        octant = Octant(dataset, pipeline=pipeline)
        assert octant.config is config and octant.parser is parser
        assert Octant(dataset, config, parser, pipeline=pipeline).config is config
        with pytest.raises(ValueError):
            Octant(dataset, OctantConfig(), pipeline=pipeline)
        with pytest.raises(ValueError):
            Octant(dataset, parser=UndnsParser(), pipeline=pipeline)

    def test_repeated_localization_hits_planar_memo(self, dataset, prepared):
        octant = Octant(dataset)
        target = dataset.host_ids[0]
        first = octant.localize(target, prepared=prepared)
        assert octant.pipeline.stats.planar_memo_hits == 0
        second = octant.localize(target, prepared=prepared)
        assert octant.pipeline.stats.planar_memo_hits == 1
        # Bit-identical answers out of the cache (the acceptance contract).
        assert (first.point.lat, first.point.lon) == (
            second.point.lat,
            second.point.lon,
        )
        assert first.region.area_km2() == second.region.area_km2()
        for pa, pb in zip(first.region.pieces, second.region.pieces):
            assert pa.weight == pb.weight
            assert pa.polygon.coords == pb.polygon.coords

    def test_batch_and_direct_paths_share_one_cache(self, dataset):
        """The batch engine's router stage warms the pipeline's circle cache."""
        octant = Octant(dataset)
        cache = octant.pipeline.circle_cache
        assert cache.stats()["boundary_misses"] == 0
        BatchLocalizer(octant).prepare_for_target(dataset.host_ids[0])
        assert cache.stats()["boundary_misses"] > 0

    def test_planarize_many_warms_every_disk_it_realizes(self, dataset, monkeypatch):
        """The pooled warm pass covers every disk, lower bounds included.

        After ``planarize_many``'s warm pass, the per-system ``planarize``
        calls find every boundary and planar disk in the circle cache.
        """
        octant = Octant(dataset)
        localizer = BatchLocalizer(octant)
        presolved = [
            octant.presolve(t, localizer.prepare_for_target(t), planarize=False)
            for t in dataset.host_ids[:2]
        ]
        for p in presolved:
            assert any(
                isinstance(c, DistanceConstraint) and c.min_km > 0
                for c in p.constraints
            ), p.target_id
        pipeline = octant.pipeline
        cache = pipeline.circle_cache
        scalar_planarize = pipeline.planarize
        added = []

        def planarize(*args, **kwargs):
            before = cache.stats()
            planar = scalar_planarize(*args, **kwargs)
            after = cache.stats()
            added.append(
                {k: after[k] - before[k] for k in ("planar_misses", "boundary_misses")}
            )
            return planar

        monkeypatch.setattr(pipeline, "planarize", planarize)
        planar = pipeline.planarize_many([(p.constraints, p.projection) for p in presolved])
        assert all(planar)
        assert added == [{"planar_misses": 0, "boundary_misses": 0}] * 2
