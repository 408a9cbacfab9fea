"""The geographic land mask applied after selection (Octant §2.5).

The solver weighs measurement constraints only; the pipeline's ocean and
uninhabited rings are subtracted from the selected pieces
(``repro.geometry.kernel.select_region``).  A selection that lies wholly
inside a ring falls back to the next weight class of the same ranking; with
no land anywhere the unmasked selection answers, flagged ``"empty"``.
"""

from __future__ import annotations

from repro import BatchLocalizer, Octant, OctantConfig, collect_dataset, small_deployment
from repro.core import (
    DiskConstraint,
    SolverConfig,
    WeightedRegionSolver,
    geographic_constraints,
)
from repro.geometry import BoundingBox, GeoPoint, Polygon, projection_for_points

AT_SEA = GeoPoint(38.0, -40.0)  # the middle of the North Atlantic ring
CHICAGO = GeoPoint(41.88, -87.63)
PROJECTION = projection_for_points([AT_SEA, CHICAGO])


def _system():
    """A heavy disk wholly at sea and a lighter, disjoint one on land."""
    return [
        DiskConstraint(AT_SEA, 300.0, weight=2.0, label="sea").to_planar(PROJECTION),
        DiskConstraint(CHICAGO, 300.0, weight=1.0, label="land").to_planar(PROJECTION),
    ]


def _rings():
    return [
        c.to_planar(PROJECTION).exclusion for c in geographic_constraints(OctantConfig())
    ]


def _solve(engine, mask=()):
    solver = WeightedRegionSolver(SolverConfig(engine=engine))
    region = solver.solve(_system(), PROJECTION, mask)
    pieces = [(p.weight, p.polygon.coords) for p in region.pieces]
    return region, pieces, solver.diagnostics


def test_selection_at_sea_falls_back_to_the_next_weight_class():
    answers = []
    for engine in ("fused", "object"):
        _unmasked, selected, plain = _solve(engine)
        assert [weight for weight, _ in selected] == [2.0]
        assert plain.geo_mask is None

        region, pieces, diagnostics = _solve(engine, _rings())
        assert diagnostics.geo_mask == "fallback"
        assert [weight for weight, _ in pieces] == [1.0]
        assert region.contains_geopoint(CHICAGO)
        assert not region.contains_geopoint(AT_SEA)
        assert (diagnostics.max_weight, diagnostics.selected_weight) == (2.0, 1.0)
        assert diagnostics.final_piece_count == 1
        answers.append(pieces)
    assert answers[0] == answers[1]


def test_no_land_anywhere_answers_the_unmasked_selection():
    everywhere = Polygon.rectangle(BoundingBox(-30000.0, -30000.0, 30000.0, 30000.0))
    answers = []
    for engine in ("fused", "object"):
        _unmasked, selected, _plain = _solve(engine)
        _region, pieces, diagnostics = _solve(engine, [everywhere])
        assert diagnostics.geo_mask == "empty"
        assert pieces == selected
        answers.append(pieces)
    assert answers[0] == answers[1]


def test_selection_on_land_keeps_its_class():
    answers = []
    for engine in ("fused", "object"):
        solver = WeightedRegionSolver(SolverConfig(engine=engine))
        # The land disk is the heavier one here.
        system = [
            DiskConstraint(CHICAGO, 300.0, weight=2.0, label="land").to_planar(PROJECTION),
            DiskConstraint(AT_SEA, 300.0, weight=1.0, label="sea").to_planar(PROJECTION),
        ]
        region = solver.solve(system, PROJECTION, _rings())
        assert solver.diagnostics.geo_mask == "kept"
        assert [p.weight for p in region.pieces] == [2.0]
        answers.append([p.polygon.coords for p in region.pieces])
    assert answers[0] == answers[1]


def test_no_ring_holds_a_tracked_host(tracked_cohort):
    """Every ring, projected with the host's own localization projection,
    leaves the host's true location outside, so the mask can never drop
    the truth."""
    octant = Octant(tracked_cohort)
    targets = tracked_cohort.host_ids
    prepared = BatchLocalizer(octant).prepare_many(targets)
    assert len(targets) == 30
    for target in targets:
        projection = octant.presolve(
            target, prepared=prepared[target], planarize=False
        ).projection
        truth = projection.forward(tracked_cohort.true_location(target))
        rings = octant.pipeline.land_mask(projection)
        assert len(rings) == 18
        for ring in rings:
            assert not ring.contains_point(truth), target


def test_geography_off_means_no_mask():
    dataset = collect_dataset(small_deployment(host_count=6, seed=3))
    for geography, outcomes in ((True, {"kept", "fallback", "empty"}), (False, {None})):
        octant = Octant(dataset, OctantConfig(use_geographic_constraints=geography))
        assert len(octant.pipeline.land_mask(PROJECTION)) == (18 if geography else 0)
        estimate = octant.localize(dataset.host_ids[0])
        assert estimate.details["geo_mask"] in outcomes
