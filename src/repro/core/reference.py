"""The from-scratch scalar references the runtime engines are pinned against.

Every runtime localization derives its per-landmark state (heights, §2.2;
convex-hull calibration, §2.1; router positions, §2.3) through the
cohort-axis estimators of :class:`~repro.core.batch.BatchLocalizer`.  This
module composes the scalar estimators instead --
:func:`~repro.core.heights.estimate_landmark_heights`,
:func:`~repro.core.heights.estimate_target_height`,
:func:`~repro.core.calibration.build_calibration_set` and
:meth:`~repro.core.piecewise.RouterLocalizer.localize_routers` -- straight
from the live dataset accessors, with no shared state.  It is slow on
purpose: every call re-derives everything for one landmark set.

:func:`reference_solve` is the weighted accumulation (§2.4) one
:class:`~repro.geometry.Polygon` at a time: the executable specification
the fused cohort kernel (:class:`~repro.geometry.kernel.FusedSolverKernel`)
is pinned against.

The identity suites and the batch and solver benchmarks compare the
runtime against these bit for bit.  No runtime module imports this module
(``tests/core/test_one_path.py`` scans ``src/repro`` for such imports).
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Sequence

from ..geometry import (
    GeoPoint,
    Polygon,
    Projection,
    Region,
    RegionPiece,
    intersect_polygons,
)
from ..geometry.kernel import WORLD_SQUARE, select_region, subtract_cautious
from .calibration import CalibrationSet, build_calibration_set
from .config import SolverConfig
from .constraints import PlanarConstraint
from .estimate import LocationEstimate
from .heights import HeightModel, estimate_landmark_heights, estimate_target_height
from .octant import Octant, PreparedLandmarks
from .piecewise import RouterLocalizer, RouterPosition
from .solver import SolverDiagnostics

__all__ = [
    "reference_localize",
    "reference_prepare",
    "reference_pseudo_target_heights",
    "reference_solve",
]


def reference_pseudo_target_heights(
    landmark_ids: Sequence[str],
    locations: Mapping[str, GeoPoint],
    heights: HeightModel,
    rtt_ms: Callable[[str, str], float | None],
) -> dict[str, float]:
    """:func:`~repro.core.octant.pseudo_target_heights` with the scalar estimator."""
    pseudo: dict[str, float] = {}
    for peer in landmark_ids:
        rtts = {
            lid: rtt
            for lid in landmark_ids
            if lid != peer and (rtt := rtt_ms(lid, peer)) is not None
        }
        if len(rtts) < 3:
            pseudo[peer] = heights.height(peer)
            continue
        height, _ = estimate_target_height(rtts, locations, heights)
        pseudo[peer] = height
    return pseudo


def reference_prepare(octant: Octant, landmark_ids: Sequence[str]) -> PreparedLandmarks:
    """Per-landmark state for one landmark set, derived from scratch.

    Raises :class:`KeyError` for a landmark without ground truth.
    """
    dataset = octant.dataset
    config = octant.config
    key = tuple(sorted(landmark_ids))
    locations = {lid: dataset.true_location(lid) for lid in key}

    heights: HeightModel | None = None
    if config.use_heights:
        pairwise: dict[tuple[str, str], float] = {}
        for i, a in enumerate(key):
            for b in key[i + 1 :]:
                rtt = dataset.min_rtt_ms(a, b)
                if rtt is not None:
                    pairwise[(a, b)] = rtt
        if len(pairwise) >= len(key):
            heights = estimate_landmark_heights(locations, pairwise)

    calibrations = CalibrationSet()
    if config.use_calibration:
        pseudo_heights: dict[str, float] = {}
        if heights is not None:
            pseudo_heights = reference_pseudo_target_heights(
                key, locations, heights, dataset.min_rtt_ms
            )
        calibrations = build_calibration_set(
            key,
            locations,
            dataset.min_rtt_ms,
            heights=heights,
            pseudo_heights=pseudo_heights,
            cutoff_percentile=config.calibration_cutoff_percentile,
            sentinel_ms=config.calibration_sentinel_ms,
            slack=config.calibration_slack,
        )

    router_positions: dict[str, RouterPosition] = {}
    if config.use_piecewise:
        localizer = RouterLocalizer(
            dataset,
            config,
            calibrations,
            heights,
            octant.parser,
            circle_cache=octant.pipeline.circle_cache,
        )
        router_positions = localizer.localize_routers(list(key))

    return PreparedLandmarks(
        landmark_ids=key,
        locations=locations,
        heights=heights,
        calibrations=calibrations,
        router_positions=router_positions,
    )


def reference_localize(
    octant: Octant,
    target_id: str,
    landmark_ids: Sequence[str] | None = None,
    *,
    scalar_solve: bool = False,
) -> LocationEstimate:
    """Localize one target with every pre-solve stage derived from scratch.

    ``landmark_ids`` defaults to every other host (leave-one-out).  The
    solve runs on the pipeline's fused kernel, or with ``scalar_solve`` on
    :func:`reference_solve`, so that no runtime engine touches the answer.
    Raises :class:`ValueError` when fewer than 3 landmarks remain and
    :class:`KeyError` for a landmark without ground truth, as
    :meth:`Octant.localize` does.
    """
    landmarks = (
        list(landmark_ids)
        if landmark_ids is not None
        else octant.dataset.landmark_ids_excluding(target_id)
    )
    landmarks = [lid for lid in landmarks if lid != target_id]
    if len(landmarks) < 3:
        raise ValueError("localization needs at least 3 landmarks")
    prepared = reference_prepare(octant, landmarks)
    target_height = 0.0
    if octant.config.use_heights and prepared.heights is not None:
        target_rtts = {
            lid: rtt
            for lid in landmarks
            if (rtt := octant.dataset.min_rtt_ms(lid, target_id)) is not None
        }
        if len(target_rtts) >= 3:
            target_height, _rough_position = estimate_target_height(
                target_rtts, prepared.locations, prepared.heights
            )
    presolved = octant.presolve(target_id, prepared, target_height_ms=target_height)
    if scalar_solve:
        region, diagnostics = reference_solve(
            presolved.planar,
            presolved.projection,
            octant.config.solver,
            octant.pipeline.land_mask(presolved.projection),
        )
    else:
        region, diagnostics = octant.pipeline.solve(
            presolved.planar, presolved.projection, key=target_id
        )
    octant.pipeline.stats.add(runs=1)
    return octant.postsolve(presolved, region, diagnostics)


def reference_solve(
    constraints: Sequence[PlanarConstraint | None],
    projection: Projection,
    config: SolverConfig | None = None,
    mask: Sequence[Polygon] = (),
) -> tuple[Region, SolverDiagnostics]:
    """The weighted accumulation, one :class:`Polygon` piece at a time.

    Starts from a single zero-weight :data:`WORLD_SQUARE` piece; each
    constraint, heaviest first, splits every piece into the part that
    satisfies it (which gains its weight) and the piece itself (which keeps
    its weight), so the pieces carry the lattice of constraint
    intersections with overlapping lighter fallbacks.  A constraint that
    leaves no piece is skipped.  :func:`select_region` then picks the
    estimate and subtracts ``mask``.  The answer and the diagnostics the
    reports read equal :meth:`WeightedRegionSolver.solve`'s bit for bit.
    """
    config = config or SolverConfig()
    started = time.perf_counter()
    diagnostics = SolverDiagnostics()
    usable = [c for c in constraints if c is not None]
    if not usable:
        return Region.empty(projection), diagnostics

    pieces: list[RegionPiece] = [RegionPiece(WORLD_SQUARE, 0.0)]
    for constraint in sorted(usable, key=lambda c: c.weight, reverse=True):
        new_pieces = _apply_constraint(pieces, constraint, config)
        if not new_pieces:
            # The constraint wiped out everything; skip it rather than
            # collapsing the solution (it is inconsistent with the
            # accumulated evidence, which outweighs it).
            diagnostics.constraints_skipped += 1
            diagnostics.dropped_constraints.append(constraint.label)
            continue
        pieces = _prune(new_pieces, config)
        diagnostics.constraints_applied += 1
        diagnostics.max_pieces_seen = max(diagnostics.max_pieces_seen, len(pieces))

    selected = select_region(
        [p.weight for p in pieces],
        [p.area_km2() for p in pieces],
        lambda i: pieces[i].polygon,
        config,
        mask,
        diagnostics,
    )
    diagnostics.solve_seconds = time.perf_counter() - started
    return Region(selected, projection), diagnostics


def _apply_constraint(
    pieces: Sequence[RegionPiece], constraint: PlanarConstraint, config: SolverConfig
) -> list[RegionPiece]:
    """Split every piece by the constraint, assigning weight to the satisfied part."""
    result: list[RegionPiece] = []
    for piece in pieces:
        satisfied, unsatisfied = _split_piece(piece.polygon, constraint)
        for polygon in satisfied:
            result.append(RegionPiece(polygon, piece.weight + constraint.weight))
        for polygon in unsatisfied:
            result.append(RegionPiece(polygon, piece.weight))
    return [p for p in result if p.area_km2() >= config.min_piece_area_km2]


def _split_piece(
    polygon: Polygon, constraint: PlanarConstraint
) -> tuple[list[Polygon], list[Polygon]]:
    """Partition ``polygon`` into (satisfies constraint, does not satisfy).

    The unsatisfied side is the original piece itself rather than a
    disjoint complement: the solver carries "all possible resulting regions
    via intersections", as the paper puts it, with overlapping lower-weight
    fallbacks.
    """
    satisfied = [polygon]
    if constraint.inclusion is not None:
        satisfied = intersect_polygons(polygon, constraint.inclusion)
    if constraint.exclusion is not None:
        satisfied = [
            kept
            for piece in satisfied
            for kept in subtract_cautious(piece, constraint.exclusion)
        ]
    elif constraint.inclusion is None:
        return satisfied, []
    return satisfied, [polygon]


def _prune(pieces: list[RegionPiece], config: SolverConfig) -> list[RegionPiece]:
    """Bound the piece population: drop slivers, keep the heaviest pieces."""
    viable = [p for p in pieces if p.area_km2() >= config.min_piece_area_km2]
    if len(viable) <= config.max_pieces:
        return viable
    ranked = sorted(viable, key=lambda p: (p.weight, p.area_km2()), reverse=True)
    return ranked[: config.max_pieces]
