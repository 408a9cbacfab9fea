"""The from-scratch scalar derivation the batch engine is pinned against.

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

The identity suites and the batch benchmarks compare the engine against it
bit for bit.  No runtime module imports it (``tests/core/test_one_path.py``
scans ``src/repro`` for such imports).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..geometry import GeoPoint
from .calibration import CalibrationSet, build_calibration_set
from .estimate import LocationEstimate
from .heights import HeightModel, estimate_landmark_heights, estimate_target_height
from .octant import Octant, PreparedLandmarks
from .piecewise import RouterLocalizer, RouterPosition

__all__ = [
    "reference_localize",
    "reference_prepare",
    "reference_pseudo_target_heights",
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
    octant: Octant, target_id: str, landmark_ids: Sequence[str] | None = None
) -> LocationEstimate:
    """Localize one target with every pre-solve stage derived from scratch.

    ``landmark_ids`` defaults to every other host (leave-one-out).  Raises
    :class:`ValueError` when fewer than 3 landmarks remain and
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
    region, diagnostics = octant.pipeline.solve(
        presolved.planar, presolved.projection, key=target_id
    )
    octant.pipeline.stats.add(runs=1)
    return octant.postsolve(presolved, region, diagnostics)
