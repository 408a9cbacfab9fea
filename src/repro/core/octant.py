"""The Octant facade: end-to-end localization of a target host.

:class:`Octant` wires together every mechanism of the framework --
calibration, height estimation, latency constraints (positive and negative),
geographic constraints, WHOIS hints, piecewise router localization and the
weighted geometric solver -- behind two calls::

    octant = Octant(dataset)                  # measurement data in, nothing probed
    estimate = octant.localize("host-sea")    # estimated region + point estimate

The landmark set defaults to every host in the dataset except the target, the
leave-one-out methodology of the paper's evaluation.  All per-landmark state
(heights, calibrations, router positions) is computed from that landmark set
only, so information about the target never leaks into its own localization.

A single :meth:`Octant.localize` is a cohort of one through the batch
engine (:class:`~repro.core.batch.BatchLocalizer`), which derives that state
with the cohort-axis estimators; :mod:`repro.core.reference` keeps the
from-scratch scalar derivation the engine is pinned against.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from ..geometry import GeoPoint, Projection, projection_for_points
from ..network.dataset import MeasurementDataset
from ..network.dns import UndnsParser
from ..resilience.deadline import checkpoint
from .calibration import CalibrationSet
from .config import OctantConfig
from .constraints import ConstraintSet
from .estimate import LocationEstimate
from .heights import HeightModel, TargetHeightTables, estimate_target_height_tabled
from .piecewise import RouterPosition
from .pipeline import ConstraintPipeline

if TYPE_CHECKING:
    from .batch import BatchLocalizer

__all__ = [
    "Octant",
    "PreparedLandmarks",
    "PresolvedTarget",
    "pseudo_target_heights",
]


def pseudo_target_heights(
    landmark_ids: Sequence[str],
    locations: Mapping[str, GeoPoint],
    heights: HeightModel,
    rtt_ms: Callable[[str, str], float | None],
    tables: TargetHeightTables | None,
) -> dict[str, float]:
    """Estimate every landmark's height *as if it were a target*.

    Calibration samples must be adjusted exactly the way target measurements
    will be adjusted at localization time, otherwise the calibrated envelope
    is systematically offset from the points it is later evaluated on.  A
    target's height is estimated from its measurements alone (Section 2.2),
    so for calibration each peer landmark is put through the same estimator,
    ignoring its known position.

    ``rtt_ms`` is a measurement lookup (live dataset accessor or the cached
    full-cohort matrix); the batch engine applies its leave-one-out mask by
    passing an already-masked ``landmark_ids`` roster.  The per-pair
    propagation terms of each peer's candidate scan come from ``tables``
    (shared across a cohort by the batch engine).
    """
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
        height, _ = estimate_target_height_tabled(rtts, locations, heights, tables)
        pseudo[peer] = height
    return pseudo


@dataclass
class PreparedLandmarks:
    """Per-landmark state derived from inter-landmark measurements only."""

    landmark_ids: tuple[str, ...]
    locations: dict[str, GeoPoint]
    heights: HeightModel | None
    calibrations: CalibrationSet
    router_positions: dict[str, RouterPosition]


@dataclass
class PresolvedTarget:
    """Everything one target needs *before* the weighted-region solve.

    :meth:`Octant.presolve` produces it (target height, projection,
    constraint assembly and planarization);
    :meth:`Octant.postsolve` turns a solved region back into a
    :class:`LocationEstimate`.  Splitting the solve out lets cohort drivers
    (the batch engine's fused chunks, the serving micro-batches) presolve
    many targets and run one fused solve over all of them.
    """

    target_id: str
    landmarks: list[str]
    prepared: PreparedLandmarks
    target_height_ms: float
    projection: Projection
    #: ``None`` only while planarization is deferred to a cohort-level
    #: :meth:`ConstraintPipeline.planarize_many` pass.
    planar: list | None
    started: float
    #: Wall time the presolve itself took; cohort drivers combine it with
    #: each target's amortized solve share for an honest per-target timing.
    presolve_seconds: float = 0.0
    #: Assembled constraint system; retained so deferred planarization can
    #: run after the fact.
    constraints: ConstraintSet | None = None


class Octant:
    """Localizes targets from a :class:`~repro.network.dataset.MeasurementDataset`."""

    def __init__(
        self,
        dataset: MeasurementDataset,
        config: OctantConfig | None = None,
        parser: UndnsParser | None = None,
        *,
        pipeline: ConstraintPipeline | None = None,
    ):
        # The staged pipeline owns the configuration, the geometry caches and
        # the target-independent constraint state; passing one lets callers
        # (the serving layer, over its dataset snapshots) share all of them
        # and its counters across many Octant instances.
        if pipeline is None:
            pipeline = ConstraintPipeline(config, parser)
        elif (config is not None and config != pipeline.config) or (
            parser is not None and parser is not pipeline.parser
        ):
            raise ValueError("an Octant takes its config and parser from its pipeline")
        self.dataset = dataset
        self.pipeline = pipeline
        self.config = pipeline.config
        self.parser = pipeline.parser
        self._batch: BatchLocalizer | None = None
        self._batch_lock = threading.Lock()

    def batch_localizer(self) -> "BatchLocalizer":
        """The batch engine :meth:`localize` and :meth:`localize_all` run on.

        Built on first use and kept, so repeated calls share its
        full-cohort state (rebuilt by the engine itself when the dataset
        ingests new measurements).
        """
        if self._batch is None:
            from .batch import BatchLocalizer  # deferred: batch imports this module

            with self._batch_lock:
                if self._batch is None:
                    self._batch = BatchLocalizer(self)
        return self._batch

    # ------------------------------------------------------------------ #
    # Constraint construction
    # ------------------------------------------------------------------ #
    def build_constraints(
        self,
        target_id: str,
        prepared: PreparedLandmarks,
        target_height_ms: float = 0.0,
    ) -> ConstraintSet:
        """Assemble every constraint for one target under the configuration.

        Delegates to the pipeline's assembly stage (kept as a method for
        callers that drive the stages separately, such as the solver
        benchmarks).
        """
        return self.pipeline.assemble(
            self.dataset, target_id, prepared, target_height_ms
        )

    # ------------------------------------------------------------------ #
    # Localization
    # ------------------------------------------------------------------ #
    def localize(
        self,
        target_id: str,
        landmark_ids: Sequence[str] | None = None,
        prepared: PreparedLandmarks | None = None,
    ) -> LocationEstimate:
        """Localize one target and return its estimate.

        A cohort of one through :meth:`BatchLocalizer.solve_many`, the same
        answer as :meth:`BatchLocalizer.localize_one`.  Without ``prepared``
        the landmark state comes from
        :meth:`BatchLocalizer.prepare_for_target`, which raises
        :class:`ValueError` when fewer than 3 landmarks remain and
        :class:`KeyError` for a landmark without ground truth.  ``prepared``
        injects state derived elsewhere; it must have been computed from a
        landmark set that excludes the target.
        """
        localizer = self.batch_localizer()
        if prepared is None:
            prepared = localizer.prepare_for_target(target_id, landmark_ids)
        return localizer.solve_many(
            [target_id], landmark_ids, _prepared={target_id: prepared}
        )[target_id]

    def presolve(
        self,
        target_id: str,
        prepared: PreparedLandmarks,
        *,
        height_tables: TargetHeightTables | None = None,
        target_height_ms: float | None = None,
        planarize: bool = True,
    ) -> PresolvedTarget:
        """Everything before the weighted-region solve for one target.

        Target height estimation, projection choice, constraint assembly
        and planarization over ``prepared`` -- the stages that are
        inherently per-target.  The returned :class:`PresolvedTarget` feeds
        :meth:`ConstraintPipeline.solve` (or a cohort-level ``solve_many``)
        and then :meth:`postsolve`.

        The target height comes from the tabled estimator over
        ``height_tables`` (the cohort-shared propagation tables; ``None``
        builds tables for this call), unless ``target_height_ms`` gives it.
        ``planarize=False`` defers planarization so a cohort driver can pool
        it across targets via :meth:`ConstraintPipeline.planarize_many`.
        """
        checkpoint("prepare", target_id)
        started = time.perf_counter()
        landmarks = [lid for lid in prepared.landmark_ids if lid != target_id]
        if len(landmarks) < 3:
            raise ValueError("localization needs at least 3 landmarks")

        if target_height_ms is None:
            target_height_ms = 0.0
            if self.config.use_heights and prepared.heights is not None:
                target_rtts = {
                    lid: rtt
                    for lid in landmarks
                    if (rtt := self.dataset.min_rtt_ms(lid, target_id)) is not None
                }
                if len(target_rtts) >= 3:
                    target_height_ms, _rough_position = estimate_target_height_tabled(
                        target_rtts, prepared.locations, prepared.heights, height_tables
                    )

        projection = self._projection_for(prepared, target_id)
        constraints = self.pipeline.assemble(
            self.dataset, target_id, prepared, target_height_ms
        )
        planar = (
            self.pipeline.planarize(constraints, projection, key=target_id)
            if planarize
            else None
        )
        return PresolvedTarget(
            target_id=target_id,
            landmarks=landmarks,
            prepared=prepared,
            target_height_ms=target_height_ms,
            projection=projection,
            planar=planar,
            started=started,
            presolve_seconds=time.perf_counter() - started,
            constraints=constraints,
        )

    def postsolve(
        self,
        presolved: PresolvedTarget,
        region,
        diagnostics,
        solve_share: float | None = None,
    ) -> LocationEstimate:
        """Wrap a solved region into the estimate :meth:`localize` returns.

        ``solve_share`` is the cohort driver's amortized per-target solve
        time: in a fused chunk the wall span since ``presolved.started``
        covers every groupmate's presolve plus the pooled solve, so the
        honest per-target figure is this target's own presolve time plus
        its share of the pooled solve.  Without it (a lone solve, as in
        :func:`~repro.core.reference.reference_localize`) the wall span is
        the per-target truth.
        """
        point = region.point_estimate() if not region.is_empty() else None
        if point is None:
            point = self._fallback_point(
                presolved.target_id, presolved.landmarks, presolved.prepared
            )

        if solve_share is not None:
            elapsed = presolved.presolve_seconds + solve_share
        else:
            elapsed = time.perf_counter() - presolved.started
        return LocationEstimate(
            target_id=presolved.target_id,
            method="octant",
            point=point,
            region=region if not region.is_empty() else None,
            constraints_used=diagnostics.constraints_applied,
            constraints_dropped=diagnostics.constraints_skipped,
            solve_time_s=elapsed,
            details={
                "target_height_ms": presolved.target_height_ms,
                "landmark_count": len(presolved.landmarks),
                "dropped_constraints": list(diagnostics.dropped_constraints),
                "max_weight": diagnostics.max_weight,
                "geo_mask": diagnostics.geo_mask,
                "solver_engine": diagnostics.engine,
                "solver_seconds": diagnostics.solve_seconds,
                "kernel": diagnostics.kernel_summary(),
            },
        )

    def localize_all(
        self,
        target_ids: Sequence[str] | None = None,
    ) -> dict[str, LocationEstimate]:
        """Leave-one-out localization of every host (or the given targets).

        Runs on :meth:`batch_localizer`: full-cohort shared state is computed
        once per dataset version (and kept across calls), each target's
        leave-one-out view is derived in one batched cohort pass, and the
        cohort is solved in chunks.  A
        target that cannot be localized (fewer than 3 reachable landmarks,
        missing ground truth) is recorded as a failed estimate --
        ``point=None`` with the reason under ``details["error"]`` -- instead
        of aborting the whole study.
        """
        return self.batch_localizer().localize_all(target_ids)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _projection_for(
        self, prepared: PreparedLandmarks, target_id: str
    ) -> Projection:
        """Projection centred on the landmarks weighted toward the target.

        The target's position is unknown, so the projection is centred on the
        locations of the landmarks with the lowest latency to the target --
        they bracket the target and keep projection distortion small where the
        constraints are tight.
        """
        rtts: list[tuple[float, str]] = []
        for lid in prepared.landmark_ids:
            rtt = self.dataset.min_rtt_ms(lid, target_id)
            if rtt is not None:
                rtts.append((rtt, lid))
        rtts.sort()
        nearest = [prepared.locations[lid] for _, lid in rtts[:8]]
        if not nearest:
            nearest = list(prepared.locations.values())
        return projection_for_points(nearest)

    def _fallback_point(
        self,
        target_id: str,
        landmarks: Sequence[str],
        prepared: PreparedLandmarks,
    ) -> GeoPoint | None:
        """Last-resort point estimate: the lowest-latency landmark's location."""
        best: tuple[float, str] | None = None
        for lid in landmarks:
            rtt = self.dataset.min_rtt_ms(lid, target_id)
            if rtt is None:
                continue
            if best is None or rtt < best[0]:
                best = (rtt, lid)
        if best is None:
            return None
        return prepared.locations[best[1]]
