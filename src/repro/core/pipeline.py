"""The staged constraint pipeline: assembly -> planarization -> solve.

:class:`Octant.localize` used to run one monolithic flow; this module factors
it into three explicit, independently reusable stages so the batch engine and
the online serving front-end (:mod:`repro.serving`) drive exactly the same
machinery:

1. **Assembly** (:meth:`ConstraintPipeline.assemble`) -- turn the target's
   measurements plus the prepared landmark state into a
   :class:`~repro.core.constraints.ConstraintSet`.  The stage caches the
   target-independent geographic constraints (they depend only on the
   configuration).
2. **Planarization** (:meth:`ConstraintPipeline.planarize`) -- realize every
   constraint as planar polygons under the localization's projection.  The
   expensive geometry (geodesic circle boundaries, projected disk and ring
   polygons) is memoized in the shared
   :class:`~repro.geometry.circles.CircleCache` keyed
   ``(projection_key, circle_key)``, so a repeated-target request under the
   same projection re-uses the clipped planar geometry instead of
   re-projecting it.  Cache hits return the very polygons a miss would have
   constructed, keeping cached and uncached runs bit-identical (pinned by
   ``tests/core/test_solver_engines.py``).
3. **Solve** (:meth:`ConstraintPipeline.solve`) -- the weighted accumulation
   through :class:`~repro.core.solver.WeightedRegionSolver` (vector kernel by
   default).

Each stage records its wall time in :class:`PipelineStats`; the serving layer
surfaces those together with the geometry-cache hit/miss counters as its
warm/cold statistics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .._lru import BoundedLRU
from ..resilience.deadline import checkpoint
from ..geometry import CircleCache, Projection, Region, rtt_ms_to_max_distance_km
from ..network.dataset import MeasurementDataset
from ..network.dns import UndnsParser
from .config import OctantConfig
from .constraints import (
    Constraint,
    ConstraintSet,
    DiskConstraint,
    DistanceConstraint,
    GeoRegionConstraint,
    PlanarConstraint,
    latency_weight,
)
from .geo_constraints import geographic_constraints, whois_constraint
from .piecewise import secondary_constraints_for_target
from .solver import SolverDiagnostics, WeightedRegionSolver, solve_systems

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .octant import PreparedLandmarks

__all__ = ["ConstraintPipeline", "PipelineStats"]


@dataclass
class PipelineStats:
    """Accumulated per-stage wall time and run counts for one pipeline."""

    runs: int = 0
    assemble_seconds: float = 0.0
    planarize_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Pre-solve derivation stages driven by the batch engine; the scalar
    #: facade leaves them at zero (its derivations happen inside prepare()).
    heights_seconds: float = 0.0
    calibration_seconds: float = 0.0
    piecewise_seconds: float = 0.0
    constraints_assembled: int = 0
    constraints_planarized: int = 0
    planar_memo_hits: int = 0
    planar_memo_misses: int = 0
    #: Cross-solve constraint-geometry table cache traffic of this
    #: pipeline's solves (see ``repro.geometry.kernel``); repeated-target
    #: serving should be hit-dominated once warm.
    geometry_table_hits: int = 0
    geometry_table_misses: int = 0

    def merge(self, other: "PipelineStats") -> None:
        """Fold another pipeline's accumulated counters into this one.

        The serving layer retires one pipeline per dataset snapshot; merging
        keeps lifetime totals across swaps.
        """
        self.runs += other.runs
        self.assemble_seconds += other.assemble_seconds
        self.planarize_seconds += other.planarize_seconds
        self.solve_seconds += other.solve_seconds
        self.heights_seconds += other.heights_seconds
        self.calibration_seconds += other.calibration_seconds
        self.piecewise_seconds += other.piecewise_seconds
        self.constraints_assembled += other.constraints_assembled
        self.constraints_planarized += other.constraints_planarized
        self.planar_memo_hits += other.planar_memo_hits
        self.planar_memo_misses += other.planar_memo_misses
        self.geometry_table_hits += other.geometry_table_hits
        self.geometry_table_misses += other.geometry_table_misses

    def snapshot(self) -> dict[str, float]:
        """A flat dict view for reporting (serving stats, benchmarks)."""
        return {
            "runs": self.runs,
            "assemble_seconds": round(self.assemble_seconds, 6),
            "planarize_seconds": round(self.planarize_seconds, 6),
            "solve_seconds": round(self.solve_seconds, 6),
            "heights_seconds": round(self.heights_seconds, 6),
            "calibration_seconds": round(self.calibration_seconds, 6),
            "piecewise_seconds": round(self.piecewise_seconds, 6),
            "constraints_assembled": self.constraints_assembled,
            "constraints_planarized": self.constraints_planarized,
            "planar_memo_hits": self.planar_memo_hits,
            "planar_memo_misses": self.planar_memo_misses,
            "geometry_table_hits": self.geometry_table_hits,
            "geometry_table_misses": self.geometry_table_misses,
        }


class ConstraintPipeline:
    """Reusable staged localization pipeline over one dataset + configuration.

    The pipeline is deliberately free of per-target state: everything a stage
    needs arrives as arguments, and everything it caches
    (:attr:`circle_cache`, the geographic constraint list) is either
    content-addressed or target-independent.  One instance can therefore be
    shared by the sequential facade, the batch engine's thread workers and
    the serving executor concurrently.
    """

    def __init__(
        self,
        dataset: MeasurementDataset,
        config: OctantConfig | None = None,
        parser: UndnsParser | None = None,
        circle_cache: CircleCache | None = None,
        planar_memo: BoundedLRU[list[PlanarConstraint]] | None = None,
    ):
        self.dataset = dataset
        self.config = config or OctantConfig()
        self.parser = parser or UndnsParser()
        # Geodesic boundaries and planar (projection, circle) polygons are
        # projection/content addressed, so one cache serves every target this
        # pipeline localizes; the batch engine and the serving layer share it
        # across the whole cohort (see BatchSharedState / LocalizationService).
        self.circle_cache = (
            circle_cache
            if circle_cache is not None
            else CircleCache(capacity=self.config.solver.circle_cache_size)
        )
        self._geo_constraints: list[Constraint] | None = None
        # Stage-2 memo: the fully realized planar constraint list keyed by
        # (projection key, the ordered constraint descriptions themselves).
        # Constraints are frozen dataclasses, so equal measurement state
        # yields equal keys; a repeated-target request at the same dataset
        # version therefore skips every to_planar call, not just the circle
        # geometry underneath them.  Content addressing also makes the memo
        # safe to share across pipelines over *different* dataset versions
        # (changed measurements produce different constraints, hence
        # different keys), so the serving layer passes one service-lifetime
        # ``planar_memo`` through every post-ingest rebuild, like the circle
        # cache above.
        self._planar_memo: BoundedLRU[list[PlanarConstraint]] = (
            planar_memo if planar_memo is not None else BoundedLRU(256)
        )
        self.stats = PipelineStats()
        # Counter accumulation is read-modify-write; the batch engine's
        # thread executor drives one shared pipeline from many threads
        # concurrently, and unlocked ``+=`` would quietly lose updates.  Every stats mutation takes this lock; the
        # stage caches themselves are lock-free by design (BoundedLRU
        # tolerates races, CircleCache is content-addressed).
        self._stats_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_stats_lock", None)  # locks are not picklable
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Stage 1: constraint assembly
    # ------------------------------------------------------------------ #
    def assemble(
        self,
        target_id: str,
        prepared: "PreparedLandmarks",
        target_height_ms: float = 0.0,
    ) -> ConstraintSet:
        """Assemble every constraint for one target under the configuration."""
        checkpoint("assemble", target_id)
        started = time.perf_counter()
        cfg = self.config
        constraints = ConstraintSet()

        margin = cfg.height_margin_ms if cfg.use_heights else 0.0
        for landmark_id in prepared.landmark_ids:
            rtt = self.dataset.min_rtt_ms(landmark_id, target_id)
            if rtt is None:
                continue
            adjusted = rtt
            if prepared.heights is not None:
                adjusted = max(
                    0.5, rtt - prepared.heights.height(landmark_id) - target_height_ms
                )

            calibration = prepared.calibrations.get(landmark_id)
            if cfg.use_calibration and calibration is not None:
                # Evaluate the positive bound a margin above and the negative
                # bound a margin below the adjusted latency, so errors in the
                # height estimates cannot turn a sound constraint unsound.
                max_km = calibration.max_distance_km(adjusted + margin)
                min_km = calibration.min_distance_km(max(0.0, adjusted - margin))
                if not cfg.use_negative_constraints:
                    min_km = 0.0
            else:
                max_km = rtt_ms_to_max_distance_km(adjusted + margin)
                min_km = 0.0

            weight = 1.0
            if cfg.use_weights:
                weight = latency_weight(
                    adjusted, cfg.weight_decay_ms, cfg.min_constraint_weight
                )
            max_km = max(max_km, cfg.min_positive_bound_km)
            constraints.add(
                DistanceConstraint(
                    landmark_id=landmark_id,
                    landmark_location=prepared.locations[landmark_id],
                    max_km=max_km,
                    min_km=max(0.0, min(min_km, max_km * 0.98)),
                    weight=weight,
                    circle_segments=cfg.solver.circle_segments,
                    geometry_cache=self.circle_cache,
                )
            )

        if self._geo_constraints is None:
            # Geographic constraints depend only on the configuration, never
            # on the target; build them once per pipeline instance.
            self._geo_constraints = list(
                geographic_constraints(cfg, cache=self.circle_cache)
            )
        constraints.extend(self._geo_constraints)
        constraints.add(
            whois_constraint(self.dataset, target_id, cfg, cache=self.circle_cache)
        )

        if cfg.use_piecewise and prepared.router_positions:
            constraints.extend(
                secondary_constraints_for_target(
                    target_id,
                    list(prepared.landmark_ids),
                    self.dataset,
                    prepared.router_positions,
                    prepared.calibrations,
                    cfg,
                    prepared.heights,
                    target_height_ms,
                    geometry_cache=self.circle_cache,
                )
            )
        with self._stats_lock:
            self.stats.assemble_seconds += time.perf_counter() - started
            self.stats.constraints_assembled += len(constraints)
        return constraints

    def assemble_many(
        self,
        items: Sequence[tuple[str, "PreparedLandmarks", float]],
    ) -> list[ConstraintSet]:
        """Assemble constraint sets for a cohort of targets, in input order.

        Assembly is measurement gathering plus constraint-object construction;
        the shared work (the geographic constraint list) is already memoized
        per pipeline, so the cohort form is a straight loop kept for stage
        symmetry — timings accumulate per call into :attr:`stats`.
        """
        return [
            self.assemble(target_id, prepared, target_height_ms)
            for target_id, prepared, target_height_ms in items
        ]

    # ------------------------------------------------------------------ #
    # Stage 2: projection planarization
    # ------------------------------------------------------------------ #
    def planarize(
        self,
        constraints: ConstraintSet,
        projection: Projection,
        key: object = None,
    ) -> list[PlanarConstraint]:
        """Realize the constraints as planar geometry, heaviest first.

        Constraints that degenerate to nothing under the projection (an
        erosion that comes out empty) are dropped, matching what the solver
        would otherwise skip.  A memo hit returns the realized list built by
        an earlier identical request (same projection, equal constraint
        descriptions); the planar constraints are immutable, so the hit is
        bit-identical to re-realizing them.  ``key`` labels the resilience
        checkpoint with the unit of work (typically the target id).
        """
        checkpoint("planarize", key)
        started = time.perf_counter()
        ordered = constraints.sorted_by_weight()
        key = self._memo_key(ordered, projection)
        if key is not None:
            cached = self._planar_memo.get(key)
            if cached is not None:
                with self._stats_lock:
                    self.stats.planar_memo_hits += 1
                    self.stats.planarize_seconds += time.perf_counter() - started
                return list(cached)
            with self._stats_lock:
                self.stats.planar_memo_misses += 1
        planar = [p for c in ordered if (p := c.to_planar(projection)) is not None]
        if key is not None:
            self._planar_memo.put(key, list(planar))
        with self._stats_lock:
            self.stats.planarize_seconds += time.perf_counter() - started
            self.stats.constraints_planarized += len(planar)
        return planar

    def planarize_many(
        self,
        systems: Sequence[tuple[ConstraintSet, Projection]],
    ) -> list[list[PlanarConstraint]]:
        """Planarize a cohort of constraint systems with pooled geometry.

        Before realizing anything, every system that will miss the planar
        memo contributes its disk and ring realizations to one pooled
        :class:`~repro.geometry.circles.CircleCache` warm pass (a single
        batched boundary computation plus one projection pass per working
        plane, instead of per-disk scalar loops).  Each system is then
        planarized by the scalar :meth:`planarize`, which finds every circle
        already cached — results are bitwise identical to per-target calls
        because the warm path realizes exactly the scalar geometry.
        """
        started = time.perf_counter()
        boundary_jobs: dict[int, tuple[CircleCache, list]] = {}
        planar_jobs: dict[tuple[int, tuple], tuple[CircleCache, Projection, list]] = {}
        ring_jobs: dict[tuple[int, tuple, tuple], tuple[CircleCache, Projection, tuple]] = {}
        for constraints, projection in systems:
            ordered = constraints.sorted_by_weight()
            key = self._memo_key(ordered, projection)
            if key is not None and self._planar_memo.get(key) is not None:
                continue  # planarize() will take the memo hit
            projection_key = projection.cache_key()
            for constraint in ordered:
                cache = getattr(constraint, "geometry_cache", None)
                if cache is None:
                    continue
                specs = []
                if isinstance(constraint, DistanceConstraint):
                    specs.append(
                        (constraint.landmark_location, constraint.max_km, constraint.circle_segments)
                    )
                    if constraint.min_km > 0:
                        specs.append(
                            (constraint.landmark_location, constraint.min_km, constraint.circle_segments)
                        )
                elif isinstance(constraint, DiskConstraint):
                    specs.append(
                        (constraint.center, constraint.radius_km, constraint.circle_segments)
                    )
                elif isinstance(constraint, GeoRegionConstraint) and projection_key is not None:
                    ring = tuple(constraint.ring)
                    ring_jobs.setdefault(
                        (id(cache), projection_key, ring), (cache, projection, ring)
                    )
                    continue
                if not specs:
                    continue
                boundary_jobs.setdefault(id(cache), (cache, []))[1].extend(specs)
                if projection_key is not None:
                    planar_jobs.setdefault(
                        (id(cache), projection_key), (cache, projection, [])
                    )[2].extend(specs)
        for cache, specs in boundary_jobs.values():
            cache.warm_boundaries(specs)
        for cache, projection, specs in planar_jobs.values():
            cache.warm_planar_disks(projection, specs)
        for cache, projection, ring in ring_jobs.values():
            cache.planar_ring(ring, projection)
        with self._stats_lock:
            self.stats.planarize_seconds += time.perf_counter() - started

        return [
            self.planarize(constraints, projection)
            for constraints, projection in systems
        ]

    @staticmethod
    def _memo_key(
        ordered: Sequence[Constraint], projection: Projection
    ) -> tuple | None:
        """Memo key for a realized constraint system, or ``None`` if unkeyable."""
        projection_key = projection.cache_key()
        if projection_key is None:
            return None
        key = (projection_key, tuple(ordered))
        try:
            hash(key)  # tuple() never raises; hashing the elements can
        except TypeError:  # a custom unhashable constraint type
            return None
        return key

    # ------------------------------------------------------------------ #
    # Stage 3: kernel solve
    # ------------------------------------------------------------------ #
    def solve(
        self,
        planar: Sequence[PlanarConstraint],
        projection: Projection,
        engine: str | None = None,
        key: object = None,
    ) -> tuple[Region, SolverDiagnostics]:
        """Run the weighted accumulation and return region + diagnostics.

        Dispatches on ``SolverConfig.engine`` (a ``"fused"`` engine solves a
        single system as a cohort of one); cohort callers should prefer
        :meth:`solve_many`, which amortizes the fused kernel's batched
        passes across every system of the cohort.  ``engine`` overrides the
        configured engine for this solve only -- the degradation ladder uses
        it to retry a failed solve on a lower rung without rebuilding the
        pipeline (all engines are bit-identical, so a fallback answer equals
        the primary one).
        """
        checkpoint("solve", key)
        started = time.perf_counter()
        config = self.config.solver
        if engine is not None and engine != config.engine:
            config = replace(config, engine=engine)
        solver = WeightedRegionSolver(config)
        region = solver.solve(planar, projection)
        with self._stats_lock:
            self.stats.solve_seconds += time.perf_counter() - started
            self.stats.geometry_table_hits += solver.diagnostics.geometry_table_hits
            self.stats.geometry_table_misses += (
                solver.diagnostics.geometry_table_misses
            )
        return region, solver.diagnostics

    def solve_many(
        self,
        systems: Sequence[tuple[Sequence[PlanarConstraint], Projection]],
        engine: str | None = None,
        key: object = None,
    ) -> list[tuple[Region, SolverDiagnostics]]:
        """Solve a cohort of realized constraint systems.

        Under ``engine="fused"`` the whole cohort advances in lockstep
        through one :class:`~repro.geometry.kernel.FusedSolverKernel` run
        (single NumPy passes clip every target's pieces at once); other
        engines solve each system independently.  Results are bit-identical
        to calling :meth:`solve` per system, in input order.  ``engine``
        overrides the configured engine for this cohort only (degradation
        ladder); ``key`` labels the resilience checkpoint.
        """
        checkpoint("solve", key)
        started = time.perf_counter()
        config = self.config.solver
        if engine is not None and engine != config.engine:
            config = replace(config, engine=engine)
        results = solve_systems(config, list(systems))
        with self._stats_lock:
            self.stats.solve_seconds += time.perf_counter() - started
            for _region, diagnostics in results:
                self.stats.geometry_table_hits += diagnostics.geometry_table_hits
                self.stats.geometry_table_misses += diagnostics.geometry_table_misses
        return results

    # ------------------------------------------------------------------ #
    # Full pipeline
    # ------------------------------------------------------------------ #
    def run(
        self,
        target_id: str,
        prepared: "PreparedLandmarks",
        target_height_ms: float,
        projection: Projection,
        engine: str | None = None,
    ) -> tuple[Region, SolverDiagnostics]:
        """Assemble, planarize and solve one target's constraint system."""
        constraints = self.assemble(target_id, prepared, target_height_ms)
        planar = self.planarize(constraints, projection, key=target_id)
        region, diagnostics = self.solve(planar, projection, engine=engine, key=target_id)
        self.count_runs(1)
        return region, diagnostics

    def count_runs(self, n: int) -> None:
        """Thread-safe run-counter bump (batch chunk solves share one pipeline)."""
        with self._stats_lock:
            self.stats.runs += n
