"""The staged constraint pipeline: assembly -> planarization -> solve.

:class:`Octant.localize` used to run one monolithic flow; this module factors
it into three explicit, independently reusable stages so the batch engine and
the online serving front-end (:mod:`repro.serving`) drive exactly the same
machinery:

1. **Assembly** (:meth:`ConstraintPipeline.assemble`) -- turn the target's
   measurements plus the prepared landmark state into a
   :class:`~repro.core.constraints.ConstraintSet`.  The set also holds the
   pipeline's geographic rings (oceans and uninhabited areas, Octant §2.5),
   which depend only on the configuration and are built once.
2. **Planarization** (:meth:`ConstraintPipeline.planarize`) -- realize every
   measurement constraint as planar polygons under the localization's
   projection.  The expensive geometry (geodesic circle boundaries,
   projected disk and ring polygons) is memoized in the shared
   :class:`~repro.geometry.circles.CircleCache` keyed
   ``(projection_key, circle_key)``, and the realized list in the planar
   memo, so a repeated-target request under the same projection re-uses
   the planar geometry instead of re-projecting it.  Cache hits return the
   very polygons a miss would have constructed, keeping cached and uncached
   runs bit-identical (pinned by ``tests/core/test_solver_engines.py``).
3. **Solve** (:meth:`ConstraintPipeline.solve_many`) -- the weighted
   accumulation through :func:`~repro.core.solver.solve_systems` (the fused
   NumPy kernel by default) over the measurement constraints only.  The
   geographic rings carry no weight: they are realized per projection
   through the circle cache (:meth:`~ConstraintPipeline.land_mask`) and
   subtracted from the selected pieces as a hard exclusion
   (:func:`~repro.geometry.kernel.select_region`), whichever engine ran.

The pipeline holds no dataset: :meth:`~ConstraintPipeline.assemble` takes
it as an argument, and every cache the stages keep is content-addressed or
depends only on the configuration.  So one pipeline serves every dataset
snapshot of a :class:`~repro.serving.LocalizationService`'s lifetime, and
its caches and counters span all of them.

Each stage records its wall time in :class:`PipelineStats`, and the batch
engine records its pre-solve stages and prepared-cache lookups there too;
the serving layer surfaces those together with the circle-cache and
planar-memo hit/miss counters as its warm/cold statistics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Sequence

from .._lru import BoundedLRU
from ..resilience.deadline import checkpoint
from ..geometry import CircleCache, Polygon, Projection, Region, rtt_ms_to_max_distance_km
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
from .solver import SolverDiagnostics, solve_systems

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .octant import PreparedLandmarks

__all__ = ["ConstraintPipeline", "PipelineStats"]


@dataclass
class PipelineStats:
    """Accumulated per-stage wall time and counters for one pipeline.

    The serving executor drives one pipeline from many threads, and an
    unlocked ``+=`` is a read-modify-write that quietly loses updates, so
    every update goes through :meth:`add`.
    """

    runs: int = 0
    assemble_seconds: float = 0.0
    planarize_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: Pre-solve derivation stages driven by the batch engine
    #: (:meth:`~repro.core.batch.BatchLocalizer.prepare_many`).
    heights_seconds: float = 0.0
    calibration_seconds: float = 0.0
    piecewise_seconds: float = 0.0
    constraints_assembled: int = 0
    constraints_planarized: int = 0
    planar_memo_hits: int = 0
    planar_memo_misses: int = 0
    #: Lookups in the batch engine's prepared-landmarks LRU.
    prepared_hits: int = 0
    prepared_misses: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def add(self, **amounts: float) -> None:
        """Add ``amounts`` to the named counters, atomically."""
        with self._lock:
            for name, amount in amounts.items():
                setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> dict[str, float]:
        """A flat dict view for reporting (serving stats, benchmarks)."""
        with self._lock:
            values = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return {
            name: round(value, 6) if isinstance(value, float) else value
            for name, value in values.items()
        }


class ConstraintPipeline:
    """Reusable staged localization pipeline for one configuration.

    The pipeline holds no dataset and no per-target state: everything a
    stage needs arrives as arguments, and everything it caches (the circle
    cache, the planar memo, the geographic ring list) is
    either content-addressed or depends only on the configuration.  One
    instance can therefore serve every dataset snapshot, and the sequential
    facade, the batch engine and the serving executor threads concurrently.
    """

    def __init__(
        self,
        config: OctantConfig | None = None,
        parser: UndnsParser | None = None,
    ):
        self.config = config or OctantConfig()
        self.parser = parser or UndnsParser()
        # Geodesic boundaries and planar (projection, circle) polygons are
        # projection/content addressed, so one cache serves every target
        # and every dataset version this pipeline localizes.
        self.circle_cache = CircleCache()
        # Geographic rings depend only on the configuration, never on the
        # target; build them once per pipeline instance.  A constraint set
        # names them by value (equal to one of these), never by label.
        self._geo_constraints: list[Constraint] = list(
            geographic_constraints(self.config, cache=self.circle_cache)
        )
        self._rings = frozenset(self._geo_constraints)
        # Stage-2 memo: the fully realized planar constraint list keyed by
        # (projection key, the ordered constraint descriptions themselves).
        # Constraints are frozen dataclasses, so equal measurement state
        # yields equal keys; a repeated-target request therefore skips every
        # to_planar call, not just the circle geometry underneath them.
        # Changed measurements produce different constraints, hence
        # different keys, so entries stay valid across dataset versions.
        self._planar_memo: BoundedLRU[list[PlanarConstraint]] = BoundedLRU(256)
        self.stats = PipelineStats()

    # ------------------------------------------------------------------ #
    # Stage 1: constraint assembly
    # ------------------------------------------------------------------ #
    def assemble(
        self,
        dataset: MeasurementDataset,
        target_id: str,
        prepared: "PreparedLandmarks",
        target_height_ms: float = 0.0,
    ) -> ConstraintSet:
        """Assemble every constraint for one target from ``dataset``."""
        checkpoint("assemble", target_id)
        started = time.perf_counter()
        cfg = self.config
        constraints = ConstraintSet()

        margin = cfg.height_margin_ms if cfg.use_heights else 0.0
        for landmark_id in prepared.landmark_ids:
            rtt = dataset.min_rtt_ms(landmark_id, target_id)
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

        constraints.extend(self._geo_constraints)
        constraints.add(
            whois_constraint(dataset, target_id, cfg, cache=self.circle_cache)
        )

        if cfg.use_piecewise and prepared.router_positions:
            constraints.extend(
                secondary_constraints_for_target(
                    target_id,
                    list(prepared.landmark_ids),
                    dataset,
                    prepared.router_positions,
                    prepared.calibrations,
                    cfg,
                    prepared.heights,
                    target_height_ms,
                    geometry_cache=self.circle_cache,
                )
            )
        self.stats.add(
            assemble_seconds=time.perf_counter() - started,
            constraints_assembled=len(constraints),
        )
        return constraints

    # ------------------------------------------------------------------ #
    # Stage 2: projection planarization
    # ------------------------------------------------------------------ #
    def planarize(
        self,
        constraints: ConstraintSet,
        projection: Projection,
        key: object = None,
    ) -> list[PlanarConstraint]:
        """Realize the measurement constraints as planar geometry, heaviest first.

        The pipeline's geographic rings are left out: they mask the
        selection instead (:meth:`land_mask`).  Constraints that degenerate
        to nothing under the projection (an erosion that comes out empty)
        are dropped, matching what the solver would otherwise skip.  A memo
        hit returns the realized list built by an earlier identical request
        (same projection, equal constraint descriptions); the planar
        constraints are immutable, so the hit is bit-identical to
        re-realizing them.  ``key`` labels the resilience checkpoint with
        the unit of work (typically the target id).
        """
        checkpoint("planarize", key)
        started = time.perf_counter()
        ordered = self._measurements(constraints)
        key = self._memo_key(ordered, projection)
        if key is not None:
            cached = self._planar_memo.get(key)
            if cached is not None:
                self.stats.add(
                    planar_memo_hits=1,
                    planarize_seconds=time.perf_counter() - started,
                )
                return list(cached)
        planar = [p for c in ordered if (p := c.to_planar(projection)) is not None]
        if key is not None:
            self._planar_memo.put(key, list(planar))
        self.stats.add(
            planar_memo_misses=int(key is not None),
            planarize_seconds=time.perf_counter() - started,
            constraints_planarized=len(planar),
        )
        return planar

    def planarize_many(
        self,
        systems: Sequence[tuple[ConstraintSet, Projection]],
        keys: Sequence[object] | None = None,
    ) -> list[list[PlanarConstraint]]:
        """Planarize a cohort of constraint systems with pooled geometry.

        Before realizing anything, every system that will miss the planar
        memo contributes its disk realizations to one pooled
        :class:`~repro.geometry.circles.CircleCache` warm pass (a single
        batched boundary computation plus one projection pass per working
        plane, instead of per-disk scalar loops).  Each system is then
        planarized by the scalar :meth:`planarize`, which finds every circle
        already cached — results are bitwise identical to per-target calls
        because the warm path realizes exactly the scalar geometry.
        ``keys`` labels each system's resilience checkpoint (typically the
        target ids, in system order).
        """
        started = time.perf_counter()
        boundary_jobs: dict[int, tuple[CircleCache, list]] = {}
        planar_jobs: dict[tuple[int, tuple], tuple[CircleCache, Projection, list]] = {}
        for constraints, projection in systems:
            ordered = self._measurements(constraints)
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
        self.stats.add(planarize_seconds=time.perf_counter() - started)

        if keys is None:
            keys = [None] * len(systems)
        return [
            self.planarize(constraints, projection, key=key)
            for (constraints, projection), key in zip(systems, keys)
        ]

    def _measurements(self, constraints: ConstraintSet) -> list[Constraint]:
        """The set's constraints minus the pipeline's rings, heaviest first."""
        return [
            c
            for c in constraints.sorted_by_weight()
            if not (isinstance(c, GeoRegionConstraint) and c in self._rings)
        ]

    def land_mask(self, projection: Projection) -> list[Polygon]:
        """The geographic rings as planar exclusions under ``projection``.

        Each ring is projected once per projection through the circle
        cache; empty when the configuration turns geography off.
        """
        return [c.to_planar(projection).exclusion for c in self._geo_constraints]

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
        key: object = None,
    ) -> tuple[Region, SolverDiagnostics]:
        """Run the weighted accumulation and return region + diagnostics.

        A cohort of one through :meth:`solve_many`; cohort callers should
        call that directly, which amortizes the fused kernel's batched
        passes across every system of the cohort.  ``key`` labels the
        resilience checkpoint.
        """
        return self.solve_many([(planar, projection)], keys=(key,))[0]

    def solve_many(
        self,
        systems: Sequence[tuple[Sequence[PlanarConstraint], Projection]],
        engine: str | None = None,
        keys: Sequence[object] = (),
    ) -> list[tuple[Region, SolverDiagnostics]]:
        """Solve a cohort of realized constraint systems.

        Under ``engine="fused"`` the whole cohort advances in lockstep
        through one :class:`~repro.geometry.kernel.FusedSolverKernel` run
        (single NumPy passes clip every target's pieces at once); the object
        engine solves each system independently.  Results are bit-identical
        to calling :meth:`solve` per system, in input order.  ``engine``
        overrides the configured engine for this cohort only (degradation
        ladder: the engines are bit-identical, so a fallback answer equals
        the primary one); ``keys`` label one resilience checkpoint each
        (typically the target ids), fired before the pooled solve.  Each
        system's selection is masked by the geographic rings under its
        projection (:meth:`land_mask`).
        """
        for key in keys or (None,):
            checkpoint("solve", key)
        started = time.perf_counter()
        config = self.config.solver
        if engine is not None and engine != config.engine:
            config = replace(config, engine=engine)
        results = solve_systems(
            config,
            list(systems),
            [self.land_mask(projection) for _planar, projection in systems],
        )
        self.stats.add(solve_seconds=time.perf_counter() - started)
        return results
