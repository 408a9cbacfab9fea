"""Batch leave-one-out localization: shared state once, per-target views.

The paper's entire evaluation is leave-one-out: every host becomes the target
while all others serve as landmarks.  Deriving each target's state from
scratch (:func:`~repro.core.reference.reference_prepare`) re-runs O(n^2)
height estimation, per-landmark calibration and router localization for
every target, because each target sees a *different* landmark set.  A full
accuracy study is then effectively O(n^3).

:class:`BatchLocalizer` restructures the computation around what actually
changes between targets:

1. **Full-cohort shared state, computed once.**  The pairwise min-RTT and
   great-circle distance matrices (cached on the
   :class:`~repro.network.dataset.MeasurementDataset` itself), the per-host
   measured-pair degrees, the ground-truth location map, the DNS-derived
   router positions (which depend only on DNS records, never on the landmark
   set) and the router observation index.

2. **Cohort derivation.**  Each target's leave-one-out
   :class:`PreparedLandmarks` is derived by *masking* the held-out host's
   samples out of the shared state and re-running only the mask-sensitive
   estimators (the height fix-point, pseudo-target heights, convex-hull
   calibration, latency-only router positions) once over the whole cohort
   (:meth:`BatchLocalizer.prepare_many`).  Every batched estimator is
   bit-identical to its scalar reference, so every derived estimate is
   **identical** to the from-scratch
   :func:`~repro.core.reference.reference_localize` -- a property pinned by
   ``tests/core/test_batch.py``.  This is the only runtime derivation:
   :meth:`Octant.localize` is a cohort of one through it.

3. **One solve path.**  :meth:`BatchLocalizer.solve_many` is the only body
   that turns prepared state into estimates.  A single request
   (:meth:`BatchLocalizer.localize_one`) is a cohort of one through it, and
   :meth:`BatchLocalizer.localize_all` runs one whole-cohort preparation,
   then solves the cohort in chunks of ``SolverConfig.fuse_width`` targets
   and merges them in input order.  There is no
   worker fan-out: thread and fork-pool fan-out never beat this serial path
   on the NumPy kernels (see ``DESIGN_BATCH.md``).  Concurrency lives in the
   serving tier, which drives one shared localizer from its executor
   threads.

Per-target failures (a target with fewer than 3 reachable landmarks, a host
without ground truth) are recorded as failed estimates -- ``point=None`` with
the reason under ``details["error"]`` -- instead of aborting the whole study.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .._lru import BoundedLRU
from ..geometry import GeoPoint
from ..network.dataset import IngestDelta, MeasurementDataset
from ..network.dns import UndnsParser
from ..resilience.deadline import checkpoint, resilience_scope
from ..resilience.errors import classify_error
from ..resilience.faults import FaultPlan
from .calibration import CalibrationSet, build_calibration_sets_many
from .config import OctantConfig
from .estimate import LocationEstimate
from .heights import HeightModel, TargetHeightTables, estimate_landmark_heights_many
from .octant import Octant, PreparedLandmarks, pseudo_target_heights
from .piecewise import (
    RouterLocalizer,
    RouterPosition,
    build_router_observation_index,
    localize_routers_many,
)

__all__ = ["BatchLocalizer", "BatchSharedState", "failed_estimate", "localize_many"]


def failed_estimate(
    target_id: str,
    method: str,
    error: BaseException | str,
    traceback: str | None = None,
    stats: Mapping[str, float] | None = None,
    error_type: str | None = None,
) -> LocationEstimate:
    """A recorded per-target failure: no point, no region, reason in details.

    ``details["error_type"]`` carries the exception class name so failure
    modes can be aggregated without parsing messages (``error_type``
    overrides it for failures with no exception, e.g. ``"shutdown"``);
    ``details["error_class"]`` is the resilience taxonomy bucket
    (``retriable`` / ``fatal`` / ``deadline`` / ``cancelled`` / ``timeout``
    / ``shutdown``) so policy-level aggregation does not depend on concrete
    exception classes.  ``traceback`` accepts a pre-formatted traceback
    string (the serving path captures it at the executor boundary) stored
    under ``details["traceback"]`` -- failures stay diagnosable from the
    estimate alone, without process logs.  ``stats`` records the target's
    share of pooled pipeline-stage time under ``details["pipeline_stats"]``:
    a target that fails halfway through the batched derivation still
    consumed height/calibration work, and per-stage accounting would
    undercount without it.
    """
    details: dict[str, object] = {"error": str(error)}
    if error_type is not None:
        details["error_type"] = error_type
        details["error_class"] = error_type
    elif isinstance(error, BaseException):
        details["error_type"] = type(error).__name__
        details["error_class"] = classify_error(error)
    if traceback:
        details["traceback"] = traceback
    if stats:
        details["pipeline_stats"] = {k: float(v) for k, v in dict(stats).items()}
    return LocationEstimate(
        target_id=target_id,
        method=method,
        point=None,
        region=None,
        details=details,
    )


@dataclass
class _PrepareFailure:
    """A captured per-target preparation failure from the batched derivation.

    Carries the exception exactly as the scalar path would have raised it,
    plus the target's share of any pooled stage time it consumed before
    failing (fed to :func:`failed_estimate` as ``stats``).
    """

    error: Exception
    stats: dict[str, float] = field(default_factory=dict)


@dataclass
class BatchSharedState:
    """Full-cohort state computed once and shared by every per-target view."""

    locations: dict[str, GeoPoint]
    #: Measured host pairs, keys ``(a, b)`` with ``a < b`` (dataset cache).
    rtt_matrix: Mapping[tuple[str, str], float]
    #: Number of measured pairs each host participates in.
    pair_degree: Mapping[str, int]
    #: DNS-derived router positions are landmark-set independent; one shared
    #: cache avoids re-parsing every router's DNS name per target.
    dns_cache: dict[str, RouterPosition | None] = field(default_factory=dict)
    #: Router id -> sorted ``(host_id, raw_rtt)`` observations.
    router_observations: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    #: The :attr:`MeasurementDataset.version` this state was built from;
    #: :meth:`BatchLocalizer.shared_state` rebuilds when the live dataset
    #: has ingested measurements past it.
    dataset_version: int = 0


class BatchLocalizer:
    """Leave-one-out localization of many targets with shared preparation.

    Wraps (or builds) an :class:`Octant` and reuses its constraint
    construction and solver end to end; only the per-target preparation is
    replaced by the cohort derivation (:meth:`prepare_many`).  Every entry
    point solves through one body, :meth:`solve_many`'s: a single request is
    a cohort of one.  Results are identical to the from-scratch
    :func:`~repro.core.reference.reference_localize` per target.

    :meth:`localize_all` runs serially in the calling thread.  The
    per-target entry points (:meth:`localize_one`, :meth:`solve_many`) are
    thread-safe: the serving executor drives one shared localizer from many
    threads, and locks guard the shared state and caches.

    ``prepared_cache_size`` (default 0: disabled) bounds an LRU of derived
    per-target :class:`PreparedLandmarks`, keyed by
    ``(dataset version, target, landmark pool)``.  Leave-one-out studies
    visit every target once and gain nothing from it; the online serving
    path hits the same targets repeatedly and skips re-derivation entirely
    on a warm hit.  The derivation is deterministic, so a cached object is
    the one a fresh call would return.
    """

    def __init__(
        self,
        source: Octant | MeasurementDataset,
        config: OctantConfig | None = None,
        parser: UndnsParser | None = None,
        prepared_cache_size: int = 0,
    ):
        if isinstance(source, Octant):
            self.octant = source
        else:
            self.octant = Octant(source, config, parser)
        self.dataset = self.octant.dataset
        self.config = self.octant.config
        self.parser = self.octant.parser
        self.prepared_cache_size = prepared_cache_size
        #: Optional fault-injection plan scoped to this localizer's work
        #: (chaos testing of batch studies without touching global state);
        #: draws are keyed by target, so the schedule is deterministic.
        self.fault_plan: FaultPlan | None = None
        self._shared: BatchSharedState | None = None
        self._shared_lock = threading.Lock()
        self._prepared_cache: BoundedLRU[PreparedLandmarks] = BoundedLRU(
            max(1, prepared_cache_size)
        )
        self._prepared_lock = threading.Lock()
        # Cohort-shared target-height propagation tables, keyed by
        # (dataset version, located pool): every target of a solve_many
        # cohort estimates heights against the same landmark geometry, so
        # the per-pair propagation terms are computed once per cohort.
        self._tables_cache: BoundedLRU[TargetHeightTables] = BoundedLRU(4)
        self._tables_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Shared state
    # ------------------------------------------------------------------ #
    def shared_state(self) -> BatchSharedState:
        """Build (once per dataset version) the full-cohort shared state.

        Thread-safe: the serving executor calls this concurrently from
        request workers.  After a measurement ingest the state is rebuilt
        against the new version.
        """
        version = self.dataset.version
        shared = self._shared
        if shared is not None and shared.dataset_version == version:
            return shared
        with self._shared_lock:
            shared = self._shared
            if shared is not None and shared.dataset_version == version:
                return shared
            dataset = self.dataset
            locations = {
                host_id: record.location
                for host_id, record in sorted(dataset.hosts.items())
                if record.location is not None
            }
            router_observations: dict[str, list[tuple[str, float]]] = {}
            if self.config.use_piecewise:
                router_observations = build_router_observation_index(dataset)
            self._shared = BatchSharedState(
                locations=locations,
                rtt_matrix=dataset.pairwise_min_rtt(),
                pair_degree=dataset.measured_pair_degree(),
                router_observations=router_observations,
                dataset_version=version,
            )
        return self._shared

    # ------------------------------------------------------------------ #
    # Incremental per-target derivation
    # ------------------------------------------------------------------ #
    def prepare_for_target(
        self, target_id: str, landmark_pool: Sequence[str] | None = None
    ) -> PreparedLandmarks:
        """One target's leave-one-out state: :meth:`prepare_many` of one.

        ``landmark_pool`` restricts the landmark population (the Figure 4
        sweep); by default every other host is a landmark, the paper's
        leave-one-out methodology.  Raises :class:`ValueError` when fewer
        than 3 landmarks remain and :class:`KeyError` for a landmark
        without ground truth.
        """
        outcome = self.prepare_many([target_id], landmark_pool)[target_id]
        if isinstance(outcome, _PrepareFailure):
            raise outcome.error
        return outcome

    def _height_tables(
        self, shared: BatchSharedState, pool: Sequence[str]
    ) -> TargetHeightTables:
        """Cohort-shared target-height propagation tables for a landmark pool.

        Built over the located pool hosts (every roster a cohort target uses
        is a subset) and cached per ``(dataset version, located ids)``: the
        tables only depend on landmark coordinates, so all of a cohort's
        pseudo-height and target-height estimates share one table build.
        """
        ids = tuple(lid for lid in pool if lid in shared.locations)
        key = (shared.dataset_version, ids)
        with self._tables_lock:
            cached = self._tables_cache.get(key)
        if cached is not None:
            return cached
        tables = TargetHeightTables(ids, shared.locations)
        with self._tables_lock:
            self._tables_cache.put(key, tables)
        return tables

    def adopt_caches(
        self,
        previous: "BatchLocalizer",
        deltas: tuple[IngestDelta, ...] | None,
    ) -> dict[str, int | bool]:
        """Carry warm cache entries from a retired localizer across an ingest.

        ``previous`` is the localizer that served the prior dataset version;
        ``deltas`` is ``live.deltas_since(previous.dataset.version)``.  A
        prepared entry for ``(target, pool)`` is a pure function of its
        roster's measurements (the target's own RTTs are read live at
        assembly time), so it survives the ingest iff no delta's changed
        scope lands inside the roster (:meth:`IngestDelta.affects_roster`)
        -- and, for implicit leave-one-out entries, no new host joined the
        cohort (which changes the roster itself).  Survivors are re-keyed to
        this localizer's dataset version, bit-identical by construction: a
        fresh derivation would read exactly the inputs the delta proves
        unchanged.  ``deltas is None`` (the bounded delta log no longer
        covers the retired version, or router metadata was replaced) means
        full invalidation: nothing is carried.

        Height tables carry on the same argument scoped to locations, and
        the shared DNS-position cache (a pure function of router records,
        which selective deltas prove unreplaced) transfers wholesale.

        Returns counters for ``cache_stats()["ingest"]`` accounting.
        """
        stats: dict[str, int | bool] = {
            "full": deltas is None,
            "prepared_carried": 0,
            "prepared_evicted": 0,
            "tables_carried": 0,
            "dns_carried": 0,
        }
        if deltas is None:
            with previous._prepared_lock:
                stats["prepared_evicted"] = len(previous._prepared_cache)
            return stats
        prev_version = previous.dataset.version
        new_version = self.dataset.version
        new_hosts_any = any(d.new_hosts for d in deltas)
        if self.prepared_cache_size > 0:
            with previous._prepared_lock:
                entries = previous._prepared_cache.items()
            carried = evicted = 0
            for key, prepared in entries:
                version, target, pool_key = key
                if (
                    version != prev_version
                    or (pool_key is None and new_hosts_any)
                    or any(
                        d.affects_roster(frozenset(prepared.landmark_ids))
                        for d in deltas
                    )
                ):
                    evicted += 1
                    continue
                with self._prepared_lock:
                    self._prepared_cache.put((new_version, target, pool_key), prepared)
                carried += 1
            stats["prepared_carried"] = carried
            stats["prepared_evicted"] = evicted
        with previous._tables_lock:
            table_entries = previous._tables_cache.items()
        for key, tables in table_entries:
            version, ids = key
            members = frozenset(ids)
            if version != prev_version or any(
                not d.location_hosts.isdisjoint(members) for d in deltas
            ):
                continue
            with self._tables_lock:
                self._tables_cache.put((new_version, ids), tables)
            stats["tables_carried"] = int(stats["tables_carried"]) + 1
        prev_shared = previous._shared
        if prev_shared is not None and prev_shared.dns_cache:
            shared = self.shared_state()
            shared.dns_cache.update(prev_shared.dns_cache)
            stats["dns_carried"] = len(prev_shared.dns_cache)
        return stats

    def prepare_many(
        self, target_ids: Sequence[str], landmark_pool: Sequence[str] | None = None
    ) -> dict[str, "PreparedLandmarks | _PrepareFailure"]:
        """Derive many targets' leave-one-out state through batched stages.

        Each mask-sensitive estimator runs once over the whole cohort --
        masked tensor reductions for the height fix-point
        (:func:`estimate_landmark_heights_many`), table-driven pseudo-target
        heights, pooled calibration gathers
        (:func:`build_calibration_sets_many`) and cohort-pooled router disk
        realization (:func:`localize_routers_many`) -- instead of once per
        target.  Every batched stage is bit-identical to its scalar
        reference, so each returned :class:`PreparedLandmarks` equals what
        :func:`~repro.core.reference.reference_prepare` computes for the
        same landmark set; stage wall times and prepared-cache lookups are
        recorded on the pipeline's :class:`PipelineStats`.

        A target that cannot be prepared (:class:`ValueError` /
        :class:`KeyError`) is returned as a :class:`_PrepareFailure`
        carrying that exception plus the target's share of the pooled stage
        time it consumed before failing.
        """
        for target in dict.fromkeys(target_ids):
            checkpoint("prepare", target)
        shared = self.shared_state()
        dataset = self.dataset
        stats = self.octant.pipeline.stats
        pool = sorted(landmark_pool) if landmark_pool is not None else dataset.host_ids
        pool_key = tuple(pool) if landmark_pool is not None else None
        use_cache = self.prepared_cache_size > 0

        results: dict[str, PreparedLandmarks | _PrepareFailure] = {}
        pending: list[str] = []
        for target in dict.fromkeys(target_ids):
            if use_cache:
                with self._prepared_lock:
                    cached = self._prepared_cache.get(
                        (dataset.version, target, pool_key)
                    )
                if cached is not None:
                    results[target] = cached
                    continue
            pending.append(target)
        if use_cache:
            stats.add(prepared_hits=len(results), prepared_misses=len(pending))
        if not pending:
            return results

        # Per-target share of pooled stage time, accumulated as stages run;
        # a failing target hands its shares to the failed estimate.
        shares: dict[str, dict[str, float]] = {t: {} for t in pending}

        def credit(targets: Sequence[str], stage: str, per_target: float) -> None:
            for t in targets:
                bucket = shares[t]
                bucket[stage] = bucket.get(stage, 0.0) + per_target

        # -- Roster resolution (pure per-target bookkeeping) ------------- #
        located = shared.locations
        active: list[tuple[str, tuple[str, ...], dict[str, GeoPoint], int]] = []
        for target in pending:
            key = tuple(lid for lid in pool if lid != target)
            if len(key) < 3:
                results[target] = _PrepareFailure(
                    ValueError("localization needs at least 3 landmarks")
                )
                continue
            try:
                locations = {lid: located[lid] for lid in key}
            except KeyError as exc:
                results[target] = _PrepareFailure(
                    KeyError(f"no ground-truth location recorded for {exc.args[0]!r}")
                )
                continue
            if landmark_pool is None:
                pair_count = len(shared.rtt_matrix) - shared.pair_degree.get(target, 0)
            else:
                members = set(key)
                pair_count = sum(
                    1 for (a, b) in shared.rtt_matrix if a in members and b in members
                )
            active.append((target, key, locations, pair_count))

        # -- Heights: one masked tensor fix-point for the whole cohort --- #
        failed: set[str] = set()
        heights_map: dict[str, HeightModel | None] = {
            entry[0]: None for entry in active
        }
        height_cohort = [
            entry
            for entry in active
            if self.config.use_heights and entry[3] >= len(entry[1])
        ]
        if height_cohort:
            started = time.perf_counter()
            outcomes = estimate_landmark_heights_many(
                [entry[2] for entry in height_cohort],
                shared.rtt_matrix,
                distance_km=dataset.cached_distance_km,
            )
            elapsed = time.perf_counter() - started
            stats.add(heights_seconds=elapsed)
            credit([entry[0] for entry in height_cohort], "heights_seconds",
                   elapsed / len(height_cohort))
            for entry, outcome in zip(height_cohort, outcomes):
                if isinstance(outcome, ValueError):
                    failed.add(entry[0])
                    results[entry[0]] = _PrepareFailure(outcome, shares[entry[0]])
                else:
                    heights_map[entry[0]] = outcome

        # -- Calibration: pseudo-target heights + pooled convex hulls ---- #
        survivors = [entry for entry in active if entry[0] not in failed]
        calibrations_map: dict[str, CalibrationSet] = {}
        if self.config.use_calibration and survivors:
            tables = (
                self._height_tables(shared, pool)
                if any(heights_map[entry[0]] is not None for entry in survivors)
                else None
            )
            started = time.perf_counter()
            pseudo_map: dict[str, dict[str, float]] = {}
            for target, key, locations, _ in survivors:
                heights = heights_map[target]
                if heights is None:
                    pseudo_map[target] = {}
                else:
                    pseudo_map[target] = pseudo_target_heights(
                        key, locations, heights, dataset.cached_min_rtt_ms, tables
                    )
            pseudo_elapsed = time.perf_counter() - started
            stats.add(heights_seconds=pseudo_elapsed)
            credit([entry[0] for entry in survivors], "heights_seconds",
                   pseudo_elapsed / len(survivors))

            started = time.perf_counter()
            outcomes = build_calibration_sets_many(
                [entry[1] for entry in survivors],
                located,
                dataset.cached_min_rtt_ms,
                heights_list=[heights_map[entry[0]] for entry in survivors],
                pseudo_heights_list=[pseudo_map[entry[0]] for entry in survivors],
                distance_km=dataset.cached_distance_km,
                cutoff_percentile=self.config.calibration_cutoff_percentile,
                sentinel_ms=self.config.calibration_sentinel_ms,
                slack=self.config.calibration_slack,
            )
            elapsed = time.perf_counter() - started
            stats.add(calibration_seconds=elapsed)
            credit([entry[0] for entry in survivors], "calibration_seconds",
                   elapsed / len(survivors))
            for entry, outcome in zip(survivors, outcomes):
                if isinstance(outcome, ValueError):
                    failed.add(entry[0])
                    results[entry[0]] = _PrepareFailure(outcome, shares[entry[0]])
                else:
                    calibrations_map[entry[0]] = outcome
            survivors = [entry for entry in survivors if entry[0] not in failed]

        # -- Piecewise: cohort-pooled router disk realization ------------ #
        router_maps: dict[str, dict[str, RouterPosition]] = {}
        if self.config.use_piecewise and survivors:
            started = time.perf_counter()
            localizers = [
                RouterLocalizer(
                    dataset,
                    self.config,
                    calibrations_map.get(entry[0], CalibrationSet()),
                    heights_map[entry[0]],
                    self.parser,
                    dns_cache=shared.dns_cache,
                    router_observations=shared.router_observations,
                    circle_cache=self.octant.pipeline.circle_cache,
                )
                for entry in survivors
            ]
            rosters = [entry[1] for entry in survivors]
            try:
                maps = localize_routers_many(localizers, rosters)
            except (ValueError, KeyError):
                # Per-target failure capture: rerun each roster as a cohort
                # of one so only the targets that actually fail are recorded
                # as failures.  The pooled pass only warmed content-addressed
                # caches, so the rerun is unaffected by the aborted attempt.
                maps = []
                for localizer, roster, entry in zip(localizers, rosters, survivors):
                    try:
                        maps.extend(localize_routers_many([localizer], [roster]))
                    except (ValueError, KeyError) as exc:
                        failed.add(entry[0])
                        results[entry[0]] = _PrepareFailure(exc, shares[entry[0]])
                        maps.append(None)
            elapsed = time.perf_counter() - started
            stats.add(piecewise_seconds=elapsed)
            credit([entry[0] for entry in survivors], "piecewise_seconds",
                   elapsed / len(survivors))
            for entry, positions in zip(survivors, maps):
                if positions is not None:
                    router_maps[entry[0]] = positions
            survivors = [entry for entry in survivors if entry[0] not in failed]

        # -- Assembly and cache insertion -------------------------------- #
        for target, key, locations, _ in survivors:
            calibrations = calibrations_map.get(target)
            if calibrations is None:
                calibrations = CalibrationSet()
            prepared = PreparedLandmarks(
                landmark_ids=key,
                locations=locations,
                heights=heights_map[target],
                calibrations=calibrations,
                router_positions=router_maps.get(target, {}),
            )
            results[target] = prepared
            if use_cache:
                with self._prepared_lock:
                    self._prepared_cache.put(
                        (dataset.version, target, pool_key), prepared
                    )
        return results

    # ------------------------------------------------------------------ #
    # Localization
    # ------------------------------------------------------------------ #
    def _fault_scope(self):
        """Resilience scope activating :attr:`fault_plan`, if one is installed."""
        if self.fault_plan is None:
            return nullcontext()
        return resilience_scope(plan=self.fault_plan)

    def localize_one(
        self,
        target_id: str,
        landmark_pool: Sequence[str] | None = None,
    ) -> LocationEstimate:
        """Localize one target: a cohort of one through :meth:`solve_many`.

        The estimate, failures included, is the one ``solve_many([target_id])``
        returns.
        """
        with self._fault_scope():
            # The inner body, not the public method: a tracer that wraps
            # both entry points must record one span per request.
            return self._solve_many_inner([target_id], landmark_pool)[target_id]

    def solve_many(
        self,
        target_ids: Sequence[str],
        landmark_pool: Sequence[str] | None = None,
        *,
        _prepared: Mapping[str, "PreparedLandmarks | _PrepareFailure"] | None = None,
    ) -> dict[str, LocationEstimate]:
        """Localize a cohort of targets through whole-cohort batched stages.

        The cohort rides the batched pipeline end to end: one
        :meth:`prepare_many` pass derives every target's leave-one-out state
        through the cohort-axis estimators (a preparation failure becomes
        that target's failed estimate), constraint assembly runs per target
        with the cohort-shared target-height tables, planarization is pooled
        through :meth:`ConstraintPipeline.planarize_many`, and the whole
        cohort's weighted-region systems run through
        :meth:`ConstraintPipeline.solve_many` in a single kernel invocation:
        one lockstep run whose batched clip passes span every target.  Every
        stage checkpoint is keyed by target id, so seeded fault schedules
        draw per target whatever the cohort.  The estimates equal
        :meth:`localize_one` per target.
        """
        with self._fault_scope():
            return self._solve_many_inner(target_ids, landmark_pool, _prepared=_prepared)

    def _solve_many_inner(
        self,
        target_ids: Sequence[str],
        landmark_pool: Sequence[str] | None = None,
        *,
        _prepared: Mapping[str, "PreparedLandmarks | _PrepareFailure"] | None = None,
    ) -> dict[str, LocationEstimate]:
        targets = list(target_ids)
        pool = tuple(landmark_pool) if landmark_pool is not None else None
        estimates: dict[str, LocationEstimate] = {}
        # Duplicates (a serving burst for one hot target) presolve once.
        unique = list(dict.fromkeys(targets))
        if _prepared is not None:
            prepared_map = {t: _prepared[t] for t in unique}
        else:
            prepared_map = self.prepare_many(unique, pool)
        tables = None
        if self.config.use_heights:
            shared = self.shared_state()
            tables = self._height_tables(
                shared,
                sorted(pool) if pool is not None else self.dataset.host_ids,
            )
        presolved = []
        for target in unique:
            outcome = prepared_map[target]
            if isinstance(outcome, _PrepareFailure):
                # Only the preparation step is failure-captured: an
                # exception from presolve (assembly / planarization) is an
                # internal invariant violation and must surface, not become
                # a quiet failed estimate.
                estimates[target] = failed_estimate(
                    target, "octant", outcome.error, stats=outcome.stats or None
                )
                continue
            presolved.append(
                self.octant.presolve(
                    target,
                    prepared=outcome,
                    height_tables=tables,
                    planarize=False,
                )
            )
        if presolved:
            planarize_started = time.perf_counter()
            planar_systems = self.octant.pipeline.planarize_many(
                [(p.constraints, p.projection) for p in presolved],
                keys=[p.target_id for p in presolved],
            )
            planarize_share = (time.perf_counter() - planarize_started) / len(
                presolved
            )
            for p, planar in zip(presolved, planar_systems):
                p.planar = planar
                p.presolve_seconds += planarize_share
            solve_started = time.perf_counter()
            solved = self.octant.pipeline.solve_many(
                [(p.planar, p.projection) for p in presolved],
                keys=[p.target_id for p in presolved],
            )
            solve_share = (time.perf_counter() - solve_started) / len(presolved)
            self.octant.pipeline.stats.add(runs=len(presolved))
            for p, (region, diagnostics) in zip(presolved, solved):
                estimates[p.target_id] = self.octant.postsolve(
                    p, region, diagnostics, solve_share=solve_share
                )
        return {t: estimates[t] for t in targets}

    def localize_all(
        self,
        target_ids: Sequence[str] | None = None,
        landmark_pool: Sequence[str] | None = None,
    ) -> dict[str, LocationEstimate]:
        """Leave-one-out localization of every host (or the given targets).

        One whole-cohort :meth:`prepare_many` pass derives every target's
        leave-one-out state (the batched stage estimators pool across the
        cohort at once); the cohort is then cut into chunks of
        ``SolverConfig.fuse_width`` targets, each solved by one
        :meth:`solve_many` call over the prepared state.  The merge is
        ordered by the input target list, and the estimates are identical to :meth:`localize_one` per target.
        """
        targets = list(target_ids) if target_ids is not None else self.dataset.host_ids
        pool = tuple(landmark_pool) if landmark_pool is not None else None
        unique = list(dict.fromkeys(targets))
        width = max(1, self.config.solver.fuse_width)
        merged: dict[str, LocationEstimate] = {}
        with self._fault_scope():
            prepared = self.prepare_many(unique, pool)
            for start in range(0, len(unique), width):
                chunk = unique[start : start + width]
                merged.update(self.solve_many(chunk, pool, _prepared=prepared))
        return {t: merged[t] for t in targets}


def localize_many(
    localizer: object,
    target_ids: Sequence[str],
    method: str = "unknown",
) -> dict[str, LocationEstimate]:
    """Localize many targets with any method, capturing per-target failures.

    Octant localizers are routed through their :class:`BatchLocalizer`
    (shared whole-cohort preparation); baseline methods fall back to a plain
    loop.  Either way a target that cannot be localized yields a failed
    estimate instead of aborting the study.
    """
    if isinstance(localizer, Octant):
        return localizer.batch_localizer().localize_all(target_ids)
    results: dict[str, LocationEstimate] = {}
    for target in target_ids:
        try:
            results[target] = localizer.localize(target)  # type: ignore[attr-defined]
        except (ValueError, KeyError) as exc:
            results[target] = failed_estimate(target, method, exc)
    return results
