"""Batch leave-one-out localization: shared state once, per-target views.

The paper's entire evaluation is leave-one-out: every host becomes the target
while all others serve as landmarks.  Driving that study through
:meth:`Octant.localize` re-runs ``prepare()`` -- O(n^2) height estimation,
per-landmark calibration, router localization -- for every target, because
each target sees a *different* landmark set.  A full accuracy study is then
effectively O(n^3) and caches one full :class:`PreparedLandmarks` per target.

:class:`BatchLocalizer` restructures the computation around what actually
changes between targets:

1. **Full-cohort shared state, computed once.**  The pairwise min-RTT and
   great-circle distance matrices (cached on the
   :class:`~repro.network.dataset.MeasurementDataset` itself), the per-host
   measured-pair degrees, the ground-truth location map, the DNS-derived
   router positions (which depend only on DNS records, never on the landmark
   set) and the router observation index.

2. **Incremental per-target derivation.**  Each target's leave-one-out
   :class:`PreparedLandmarks` is derived by *masking* the held-out host's
   samples out of the shared state and re-running only the mask-sensitive
   estimators (the height fix-point, pseudo-target heights, convex-hull
   calibration, latency-only router positions), feeding them the precomputed
   matrices.  The estimators are the same functions the sequential path
   calls, applied to bit-identical inputs, so every derived estimate is
   **identical** to ``Octant.localize(target)`` -- a property pinned by
   ``tests/core/test_batch.py``.

3. **Parallel fan-out.**  Independent targets are dispatched across a
   ``concurrent.futures`` executor (threads, or forked processes where
   available) and merged back in input order, so results are deterministic
   regardless of completion order.

Per-target failures (a target with fewer than 3 reachable landmarks, a host
without ground truth) are recorded as failed estimates -- ``point=None`` with
the reason under ``details["error"]`` -- instead of aborting the whole study.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .._lru import BoundedLRU
from ..geometry import CircleCache, GeoPoint
from ..network.dataset import IngestDelta, MeasurementDataset
from ..network.dns import UndnsParser
from ..resilience.deadline import checkpoint, resilience_scope
from ..resilience.errors import classify_error
from ..resilience.faults import FaultPlan
from .calibration import (
    CalibrationSet,
    build_calibration_set,
    build_calibration_sets_many,
)
from .config import OctantConfig
from .estimate import LocationEstimate
from .heights import (
    HeightModel,
    TargetHeightTables,
    estimate_landmark_heights,
    estimate_landmark_heights_many,
)
from .octant import (
    Octant,
    PreparedLandmarks,
    pseudo_target_heights,
    pseudo_target_heights_tabled,
)
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
    #: Geodesic circle boundaries keyed ``(lat, lon, radius_km, segments)``:
    #: projection-independent, so one cohort-wide cache serves every target
    #: (each re-projects the cached arrays in one vectorized operation).
    #: Shared with the wrapped Octant so both engines warm the same entries;
    #: process-pool workers inherit whatever was cached before the fork.
    #: Because the planar polygons it hands out are identity-stable, the
    #: kernel's cross-solve constraint-geometry tables
    #: (``repro.geometry.kernel``) stay warm across every solve that shares
    #: this state -- including across snapshot rebuilds, whose unchanged
    #: constraints re-realize the very same polygon objects.
    circle_cache: CircleCache = field(default_factory=CircleCache)
    #: The :attr:`MeasurementDataset.version` this state was built from;
    #: :meth:`BatchLocalizer.shared_state` rebuilds when the live dataset
    #: has ingested measurements past it (the circle cache is carried over:
    #: its entries are content-addressed and never go stale).
    dataset_version: int = 0


# --------------------------------------------------------------------------- #
# Process-pool plumbing: the localizer is shipped to each worker once (via
# the initializer) instead of being pickled with every submitted task.
# --------------------------------------------------------------------------- #
_WORKER_LOCALIZER: "BatchLocalizer | None" = None


def _init_worker(localizer: "BatchLocalizer") -> None:
    global _WORKER_LOCALIZER
    _WORKER_LOCALIZER = localizer


def _worker_localize(target_id: str, landmark_pool: tuple[str, ...] | None) -> LocationEstimate:
    assert _WORKER_LOCALIZER is not None
    return _WORKER_LOCALIZER.localize_one(target_id, landmark_pool)


def _worker_solve_chunk(
    target_ids: tuple[str, ...], landmark_pool: tuple[str, ...] | None
) -> dict[str, LocationEstimate]:
    assert _WORKER_LOCALIZER is not None
    return _WORKER_LOCALIZER.solve_many(target_ids, landmark_pool)


class BatchLocalizer:
    """Leave-one-out localization of many targets with shared preparation.

    Wraps (or builds) an :class:`Octant` and reuses its constraint
    construction and solver end to end; only the per-target preparation is
    replaced by the incremental derivation.  Results are identical to calling
    ``octant.localize(target)`` per target.

    ``max_workers`` controls the fan-out: ``None`` or ``1`` runs inline (no
    executor), ``0`` or ``"auto"`` uses the CPU count, any other integer is
    used as given.  ``executor_kind`` selects ``"thread"`` or ``"process"``
    workers; ``"auto"`` picks processes when fork is available (the work is
    CPU-bound pure Python) and threads otherwise.

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
        max_workers: int | str | None = None,
        executor_kind: str = "auto",
        prepared_cache_size: int = 0,
    ):
        if isinstance(source, Octant):
            self.octant = source
        else:
            self.octant = Octant(source, config, parser)
        self.dataset = self.octant.dataset
        self.config = self.octant.config
        self.parser = self.octant.parser
        self.max_workers = max_workers
        self.executor_kind = executor_kind
        self.prepared_cache_size = prepared_cache_size
        #: Optional fault-injection plan scoped to this localizer's work
        #: (chaos testing of batch studies without touching global state).
        #: Picklable, so it ships to process-pool workers with the rest of
        #: the localizer; each worker re-rolls the same deterministic
        #: schedule from the plan's seed.
        self.fault_plan: FaultPlan | None = None
        self._shared: BatchSharedState | None = None
        self._shared_lock = threading.Lock()
        self._prepared_cache: BoundedLRU[PreparedLandmarks] = BoundedLRU(
            max(1, prepared_cache_size)
        )
        self._prepared_lock = threading.Lock()
        self.prepared_hits = 0
        self.prepared_misses = 0
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
        against the new version; the circle cache is carried across rebuilds
        because its entries are content-addressed (a circle at given
        coordinates is the same circle whatever the measurements say).
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
                circle_cache=self.octant.circle_cache,
                dataset_version=version,
            )
        return self._shared

    # ------------------------------------------------------------------ #
    # Incremental per-target derivation
    # ------------------------------------------------------------------ #
    def prepare_for_target(
        self, target_id: str, landmark_pool: Sequence[str] | None = None
    ) -> PreparedLandmarks:
        """Derive the target's leave-one-out state by masking shared state.

        ``landmark_pool`` restricts the landmark population (the Figure 4
        sweep); by default every other host is a landmark, the paper's
        leave-one-out methodology.  Raises :class:`ValueError` when fewer
        than 3 landmarks remain.  With ``prepared_cache_size`` enabled,
        repeated requests for the same target at the same dataset version
        return the cached derivation (bit-identical: the derivation is a
        pure function of the masked shared state).
        """
        checkpoint("prepare", target_id)
        if self.prepared_cache_size <= 0:
            return self._derive_prepared(target_id, landmark_pool)
        key = (
            self.dataset.version,
            target_id,
            # Sorted, like the derivation itself: permuted pools are the
            # same landmark set and must share one cache entry.
            tuple(sorted(landmark_pool)) if landmark_pool is not None else None,
        )
        with self._prepared_lock:
            cached = self._prepared_cache.get(key)
            if cached is not None:
                self.prepared_hits += 1
                return cached
            self.prepared_misses += 1
        prepared = self._derive_prepared(target_id, landmark_pool)
        with self._prepared_lock:
            self._prepared_cache.put(key, prepared)
        return prepared

    def _derive_prepared(
        self, target_id: str, landmark_pool: Sequence[str] | None = None
    ) -> PreparedLandmarks:
        shared = self.shared_state()
        dataset = self.dataset
        pool = sorted(landmark_pool) if landmark_pool is not None else dataset.host_ids
        key = tuple(lid for lid in pool if lid != target_id)
        if len(key) < 3:
            raise ValueError("localization needs at least 3 landmarks")

        located = shared.locations
        try:
            locations = {lid: located[lid] for lid in key}
        except KeyError as exc:
            raise KeyError(f"no ground-truth location recorded for {exc.args[0]!r}")

        if landmark_pool is None:
            # Leave-one-out over the full cohort: pairs among the landmarks
            # are the total measured pairs minus the held-out host's degree.
            pair_count = len(shared.rtt_matrix) - shared.pair_degree.get(target_id, 0)
        else:
            members = set(key)
            pair_count = sum(
                1 for (a, b) in shared.rtt_matrix if a in members and b in members
            )

        heights: HeightModel | None = None
        if self.config.use_heights and pair_count >= len(key):
            # The full matrix plus the masked location map is the exclusion
            # mask: pairs touching the held-out host are filtered inside the
            # estimator (see heights._pairwise_excess_table).
            heights = estimate_landmark_heights(
                locations,
                shared.rtt_matrix,
                distance_km=dataset.cached_distance_km,
            )

        calibrations = CalibrationSet()
        if self.config.use_calibration:
            pseudo: dict[str, float] = {}
            if heights is not None:
                pseudo = pseudo_target_heights(
                    key, locations, heights, dataset.cached_min_rtt_ms
                )
            calibrations = build_calibration_set(
                key,
                locations,
                dataset.cached_min_rtt_ms,
                heights=heights,
                pseudo_heights=pseudo,
                distance_km=dataset.cached_distance_km,
                cutoff_percentile=self.config.calibration_cutoff_percentile,
                sentinel_ms=self.config.calibration_sentinel_ms,
                slack=self.config.calibration_slack,
            )

        router_positions: dict[str, RouterPosition] = {}
        if self.config.use_piecewise:
            localizer = RouterLocalizer(
                dataset,
                self.config,
                calibrations,
                heights,
                self.parser,
                dns_cache=shared.dns_cache,
                router_observations=shared.router_observations,
                circle_cache=shared.circle_cache,
            )
            router_positions = localizer.localize_routers(list(key))

        return PreparedLandmarks(
            landmark_ids=key,
            locations=locations,
            heights=heights,
            calibrations=calibrations,
            router_positions=router_positions,
        )

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

        The cohort-axis counterpart of :meth:`prepare_for_target`: each
        mask-sensitive estimator runs once over the whole cohort -- masked
        tensor reductions for the height fix-point
        (:func:`estimate_landmark_heights_many`), table-driven pseudo-target
        heights, pooled calibration gathers
        (:func:`build_calibration_sets_many`) and cohort-pooled router disk
        realization (:func:`localize_routers_many`) -- instead of once per
        target.  Every batched stage is bit-identical to its scalar
        reference, so each returned :class:`PreparedLandmarks` equals what
        :meth:`prepare_for_target` would derive; stage wall times are
        recorded on the pipeline's :class:`PipelineStats`.

        A target the scalar path would fail with :class:`ValueError` /
        :class:`KeyError` is returned as a :class:`_PrepareFailure` carrying
        that exception plus the target's share of the pooled stage time it
        consumed before failing.
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
                cache_key = (dataset.version, target, pool_key)
                with self._prepared_lock:
                    cached = self._prepared_cache.get(cache_key)
                    if cached is not None:
                        self.prepared_hits += 1
                    else:
                        self.prepared_misses += 1
                if cached is not None:
                    results[target] = cached
                    continue
            pending.append(target)
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
            stats.heights_seconds += elapsed
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
                    pseudo_map[target] = pseudo_target_heights_tabled(
                        key, locations, heights, dataset.cached_min_rtt_ms, tables
                    )
            pseudo_elapsed = time.perf_counter() - started
            stats.heights_seconds += pseudo_elapsed
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
            stats.calibration_seconds += elapsed
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
                    circle_cache=shared.circle_cache,
                )
                for entry in survivors
            ]
            rosters = [list(entry[1]) for entry in survivors]
            try:
                maps = localize_routers_many(localizers, rosters)
            except (ValueError, KeyError):
                # Mirror the scalar path's per-target failure capture: rerun
                # each roster through the scalar method so only the targets
                # that actually fail are recorded as failures.  The pooled
                # pass only warmed content-addressed caches, so the rerun is
                # unaffected by the aborted attempt.
                maps = []
                for localizer, roster, entry in zip(localizers, rosters, survivors):
                    try:
                        maps.append(localizer.localize_routers(roster))
                    except (ValueError, KeyError) as exc:
                        failed.add(entry[0])
                        results[entry[0]] = _PrepareFailure(exc, shares[entry[0]])
                        maps.append(None)
            elapsed = time.perf_counter() - started
            stats.piecewise_seconds += elapsed
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
        engine: str | None = None,
    ) -> LocationEstimate:
        """Localize one target via the incremental derivation, capturing failure.

        Only the preparation step is failure-captured (too few reachable
        landmarks, missing ground truth); an exception from the localization
        itself would be an internal invariant violation and must surface, not
        be recorded as an ordinary per-target failure.  ``engine`` overrides
        the configured solver engine for this call (degradation ladder).
        """
        with self._fault_scope():
            try:
                prepared = self.prepare_for_target(target_id, landmark_pool)
            except (ValueError, KeyError) as exc:
                return failed_estimate(target_id, "octant", exc)
            return self.octant.localize(target_id, prepared=prepared, engine=engine)

    def solve_many(
        self,
        target_ids: Sequence[str],
        landmark_pool: Sequence[str] | None = None,
        *,
        engine: str | None = None,
        _prepared: Mapping[str, "PreparedLandmarks | _PrepareFailure"] | None = None,
    ) -> dict[str, LocationEstimate]:
        """Localize a cohort of targets through whole-cohort batched stages.

        The cohort rides the batched pipeline end to end: one
        :meth:`prepare_many` pass derives every target's leave-one-out state
        through the cohort-axis estimators (failures captured per target
        exactly like :meth:`localize_one`), constraint assembly runs per
        target with the cohort-shared target-height tables, planarization is
        pooled through :meth:`ConstraintPipeline.planarize_many`, and the
        whole cohort's weighted-region systems run through
        :meth:`ConstraintPipeline.solve_many` in a single kernel invocation.
        Under ``engine="fused"`` that is one lockstep run whose batched clip
        passes span every target; other engines fall back to per-system
        solves -- either way the estimates are identical to calling
        :meth:`localize_one` per target.
        """
        with self._fault_scope():
            return self._solve_many_inner(
                target_ids, landmark_pool, engine=engine, _prepared=_prepared
            )

    def _solve_many_inner(
        self,
        target_ids: Sequence[str],
        landmark_pool: Sequence[str] | None = None,
        *,
        engine: str | None = None,
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
                # Only the preparation step is failure-captured, exactly
                # like localize_one: an exception from presolve (assembly /
                # planarization) is an internal invariant violation and
                # must surface, not become a quiet failed estimate.
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
                [(p.constraints, p.projection) for p in presolved]
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
                engine=engine,
                key=tuple(p.target_id for p in presolved),
            )
            solve_share = (time.perf_counter() - solve_started) / len(presolved)
            self.octant.pipeline.count_runs(len(presolved))
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

        Fan-out across workers when configured; the merge is ordered by the
        input target list, so results are deterministic regardless of worker
        scheduling.  Under ``engine="fused"`` the cohort is cut into chunks
        of ``SolverConfig.fuse_width`` targets, each chunk solved in one
        fused kernel run (:meth:`solve_many`); the chunks -- not individual
        targets -- fan out across the executor.
        """
        targets = list(target_ids) if target_ids is not None else self.dataset.host_ids
        pool = tuple(landmark_pool) if landmark_pool is not None else None
        workers = self._resolve_workers(len(targets))
        solver_config = self.config.solver
        fused = (
            solver_config.engine == "fused" and not solver_config.exact_complements
        )
        if fused:
            width = max(1, solver_config.fuse_width)
            chunks = [
                tuple(targets[i : i + width]) for i in range(0, len(targets), width)
            ]
            if workers <= 1 or len(chunks) == 1:
                # One whole-cohort preparation pass: the batched stage
                # estimators pool across every target at once, and the
                # per-chunk kernel runs below reuse the prepared state
                # instead of re-deriving it fuse_width targets at a time.
                unique_all = list(dict.fromkeys(targets))
                prepared_all = self.prepare_many(unique_all, pool)
                merged: dict[str, LocationEstimate] = {}
                for chunk in chunks:
                    merged.update(self.solve_many(chunk, pool, _prepared=prepared_all))
                return {t: merged[t] for t in targets}
            self.shared_state()
            executor = self._make_executor(workers)
            try:
                if isinstance(executor, ThreadPoolExecutor):
                    # Threads share memory: one whole-cohort preparation
                    # pass feeds every chunk (the same pooling the serial
                    # path does), and the chunk kernels run over the shared
                    # warm caches.  Process pools re-derive per chunk
                    # instead of shipping the prepared state through
                    # pickling.
                    unique_all = list(dict.fromkeys(targets))
                    prepared_all = self.prepare_many(unique_all, pool)
                    futures = [
                        executor.submit(
                            self.solve_many, chunk, pool, _prepared=prepared_all
                        )
                        for chunk in chunks
                    ]
                else:
                    futures = [
                        executor.submit(self._dispatch_chunk, chunk, pool)
                        for chunk in chunks
                    ]
                merged = {}
                for future in futures:
                    merged.update(future.result())
            finally:
                executor.shutdown()
            return {t: merged[t] for t in targets}

        if workers <= 1:
            return {t: self.localize_one(t, pool) for t in targets}

        # Build the shared state before dispatch so every worker inherits it
        # instead of redundantly recomputing the matrices.
        self.shared_state()
        executor = self._make_executor(workers)
        try:
            futures = [
                executor.submit(self._dispatch, target, pool) for target in targets
            ]
            results = [future.result() for future in futures]
        finally:
            executor.shutdown()
        return dict(zip(targets, results))

    # ------------------------------------------------------------------ #
    # Executor plumbing
    # ------------------------------------------------------------------ #
    def _resolve_workers(self, task_count: int) -> int:
        workers = self.max_workers
        if workers in (None, 1):
            return 1
        if workers in (0, "auto"):
            workers = os.cpu_count() or 1
        return max(1, min(int(workers), task_count))

    def _make_executor(self, workers: int):
        kind = self.executor_kind
        if kind == "auto":
            # The NumPy clip kernels hold the GIL through the Python-level
            # pass dispatch (fused chunks on 2 threads measured 1.04x), so
            # the fork-based pool is the default where available.
            kind = "process" if hasattr(os, "fork") else "thread"
        if kind == "process":
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                context = multiprocessing.get_context(
                    "fork" if hasattr(os, "fork") else None
                )
                self._dispatch = _worker_localize_proxy
                self._dispatch_chunk = _worker_solve_chunk_proxy
                return ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=context,
                    initializer=_init_worker,
                    initargs=(self,),
                )
            except (ImportError, OSError, ValueError):
                pass  # fall through to threads
        self._dispatch = self.localize_one
        self._dispatch_chunk = self.solve_many
        return ThreadPoolExecutor(max_workers=workers)

    # Default dispatch (inline/threads); replaced per-executor in _make_executor.
    def _dispatch(self, target_id, landmark_pool):  # pragma: no cover - rebound
        return self.localize_one(target_id, landmark_pool)

    def _dispatch_chunk(self, target_ids, landmark_pool):  # pragma: no cover - rebound
        return self.solve_many(target_ids, landmark_pool)

    def __getstate__(self):
        state = self.__dict__.copy()
        # Bound-method/dispatch state is executor-local, never shipped, and
        # locks are not picklable (workers recreate their own).
        state.pop("_dispatch", None)
        state.pop("_dispatch_chunk", None)
        state.pop("_shared_lock", None)
        state.pop("_prepared_lock", None)
        state.pop("_tables_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._shared_lock = threading.Lock()
        self._prepared_lock = threading.Lock()
        self._tables_lock = threading.Lock()


def _worker_localize_proxy(target_id: str, landmark_pool: tuple[str, ...] | None):
    return _worker_localize(target_id, landmark_pool)


def _worker_solve_chunk_proxy(
    target_ids: tuple[str, ...], landmark_pool: tuple[str, ...] | None
):
    return _worker_solve_chunk(target_ids, landmark_pool)


def localize_many(
    localizer: object,
    target_ids: Sequence[str],
    method: str = "unknown",
    max_workers: int | str | None = None,
) -> dict[str, LocationEstimate]:
    """Localize many targets with any method, capturing per-target failures.

    Octant localizers are routed through :class:`BatchLocalizer` (shared
    preparation, optional ``max_workers`` fan-out); baseline methods fall
    back to a plain loop.  Either way a target that cannot be localized
    yields a failed estimate instead of aborting the study.
    """
    if isinstance(localizer, Octant):
        return BatchLocalizer(localizer, max_workers=max_workers).localize_all(
            target_ids
        )
    results: dict[str, LocationEstimate] = {}
    for target in target_ids:
        try:
            results[target] = localizer.localize(target)  # type: ignore[attr-defined]
        except (ValueError, KeyError) as exc:
            results[target] = failed_estimate(target, method, exc)
    return results
