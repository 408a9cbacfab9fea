"""Piecewise localization of routers on the path -- Section 2.3 of the paper.

Policy routing makes end-to-end paths longer than great circles, which loosens
the relation between end-to-end latency and distance.  Octant compensates by
localizing the *routers* on the landmark-to-target paths and using them as
secondary landmarks: the final path segment from a well-localized router near
the target to the target itself is short, largely free of indirect routing,
and therefore yields a much tighter constraint than the end-to-end
measurement.

Router positions come from two sources, mirroring the paper:

* reverse-DNS hints parsed with the undns-style rules
  (:class:`~repro.network.dns.UndnsParser`), and
* latency measurements from the landmarks to the router (extracted from
  traceroute hop timings), solved with the same calibrated disk constraints
  used for ordinary targets, but with a deliberately lightweight greedy
  intersection because hundreds of routers may need localizing.

The result of router localization is a :class:`RouterPosition` -- a centre, an
uncertainty radius and a confidence -- which
:func:`secondary_constraints_for_target` turns into additional positive
constraints for the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..geometry import (
    CircleCache,
    GeoPoint,
    Polygon,
    clip_convex,
    disk_polygon,
    projection_for_points,
    rtt_ms_to_max_distance_km,
)
from ..network.dataset import MeasurementDataset
from ..network.dns import UndnsParser
from .calibration import CalibrationSet
from .config import OctantConfig
from .constraints import Constraint, DistanceConstraint, latency_weight
from .heights import HeightModel

__all__ = [
    "RouterPosition",
    "RouterLocalizer",
    "localize_routers_many",
    "secondary_constraints_for_target",
    "build_router_observation_index",
]


def build_router_observation_index(
    dataset: MeasurementDataset,
) -> dict[str, list[tuple[str, float]]]:
    """Group landmark-to-router latency observations by router, built once.

    Maps each router id to its ``(host_id, raw_min_rtt_ms)`` observations
    sorted by host id.  The batch engine computes this index once for the
    full cohort and shares it across every leave-one-out derivation; masking
    a host is then a membership filter instead of an O(landmarks x routers)
    re-scan of ``dataset.router_pings``.
    """
    index: dict[str, list[tuple[str, float]]] = {}
    for (host_id, router_id), rtt in dataset.router_pings.items():
        index.setdefault(router_id, []).append((host_id, rtt))
    for observations in index.values():
        observations.sort()
    return index


@dataclass(frozen=True)
class RouterPosition:
    """An estimated router location with its uncertainty."""

    router_id: str
    center: GeoPoint
    uncertainty_km: float
    confidence: float
    source: str

    DNS = "dns"
    LATENCY = "latency"


class RouterLocalizer:
    """Estimates positions for the routers observed on traceroute paths."""

    def __init__(
        self,
        dataset: MeasurementDataset,
        config: OctantConfig,
        calibrations: CalibrationSet,
        heights: HeightModel | None = None,
        parser: UndnsParser | None = None,
        dns_cache: dict[str, RouterPosition | None] | None = None,
        router_observations: Mapping[str, Sequence[tuple[str, float]]] | None = None,
        circle_cache: CircleCache | None = None,
    ):
        """``dns_cache`` and ``router_observations`` are optional shared state.

        A DNS-derived position depends only on the router's DNS record, never
        on the landmark set, so a cache shared across leave-one-out
        derivations returns identical positions without re-parsing.
        ``router_observations`` is the index from
        :func:`build_router_observation_index`, which latency observations
        are read from (filtered to the current landmark set); without one,
        the index is built from ``dataset`` here.
        """
        self.dataset = dataset
        self.config = config
        self.calibrations = calibrations
        self.heights = heights
        self.parser = parser or UndnsParser()
        self.dns_cache = dns_cache if dns_cache is not None else {}
        self.router_observations = (
            router_observations
            if router_observations is not None
            else build_router_observation_index(dataset)
        )
        self.circle_cache = circle_cache

    # ------------------------------------------------------------------ #
    # Router localization
    # ------------------------------------------------------------------ #
    def localize_routers(
        self, landmark_ids: Sequence[str]
    ) -> dict[str, RouterPosition]:
        """Estimate a position for every router measurable from the landmarks.

        Leave-one-out masking is expressed through ``landmark_ids`` itself
        (callers pass the already-masked roster): routers only measurable
        from a masked-out host are dropped, and its observations do not
        contribute to any latency-derived position.
        """
        landmarks = set(landmark_ids)
        positions: dict[str, RouterPosition] = {}
        for router_id in self._candidate_router_ids(landmarks):
            position = self._dns_position(router_id)
            if position is None:
                # Greedy intersection of the tightest calibrated disks.
                observations = self._latency_observations(router_id, landmarks)
                if observations is None:
                    continue
                centers, disks = self._observation_disks(observations)
                projection = projection_for_points(centers)
                position = self._intersect_disks(router_id, disks, projection)
            if position is not None:
                positions[router_id] = position
        return positions

    def _candidate_router_ids(self, landmarks: set[str]) -> list[str]:
        """Routers with at least one observation from the landmark set."""
        return sorted(
            router_id
            for router_id, observations in self.router_observations.items()
            if any(host in landmarks for host, _ in observations)
        )

    def _dns_position(self, router_id: str) -> RouterPosition | None:
        cache = self.dns_cache
        if router_id in cache:
            return cache[router_id]
        position: RouterPosition | None = None
        record = self.dataset.routers.get(router_id)
        if record is not None:
            hint = self.parser.parse(record.dns_name)
            if hint is not None and hint.confidence >= self.config.router_hint_min_confidence:
                position = RouterPosition(
                    router_id=router_id,
                    center=hint.location,
                    uncertainty_km=self.config.router_hint_radius_km,
                    confidence=hint.confidence,
                    source=RouterPosition.DNS,
                )
        cache[router_id] = position
        return position

    def _latency_observations(
        self, router_id: str, landmarks: set[str]
    ) -> list[tuple[float, str]] | None:
        """Height-adjusted ``(rtt, landmark)`` observations, tightest five.

        Sorted by ``(rtt, landmark_id)`` before the top entries are kept, so
        the result only depends on the landmark *set*, whatever order the
        index lists the observations in.
        """
        observations: list[tuple[float, str]] = []
        for landmark_id, rtt in self.router_observations.get(router_id, ()):
            if landmark_id not in landmarks:
                continue
            if self.heights is not None:
                rtt = max(0.0, rtt - self.heights.height(landmark_id))
            observations.append((rtt, landmark_id))
        if not observations:
            return None
        observations.sort()
        return observations[:5]

    def _observation_disks(
        self, observations: Sequence[tuple[float, str]]
    ) -> tuple[list[GeoPoint], list[tuple[GeoPoint, float]]]:
        """Calibrated disk (center, radius) per observation, plus the centers."""
        centers: list[GeoPoint] = []
        disks: list[tuple[GeoPoint, float]] = []
        for rtt, landmark_id in observations:
            calibration = self.calibrations.get(landmark_id)
            location = self.dataset.true_location(landmark_id)
            if calibration is not None and self.config.use_calibration:
                radius = calibration.max_distance_km(rtt)
            else:
                radius = rtt_ms_to_max_distance_km(rtt)
            centers.append(location)
            disks.append((location, radius))
        return centers, disks

    def _intersect_disks(
        self,
        router_id: str,
        disks: Sequence[tuple[GeoPoint, float]],
        projection,
    ) -> RouterPosition | None:
        """The scalar greedy disk intersection, shared by both pipelines."""
        region: Polygon | None = None
        for center, radius in disks:
            disk = disk_polygon(
                center,
                max(radius, 5.0),
                projection,
                segments=24,
                cache=self.circle_cache,
            )
            if region is None:
                region = disk
                continue
            clipped = clip_convex(region, disk)
            if clipped is not None:
                region = clipped
        if region is None:
            return None

        centroid = region.centroid()
        center_geo = projection.inverse(centroid)
        uncertainty = region.max_distance_to_point(centroid)
        return RouterPosition(
            router_id=router_id,
            center=center_geo,
            uncertainty_km=uncertainty,
            confidence=0.4,
            source=RouterPosition.LATENCY,
        )


def localize_routers_many(
    localizers: Sequence[RouterLocalizer],
    rosters: Sequence[Sequence[str]],
) -> list[dict[str, RouterPosition]]:
    """Cohort-axis :meth:`RouterLocalizer.localize_routers` over many rosters.

    Each localizer carries its own per-target heights and calibrations but the
    cohort shares the dataset, DNS cache, observation index, and circle cache.
    The batched pass runs the same stages as the scalar method — DNS hint,
    observation gather, disk radii, greedy intersection — but defers every
    disk realization until the full cohort's disk specs are known, then warms
    the shared :class:`~repro.geometry.circles.CircleCache` with one pooled
    boundary pass and one pooled projection pass per working plane.  The
    greedy intersection then runs the scalar fold against warm cache entries,
    so positions are bitwise identical to per-target calls (the cache's warm
    path is itself pinned to the scalar realization).
    """
    if len(localizers) != len(rosters):
        raise ValueError("localize_routers_many needs one roster per localizer")
    outputs: list[dict[str, RouterPosition]] = [{} for _ in localizers]
    pending: list[tuple[int, str, list[tuple[GeoPoint, float]], object]] = []
    boundary_jobs: dict[int, tuple[CircleCache, list]] = {}
    planar_jobs: dict[tuple[int, tuple], tuple[CircleCache, object, list]] = {}

    for t, (localizer, roster) in enumerate(zip(localizers, rosters)):
        landmarks = set(roster)
        cache = localizer.circle_cache
        for router_id in localizer._candidate_router_ids(landmarks):
            dns_position = localizer._dns_position(router_id)
            if dns_position is not None:
                outputs[t][router_id] = dns_position
                continue
            observations = localizer._latency_observations(router_id, landmarks)
            if observations is None:
                continue
            centers, disks = localizer._observation_disks(observations)
            projection = projection_for_points(centers)
            pending.append((t, router_id, disks, projection))
            if cache is None:
                continue
            specs = [(center, max(radius, 5.0), 24) for center, radius in disks]
            boundary_jobs.setdefault(id(cache), (cache, []))[1].extend(specs)
            projection_key = projection.cache_key()
            if projection_key is not None:
                planar_jobs.setdefault(
                    (id(cache), projection_key), (cache, projection, [])
                )[2].extend(specs)

    for cache, specs in boundary_jobs.values():
        cache.warm_boundaries(specs)
    for cache, projection, specs in planar_jobs.values():
        cache.warm_planar_disks(projection, specs)

    for t, router_id, disks, projection in pending:
        position = localizers[t]._intersect_disks(router_id, disks, projection)
        if position is not None:
            outputs[t][router_id] = position
    return outputs


def secondary_constraints_for_target(
    target_id: str,
    landmark_ids: Sequence[str],
    dataset: MeasurementDataset,
    router_positions: Mapping[str, RouterPosition],
    calibrations: CalibrationSet,
    config: OctantConfig,
    heights: HeightModel | None = None,
    target_height_ms: float = 0.0,
    geometry_cache: CircleCache | None = None,
) -> list[Constraint]:
    """Constraints on the target from routers close to it on the measured paths.

    For every landmark with a traceroute to the target, the last localized
    router on the path acts as a secondary landmark: the latency from that
    router to the target is the end-to-end minimum RTT minus the
    landmark-to-router RTT, and the resulting distance bound is widened by the
    router's own positional uncertainty so the constraint stays sound.
    """
    # For every localized router on any path toward the target, keep the
    # *tightest* remaining-latency observation over all landmarks whose
    # traceroute passes through it; one constraint per router, at the best
    # bound available, follows the paper's "serial" refinement while avoiding
    # a pile of redundant, highly correlated constraints.
    best_per_router: dict[str, tuple[float, str]] = {}
    for landmark_id in landmark_ids:
        trace = dataset.traceroute(landmark_id, target_id)
        if trace is None:
            continue
        end_to_end = dataset.min_rtt_ms(landmark_id, target_id)
        if end_to_end is None:
            continue
        if heights is not None:
            end_to_end = max(
                0.0, end_to_end - heights.height(landmark_id) - target_height_ms
            )

        # Walk hops nearest the target first and use the first localized one.
        for hop in reversed(trace.router_hops()):
            position = router_positions.get(hop.node_id)
            if position is None:
                continue
            to_router = dataset.router_min_rtt_ms(landmark_id, hop.node_id)
            if to_router is None:
                to_router = hop.min_rtt_ms
            if heights is not None:
                to_router = max(0.0, to_router - heights.height(landmark_id))
            remaining = max(0.5, end_to_end - to_router)
            current = best_per_router.get(hop.node_id)
            if current is None or remaining < current[0]:
                best_per_router[hop.node_id] = (remaining, landmark_id)
            break

    constraints: list[Constraint] = []
    margin = config.height_margin_ms if config.use_heights else 0.0
    for router_id, (remaining, landmark_id) in best_per_router.items():
        position = router_positions[router_id]
        calibration = calibrations.get(landmark_id)
        if calibration is not None and config.use_calibration:
            bound = calibration.max_distance_km(remaining + margin)
        else:
            bound = rtt_ms_to_max_distance_km(remaining + margin)
        max_km = bound + position.uncertainty_km

        # Secondary constraints inherit the latency-based weight of the short
        # final segment; that makes well-localized routers near the target the
        # strongest evidence available, which is the point of piecewise
        # localization.  Routers localized only from latency (no DNS hint) are
        # discounted by their lower confidence.
        weight = 1.0
        if config.use_weights:
            weight = latency_weight(
                remaining, config.weight_decay_ms, config.min_constraint_weight
            )
            if position.source != RouterPosition.DNS:
                weight *= position.confidence
        constraints.append(
            DistanceConstraint(
                landmark_id=router_id,
                landmark_location=position.center,
                max_km=max(max_km, 10.0),
                min_km=0.0,
                weight=weight,
                label=f"piecewise:{landmark_id}->{router_id}",
                circle_segments=config.solver.circle_segments,
                geometry_cache=geometry_cache,
            )
        )

    constraints.sort(key=lambda c: c.weight, reverse=True)
    return constraints[: config.max_secondary_constraints]
