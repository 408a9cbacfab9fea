"""Height (minimum queuing delay) estimation -- Section 2.2 of the paper.

A measured round-trip time decomposes into transmission (propagation) delay,
which correlates with distance, and an inelastic per-endpoint component the
paper calls the node's *height*: access-link serialization, last-mile
congestion, end-host processing.  Heights inflate every measurement a node
takes part in and, left uncorrected, systematically loosen the calibrated
latency-to-distance bounds.

Octant estimates heights from inter-landmark measurements alone.  For every
pair of primary landmarks ``a, b`` with known positions, the excess delay
``[a,b] - (a,b)`` (measured RTT minus the RTT-equivalent of the great-circle
distance) is attributed to the two endpoints: ``h_a + h_b ~= [a,b] - (a,b)``.
Stacking one equation per pair gives an overdetermined linear system solved
in the least-squares sense (the paper's 3-landmark example generalizes to the
full landmark set).  Target heights are then recovered from the target's
measurements to the landmarks by jointly fitting the target's height and a
rough position -- the position itself is noisy and discarded, exactly as the
paper notes, but the height estimate is what allows measurement adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..geometry import GeoPoint, distance_km_to_min_rtt_ms, geographic_midpoint
from ..geometry.sphere import FIBER_SPEED_KM_PER_MS

__all__ = [
    "HeightModel",
    "TargetHeightTables",
    "estimate_landmark_heights",
    "estimate_landmark_heights_lstsq",
    "estimate_landmark_heights_many",
    "estimate_target_height",
    "estimate_target_height_tabled",
]


@dataclass(frozen=True)
class HeightModel:
    """Estimated per-node heights (in RTT milliseconds attributable to the node)."""

    heights_ms: dict[str, float]
    residual_ms: float

    def height(self, node_id: str) -> float:
        """Height of a node; unknown nodes are assumed to add no delay."""
        return self.heights_ms.get(node_id, 0.0)

    def adjusted_rtt_ms(self, rtt_ms: float, node_a: str, node_b: str) -> float:
        """Measurement with both endpoints' heights removed (never below zero)."""
        return max(0.0, rtt_ms - self.height(node_a) - self.height(node_b))

    def __len__(self) -> int:
        return len(self.heights_ms)


def _quantile_sorted(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of an already-sorted sequence.

    Matches numpy's default ``linear`` method, including its two-sided lerp
    (interpolating from the upper neighbour when the fractional rank is at or
    above one half), so it can stand in for ``np.quantile`` on the height
    estimation hot path without changing results.
    """
    n = len(values)
    if n == 1:
        return float(values[0])
    position = q * (n - 1)
    low = int(position)
    if low >= n - 1:
        return float(values[n - 1])
    t = position - low
    a = values[low]
    b = values[low + 1]
    if t == 0.0:
        return float(a)
    diff = b - a
    if t >= 0.5:
        return float(b - diff * (1.0 - t))
    return float(a + diff * t)


def _pairwise_excess_table(
    landmark_locations: Mapping[str, GeoPoint],
    pairwise_rtt_ms: Mapping[tuple[str, str], float],
    distance_km: Callable[[str, str], float] | None = None,
) -> tuple[list[str], dict[tuple[str, str], float]]:
    """Per-pair excess delay (RTT minus propagation), symmetric and deduplicated.

    ``distance_km`` optionally supplies precomputed great-circle distances
    (e.g. the full-cohort matrix cached on the dataset); it must return values
    identical to ``locations[a].distance_km(locations[b])``.  Pairs involving
    hosts absent from ``landmark_locations`` are ignored, which is how a
    leave-one-out exclusion mask is applied: pass the full pairwise matrix
    together with the masked location map.
    """
    landmark_ids = sorted(landmark_locations)
    index = set(landmark_ids)
    if len(landmark_ids) < 3:
        raise ValueError("height estimation needs at least 3 landmarks")

    best: dict[tuple[str, str], float] = {}
    for (a, b), rtt in pairwise_rtt_ms.items():
        if a not in index or b not in index or a == b:
            continue
        key = (a, b) if a <= b else (b, a)
        if key not in best or rtt < best[key]:
            best[key] = rtt
    if len(best) < len(landmark_ids):
        raise ValueError(
            "height estimation needs at least as many measured pairs as landmarks; "
            f"got {len(best)} pairs for {len(landmark_ids)} landmarks"
        )

    excess: dict[tuple[str, str], float] = {}
    for (a, b), rtt in best.items():
        if distance_km is not None:
            distance = distance_km(a, b)
        else:
            distance = landmark_locations[a].distance_km(landmark_locations[b])
        excess[(a, b)] = rtt - distance_km_to_min_rtt_ms(distance)
    return landmark_ids, excess


def estimate_landmark_heights(
    landmark_locations: Mapping[str, GeoPoint],
    pairwise_rtt_ms: Mapping[tuple[str, str], float],
    quantile: float = 0.15,
    iterations: int = 10,
    distance_km: Callable[[str, str], float] | None = None,
) -> HeightModel:
    """Estimate the per-landmark *minimum* excess delay (the paper's height).

    The excess of a measurement over the propagation floor mixes two effects:
    the per-endpoint constant the paper calls height (access links, end-host
    stacks, fixed backhaul to the provider PoP) and per-path route inflation,
    which varies pair by pair.  A least-squares fit of ``h_a + h_b ~= excess``
    spreads the inflation over the endpoints and grossly over-estimates
    heights; Octant wants the *minimum* component only, so the estimator
    iterates a robust low-quantile fix-point::

        h_a <- quantile_q over peers b of (excess_ab - h_b)

    With a small ``quantile`` the estimate converges to the constant component
    seen on the landmark's least-inflated paths, which is exactly the
    inelastic part the adjustment should remove.  Heights are clamped to be
    non-negative.
    """
    if not 0.0 <= quantile <= 0.5:
        raise ValueError(f"quantile must be in [0, 0.5], got {quantile!r}")
    landmark_ids, excess = _pairwise_excess_table(
        landmark_locations, pairwise_rtt_ms, distance_km
    )

    peers: dict[str, list[tuple[str, float]]] = {lid: [] for lid in landmark_ids}
    for (a, b), value in excess.items():
        peers[a].append((b, value))
        peers[b].append((a, value))

    heights = {lid: 0.0 for lid in landmark_ids}
    for _ in range(iterations):
        updated: dict[str, float] = {}
        for lid in landmark_ids:
            observations = peers[lid]
            if not observations:
                updated[lid] = 0.0
                continue
            implied = sorted(value - heights[peer] for peer, value in observations)
            rank = min(len(implied) - 1, max(0, int(round(quantile * (len(implied) - 1)))))
            updated[lid] = max(0.0, implied[rank])
        # Damped update keeps the fix-point iteration stable.
        heights = {
            lid: 0.5 * heights[lid] + 0.5 * updated[lid] for lid in landmark_ids
        }

    residuals = [
        max(0.0, value - heights[a] - heights[b]) for (a, b), value in excess.items()
    ]
    residual = float(np.sqrt(np.mean(np.square(residuals)))) if residuals else 0.0
    return HeightModel(heights_ms=dict(heights), residual_ms=residual)


def estimate_landmark_heights_many(
    rosters: Sequence[Mapping[str, GeoPoint]],
    pairwise_rtt_ms,
    quantile: float = 0.15,
    iterations: int = 10,
    distance_km: Callable[[str, str], float] | None = None,
) -> list[HeightModel | ValueError]:
    """Cohort-axis :func:`estimate_landmark_heights` over many landmark rosters.

    Each entry of ``rosters`` is the landmark location map one scalar call
    would receive (typically the shared cohort locations minus one target, so
    the leave-one-out mask is expressed by roster membership).  All rosters
    draw their measurements from the same ``pairwise_rtt_ms``, which makes
    the fix-point iteration a single ``(cohort, landmark, landmark)`` tensor
    pass instead of a per-target Python loop.

    Results are bitwise identical to the scalar estimator: the excess table
    is built with the same scalar arithmetic per measured pair, the quantile
    rank and damped update replicate the reference expression ordering, and
    the residual reduces the per-target excess rows in the scalar iteration
    order.  Per-roster failures (too few landmarks or pairs) are captured as
    ``ValueError`` entries instead of aborting the cohort.

    ``pairwise_rtt_ms`` must be matrix-backed (the
    :class:`~repro.network.dataset.PairMatrixView` interface: sorted ``.ids``
    plus a dense ``.matrix``); anything else raises :class:`TypeError`.
    """
    if not 0.0 <= quantile <= 0.5:
        raise ValueError(f"quantile must be in [0, 0.5], got {quantile!r}")
    view_ids = getattr(pairwise_rtt_ms, "ids", None)
    view_matrix = getattr(pairwise_rtt_ms, "matrix", None)
    if view_ids is None or view_matrix is None or list(view_ids) != sorted(view_ids):
        raise TypeError(
            "estimate_landmark_heights_many needs a sorted pair matrix view, "
            f"got {type(pairwise_rtt_ms).__name__}"
        )
    rosters = list(rosters)
    if not rosters:
        return []

    union = sorted({lid for roster in rosters for lid in roster})
    merged_locations: dict[str, GeoPoint] = {}
    for roster in rosters:
        for lid, location in roster.items():
            merged_locations.setdefault(lid, location)

    size = len(union)
    union_index = {lid: i for i, lid in enumerate(union)}
    view_index = {lid: i for i, lid in enumerate(view_ids)}
    row_idx, col_idx = np.triu_indices(size, 1)

    # Excess table over the union roster, one scalar evaluation per measured
    # pair so every value is bit-for-bit the scalar `_pairwise_excess_table`
    # entry.  Unmeasured pairs stay NaN.
    excess_vals = np.full(row_idx.shape[0], np.nan)
    for n, (p, q) in enumerate(zip(row_idx.tolist(), col_idx.tolist())):
        a, b = union[p], union[q]
        ia = view_index.get(a)
        ib = view_index.get(b)
        if ia is None or ib is None:
            continue
        rtt = view_matrix[ia, ib] if ia < ib else view_matrix[ib, ia]
        if not math.isfinite(rtt):
            continue
        if distance_km is not None:
            distance = distance_km(a, b)
        else:
            distance = merged_locations[a].distance_km(merged_locations[b])
        excess_vals[n] = rtt - distance_km_to_min_rtt_ms(distance)

    excess = np.full((size, size), np.nan)
    excess[row_idx, col_idx] = excess_vals
    excess[col_idx, row_idx] = excess_vals
    measured = np.isfinite(excess)
    excess_filled = np.where(measured, excess, 0.0)

    cohort = len(rosters)
    member = np.zeros((cohort, size), dtype=bool)
    for t, roster in enumerate(rosters):
        for lid in roster:
            member[t, union_index[lid]] = True

    valid = member[:, :, None] & member[:, None, :] & measured[None, :, :]
    counts = valid.sum(axis=2)
    pair_valid = valid[:, row_idx, col_idx]
    pair_counts = pair_valid.sum(axis=1)

    errors: dict[int, ValueError] = {}
    for t, roster in enumerate(rosters):
        if len(roster) < 3:
            errors[t] = ValueError("height estimation needs at least 3 landmarks")
        elif int(pair_counts[t]) < len(roster):
            errors[t] = ValueError(
                "height estimation needs at least as many measured pairs as landmarks; "
                f"got {int(pair_counts[t])} pairs for {len(roster)} landmarks"
            )

    # rank = min(n - 1, max(0, round(quantile * (n - 1)))), exactly as the
    # scalar loop computes it (banker's rounding); counts of zero gather a
    # dummy slot and are masked to the scalar's 0.0 fallback below.
    rank = np.rint(quantile * (counts - 1).astype(float)).astype(np.int64)
    rank = np.minimum(counts - 1, np.maximum(0, rank))
    rank = np.maximum(rank, 0)

    heights = np.zeros((cohort, size))
    for _ in range(iterations):
        implied = excess_filled[None, :, :] - heights[:, None, :]
        implied = np.where(valid, implied, np.inf)
        implied.sort(axis=2)
        gathered = np.take_along_axis(implied, rank[:, :, None], axis=2)[:, :, 0]
        updated = np.where(counts > 0, np.maximum(0.0, gathered), 0.0)
        # Damped update keeps the fix-point iteration stable.
        heights = 0.5 * heights + 0.5 * updated

    results = []
    for t, roster in enumerate(rosters):
        if t in errors:
            results.append(errors[t])
            continue
        keep = np.nonzero(pair_valid[t])[0]
        residuals = np.maximum(
            0.0,
            (excess_vals[keep] - heights[t, row_idx[keep]]) - heights[t, col_idx[keep]],
        )
        residual = (
            float(np.sqrt(np.mean(np.square(residuals)))) if residuals.size else 0.0
        )
        landmark_ids = sorted(roster)
        heights_ms = {
            lid: float(heights[t, union_index[lid]]) for lid in landmark_ids
        }
        results.append(HeightModel(heights_ms=heights_ms, residual_ms=residual))
    return results


def estimate_landmark_heights_lstsq(
    landmark_locations: Mapping[str, GeoPoint],
    pairwise_rtt_ms: Mapping[tuple[str, str], float],
) -> HeightModel:
    """The naive least-squares variant of the height system (for comparison).

    Solves the paper's linear system ``h_a + h_b = [a,b] - (a,b)`` literally,
    in the least-squares sense.  On paths with little route inflation it
    matches :func:`estimate_landmark_heights`; with realistic inflation it
    over-estimates heights because inflation gets averaged into the endpoints.
    Kept as a reference point for tests and the ablation discussion.
    """
    landmark_ids, excess = _pairwise_excess_table(landmark_locations, pairwise_rtt_ms)
    index = {lid: i for i, lid in enumerate(landmark_ids)}

    rows = []
    rhs = []
    for (a, b), value in sorted(excess.items()):
        row = np.zeros(len(landmark_ids))
        row[index[a]] = 1.0
        row[index[b]] = 1.0
        rows.append(row)
        rhs.append(value)

    matrix = np.vstack(rows)
    target = np.asarray(rhs)
    solution, _, _, _ = np.linalg.lstsq(matrix, target, rcond=None)
    heights = np.maximum(solution, 0.0)
    residual = float(np.sqrt(np.mean((matrix @ heights - target) ** 2)))

    return HeightModel(
        heights_ms={lid: float(heights[index[lid]]) for lid in landmark_ids},
        residual_ms=residual,
    )


def _target_height_inputs(
    target_rtts_ms: Mapping[str, float],
    landmark_locations: Mapping[str, GeoPoint],
    landmark_heights: HeightModel,
) -> tuple[list[str], list[GeoPoint], np.ndarray, float]:
    """Usable landmarks, their locations, corrected RTTs and the height ceiling.

    A measurement is usable when its landmark has a location and the RTT is
    non-negative.  The corrected RTTs have the landmark's height removed.
    No position can make the target height exceed the smallest corrected
    RTT: the height is an additive component of every RTT the target takes
    part in.
    """
    usable = {
        lid: rtt
        for lid, rtt in target_rtts_ms.items()
        if lid in landmark_locations and rtt >= 0
    }
    if len(usable) < 3:
        raise ValueError("target height estimation needs measurements to >= 3 landmarks")
    landmark_ids = sorted(usable)
    rtts = np.asarray([usable[lid] for lid in landmark_ids])
    lm_heights = np.asarray([landmark_heights.height(lid) for lid in landmark_ids])
    corrected = rtts - lm_heights
    return (
        landmark_ids,
        [landmark_locations[lid] for lid in landmark_ids],
        corrected,
        max(0.0, float(np.min(corrected))),
    )


def _height_and_residual(
    implied_list: list[float], quantile: float, height_ceiling: float
) -> tuple[float, float]:
    """Quantile height and RMS residual from per-landmark implied heights."""
    implied_list.sort()
    height = _quantile_sorted(implied_list, quantile)
    height = min(max(0.0, height), height_ceiling)
    total = 0.0
    for value in implied_list:
        deviation = value - height
        total += deviation * deviation
    return height, math.sqrt(total / len(implied_list))


def _position_evaluator(
    locations: Sequence[GeoPoint],
    corrected: Sequence[float],
    quantile: float,
    height_ceiling: float,
) -> Callable[[float, float], tuple[float, float]]:
    """``evaluate(lat, lon)``: optimal height and RMS residual at a candidate.

    A haversine to every landmark, then the implied target height after
    removing the landmark's height and the propagation floor (2 * distance /
    fiber speed, the scalar ``distance_km_to_min_rtt_ms``).  The
    candidate-independent terms are hoisted out of this heavily repeated
    call.
    """
    lat_rad = [math.radians(loc.lat) for loc in locations]
    per_landmark = [
        (lat, math.radians(loc.lon), math.cos(lat), corr)
        for lat, loc, corr in zip(lat_rad, locations, corrected)
    ]
    sin = math.sin
    asin = math.asin
    sqrt = math.sqrt
    # The product of the same two literals is the same double, so
    # `diameter * asin(...)` is `2.0 * 6371.0088 * asin(...)` bit for bit.
    diameter = 2.0 * 6371.0088

    def evaluate(lat_deg: float, lon_deg: float) -> tuple[float, float]:
        phi = math.radians(lat_deg)
        lam = math.radians(lon_deg)
        cos_phi = math.cos(phi)
        implied_list = []
        append = implied_list.append
        for lat_r, lon_r, c_lat, corr in per_landmark:
            s1 = sin((lat_r - phi) / 2.0)
            s2 = sin((lon_r - lam) / 2.0)
            h = s1 * s1 + cos_phi * c_lat * (s2 * s2)
            if h < 0.0:
                h = 0.0
            elif h > 1.0:
                h = 1.0
            distance = diameter * asin(sqrt(h))
            append(corr - 2.0 * distance / FIBER_SPEED_KM_PER_MS)
        return _height_and_residual(implied_list, quantile, height_ceiling)

    return evaluate


def _refine(
    evaluate: Callable[[float, float], tuple[float, float]],
    lat: float,
    lon: float,
    height: float,
    residual: float,
    step: float,
) -> tuple[float, GeoPoint]:
    """Local grid refinement around the best landmark-anchored candidate."""
    for _ in range(3):
        improved = False
        for dlat in (-step, 0.0, step):
            for dlon in (-step, 0.0, step):
                if dlat == 0.0 and dlon == 0.0:
                    continue
                cand_lat = max(-89.0, min(89.0, lat + dlat))
                cand_lon = ((lon + dlon + 180.0) % 360.0) - 180.0
                cand_height, cand_residual = evaluate(cand_lat, cand_lon)
                if cand_residual < residual:
                    residual = cand_residual
                    height = cand_height
                    lat, lon = cand_lat, cand_lon
                    improved = True
        if not improved:
            step /= 2.0
    return height, GeoPoint(lat, lon)


def estimate_target_height(
    target_rtts_ms: Mapping[str, float],
    landmark_locations: Mapping[str, GeoPoint],
    landmark_heights: HeightModel,
    quantile: float = 0.15,
    refine_step_deg: float = 1.0,
) -> tuple[float, GeoPoint]:
    """Estimate a target's height (and a rough position) from its measurements.

    Follows the paper's Section 2.2: solve, over all landmarks ``a`` the
    target was probed from, the system ``h_a + h_t + (a, t) = [a, t]`` for the
    target height ``h_t`` and a rough position, where ``(a, t)`` is the
    RTT-equivalent of the great-circle distance from a candidate position.

    The position search evaluates every landmark location as a candidate (the
    target is always bracketed by landmarks in the paper's setting) and then
    refines on a small local grid around the best candidate.  Given a
    position, the height is the low-quantile of the implied per-landmark
    heights -- the same robust statistic used for the landmark heights, so
    target and landmark heights are directly comparable.  The returned
    position is noisy and, as the paper notes, not used downstream; the height
    is what the measurement adjustment needs.
    """
    _ids, locations, corrected, height_ceiling = _target_height_inputs(
        target_rtts_ms, landmark_locations, landmark_heights
    )
    evaluate = _position_evaluator(
        locations, corrected.tolist(), quantile, height_ceiling
    )
    midpoint = geographic_midpoint(locations)
    candidates = [(loc.lat, loc.lon) for loc in locations]
    candidates.append((midpoint.lat, midpoint.lon))

    best_height = 0.0
    best_residual = math.inf
    best_lat, best_lon = candidates[0]
    for lat, lon in candidates:
        height, residual = evaluate(lat, lon)
        if residual < best_residual:
            best_residual = residual
            best_height = height
            best_lat, best_lon = lat, lon
    return _refine(
        evaluate, best_lat, best_lon, best_height, best_residual, refine_step_deg
    )


class TargetHeightTables:
    """Cohort-shared candidate tables for :func:`estimate_target_height_tabled`.

    The scalar estimator's candidate scan re-evaluates a haversine from every
    landmark to every candidate position for every call; across a cohort the
    candidates are the same landmark coordinates every time.  This table
    precomputes, once per cohort, the propagation term
    ``2 * distance(landmark_i, landmark_k) / fiber_speed`` with exactly the
    expression ordering of the scalar ``evaluate`` closure, so the batched
    scan reduces to a subtract-and-sort over the table.  Entries are built
    with scalar ``math`` calls, keeping them bit-identical to the reference
    on every NumPy build.
    """

    __slots__ = ("ids", "index", "locations", "lat_rad", "lon_rad", "cos_lat", "q_table")

    def __init__(self, ids: Sequence[str], locations: Mapping[str, GeoPoint]):
        self.ids = list(ids)
        self.index = {lid: i for i, lid in enumerate(self.ids)}
        self.locations = [locations[lid] for lid in self.ids]
        self.lat_rad = [math.radians(loc.lat) for loc in self.locations]
        self.lon_rad = [math.radians(loc.lon) for loc in self.locations]
        self.cos_lat = [math.cos(lat) for lat in self.lat_rad]

        count = len(self.ids)
        table = np.empty((count, count))
        sin = math.sin
        asin = math.asin
        sqrt = math.sqrt
        lat_rad = self.lat_rad
        lon_rad = self.lon_rad
        cos_lat = self.cos_lat
        for k in range(count):
            phi = lat_rad[k]
            lam = lon_rad[k]
            cos_phi = cos_lat[k]
            for i in range(count):
                s1 = sin((lat_rad[i] - phi) / 2.0)
                s2 = sin((lon_rad[i] - lam) / 2.0)
                h = s1 * s1 + cos_phi * cos_lat[i] * (s2 * s2)
                if h < 0.0:
                    h = 0.0
                elif h > 1.0:
                    h = 1.0
                distance = 2.0 * 6371.0088 * asin(sqrt(h))
                table[i, k] = 2.0 * distance / FIBER_SPEED_KM_PER_MS
        self.q_table = table

    def covers(self, landmark_ids: Sequence[str], locations: Mapping[str, GeoPoint]) -> bool:
        """True when every id is tabled with exactly the given coordinates."""
        for lid in landmark_ids:
            slot = self.index.get(lid)
            if slot is None:
                return False
            tabled = self.locations[slot]
            given = locations[lid]
            if tabled.lat != given.lat or tabled.lon != given.lon:
                return False
        return True


def _quantile_sorted_columns(sorted_columns: np.ndarray, q: float) -> np.ndarray:
    """:func:`_quantile_sorted` over every column of a column-sorted matrix."""
    n = sorted_columns.shape[0]
    if n == 1:
        return sorted_columns[0].copy()
    position = q * (n - 1)
    low = int(position)
    if low >= n - 1:
        return sorted_columns[n - 1].copy()
    t = position - low
    a = sorted_columns[low]
    b = sorted_columns[low + 1]
    if t == 0.0:
        return a.copy()
    diff = b - a
    if t >= 0.5:
        return b - diff * (1.0 - t)
    return a + diff * t


def estimate_target_height_tabled(
    target_rtts_ms: Mapping[str, float],
    landmark_locations: Mapping[str, GeoPoint],
    landmark_heights: HeightModel,
    tables: TargetHeightTables | None,
    quantile: float = 0.15,
    refine_step_deg: float = 1.0,
) -> tuple[float, GeoPoint]:
    """:func:`estimate_target_height` with the candidate scan read from tables.

    Bitwise identical to the scalar estimator: the landmark-anchored candidate
    scan becomes ``corrected - q_table`` followed by a column sort and the
    vectorized quantile/residual reduction (all elementwise IEEE arithmetic in
    the scalar expression order), while the midpoint candidate and the local
    refinement — which visit positions no table can anticipate — run the
    scalar ``evaluate`` verbatim.  When ``tables`` is ``None`` or does not
    cover the usable landmarks at their exact coordinates, a table over
    exactly those landmarks is built for this call.
    """
    landmark_ids, locations, corrected_arr, height_ceiling = _target_height_inputs(
        target_rtts_ms, landmark_locations, landmark_heights
    )
    if tables is None or not tables.covers(landmark_ids, landmark_locations):
        tables = TargetHeightTables(landmark_ids, landmark_locations)
    evaluate = _position_evaluator(
        locations, corrected_arr.tolist(), quantile, height_ceiling
    )

    # Landmark-anchored candidates, evaluated in one table pass: column c is
    # the scalar evaluate() at candidate position `locations[c]`.
    count = len(landmark_ids)
    selector = [tables.index[lid] for lid in landmark_ids]
    implied = corrected_arr[:, None] - tables.q_table[np.ix_(selector, selector)]
    implied.sort(axis=0)
    height_vec = _quantile_sorted_columns(implied, quantile)
    height_vec = np.minimum(np.maximum(0.0, height_vec), height_ceiling)
    total_vec = np.zeros(count)
    for i in range(count):
        deviation = implied[i] - height_vec
        total_vec = total_vec + deviation * deviation
    residual_vec = np.sqrt(total_vec / count)

    candidates: list[tuple[float, float]] = [(loc.lat, loc.lon) for loc in locations]
    midpoint = geographic_midpoint(locations)
    candidates.append((midpoint.lat, midpoint.lon))
    mid_height, mid_residual = evaluate(midpoint.lat, midpoint.lon)

    all_residuals = np.concatenate([residual_vec, [mid_residual]])
    all_heights = np.concatenate([height_vec, [mid_height]])
    # First index attaining the minimum == the scalar loop's strict-< winner.
    best_index = int(np.argmin(all_residuals))
    best_lat, best_lon = candidates[best_index]
    return _refine(
        evaluate,
        best_lat,
        best_lon,
        float(all_heights[best_index]),
        float(all_residuals[best_index]),
        refine_step_deg,
    )


def pairwise_excess_ms(
    location_a: GeoPoint, location_b: GeoPoint, rtt_ms: float
) -> float:
    """Excess of a measurement over the propagation floor for a known pair.

    Convenience used by tests and diagnostics: ``[a,b] - (a,b)``, floored at
    zero because measurement noise can push the difference slightly negative.
    """
    transmission = distance_km_to_min_rtt_ms(location_a.distance_km(location_b))
    return max(0.0, rtt_ms - transmission)
