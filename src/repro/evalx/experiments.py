"""The paper's experiments, reproduced end to end.

Each function corresponds to a figure or table in the evaluation section:

* :func:`calibration_scatter` -- the data behind **Figure 2**: the
  latency-vs-distance scatter for one landmark, the convex-hull facets Octant
  derives from it, the latency percentiles and the speed-of-light reference.
* :func:`run_accuracy_study` -- the leave-one-out study behind **Figure 3**
  and the Section 3 error table: every host in turn becomes the target, every
  other host a landmark, and every method produces a point estimate whose
  error is recorded.
* :func:`run_landmark_sweep` -- **Figure 4**: the fraction of targets whose
  true position lies inside the estimated region, as a function of the number
  of landmarks, for the region-producing methods (Octant and GeoLim).
* :func:`run_ablation_study` -- the design-choice ablations DESIGN.md calls
  out (calibration, heights, negative constraints, piecewise localization,
  weights, geographic constraints).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..baselines import GeoLim, GeoPing, GeoTrack, ShortestPing
from ..core import Octant, OctantConfig
from ..core.batch import localize_many
from ..core.calibration import CalibrationSample
from ..core.estimate import LocationEstimate
from ..geometry import rtt_ms_to_max_distance_km
from ..network.dataset import MeasurementDataset
from .metrics import ErrorStatistics, containment_rate, percentile, summarize_errors

__all__ = [
    "MethodFactory",
    "TargetResult",
    "AccuracyStudy",
    "CalibrationScatter",
    "LandmarkSweepPoint",
    "AblationResult",
    "default_method_factories",
    "calibration_scatter",
    "run_accuracy_study",
    "run_landmark_sweep",
    "run_ablation_study",
    "ABLATION_CONFIGS",
]

#: A method factory builds a localizer for a dataset; the study calls
#: ``factory(dataset)`` once and then ``localize`` per target.
MethodFactory = Callable[[MeasurementDataset], object]


def default_method_factories(
    octant_config: OctantConfig | None = None,
) -> dict[str, MethodFactory]:
    """The four methods the paper compares, plus the shortest-ping sanity check."""
    config = octant_config or OctantConfig()
    return {
        "octant": lambda ds: Octant(ds, config),
        "geolim": lambda ds: GeoLim(ds),
        "geoping": lambda ds: GeoPing(ds),
        "geotrack": lambda ds: GeoTrack(ds),
        "shortest-ping": lambda ds: ShortestPing(ds),
    }


# --------------------------------------------------------------------------- #
# Figure 2: calibration scatter
# --------------------------------------------------------------------------- #
@dataclass
class CalibrationScatter:
    """Everything needed to regenerate Figure 2 for one landmark."""

    landmark_id: str
    samples: list[CalibrationSample]
    upper_facet: list[tuple[float, float]]
    lower_facet: list[tuple[float, float]]
    latency_percentiles: dict[int, float]
    speed_of_light: list[tuple[float, float]]

    def max_latency_ms(self) -> float:
        """Largest observed latency, the plot's x extent."""
        return max(s.latency_ms for s in self.samples)


def calibration_scatter(
    dataset: MeasurementDataset,
    landmark_id: str,
    percentiles: Sequence[int] = (50, 75, 90),
) -> CalibrationScatter:
    """Collect the Figure 2 data for ``landmark_id``."""
    from ..core.calibration import calibrate_landmark

    location = dataset.true_location(landmark_id)
    samples: list[CalibrationSample] = []
    for peer in dataset.host_ids:
        if peer == landmark_id:
            continue
        rtt = dataset.min_rtt_ms(landmark_id, peer)
        if rtt is None:
            continue
        samples.append(
            CalibrationSample(rtt, location.distance_km(dataset.true_location(peer)))
        )
    if len(samples) < 3:
        raise ValueError(f"not enough peers measured from {landmark_id!r}")

    calibration = calibrate_landmark(landmark_id, samples)
    latencies = [s.latency_ms for s in samples]
    max_latency = max(latencies)
    sol_line = [
        (latency, rtt_ms_to_max_distance_km(latency))
        for latency in (0.0, max_latency * 0.25, max_latency * 0.5, max_latency * 0.75, max_latency)
    ]
    return CalibrationScatter(
        landmark_id=landmark_id,
        samples=samples,
        upper_facet=calibration.upper.breakpoints,
        lower_facet=calibration.lower.breakpoints,
        latency_percentiles={p: percentile(latencies, p) for p in percentiles},
        speed_of_light=sol_line,
    )


# --------------------------------------------------------------------------- #
# Figure 3 + Section 3 table: leave-one-out accuracy study
# --------------------------------------------------------------------------- #
@dataclass
class TargetResult:
    """One (method, target) outcome."""

    method: str
    target_id: str
    error_miles: float
    contains_truth: bool
    region_area_sq_mi: float
    solve_time_s: float
    estimate: LocationEstimate


@dataclass
class AccuracyStudy:
    """Results of the leave-one-out accuracy comparison."""

    results: list[TargetResult] = field(default_factory=list)

    def methods(self) -> list[str]:
        """Method names present in the study, sorted."""
        return sorted({r.method for r in self.results})

    def errors_for(self, method: str) -> list[float]:
        """Per-target errors (miles) for one method."""
        return [r.error_miles for r in self.results if r.method == method]

    def errors_by_method(self) -> dict[str, list[float]]:
        """Per-method error lists, the input to CDF plotting."""
        return {method: self.errors_for(method) for method in self.methods()}

    def statistics(self) -> dict[str, ErrorStatistics]:
        """Per-method error summaries (median, worst case, ...)."""
        return summarize_errors(self.errors_by_method())

    def containment_for(self, method: str) -> float:
        """Fraction of targets inside the estimated region, for region methods."""
        flags = [r.contains_truth for r in self.results if r.method == method]
        return containment_rate(flags)

    def mean_solve_time_s(self, method: str) -> float:
        """Average per-target solve time for a method."""
        times = [r.solve_time_s for r in self.results if r.method == method]
        return sum(times) / len(times) if times else 0.0


def run_accuracy_study(
    dataset: MeasurementDataset,
    method_factories: Mapping[str, MethodFactory] | None = None,
    target_ids: Sequence[str] | None = None,
) -> AccuracyStudy:
    """Leave-one-out localization of every target with every method.

    Octant methods run through the batch engine (shared full-cohort
    preparation); baseline methods run
    target by target.  A target a method cannot localize is recorded as a
    failed result (infinite error, empty region) instead of aborting the
    study.
    """
    factories = method_factories or default_method_factories()
    targets = list(target_ids) if target_ids is not None else dataset.host_ids
    study = AccuracyStudy()

    for method_name, factory in factories.items():
        localizer = factory(dataset)
        started = time.perf_counter()
        estimates = localize_many(localizer, targets, method=method_name)
        elapsed_each = (time.perf_counter() - started) / max(1, len(targets))
        for target in targets:
            estimate = estimates[target]
            truth = dataset.true_location(target)
            study.results.append(
                TargetResult(
                    method=method_name,
                    target_id=target,
                    error_miles=estimate.error_miles(truth),
                    contains_truth=estimate.contains_true_location(truth),
                    region_area_sq_mi=estimate.region_area_square_miles(),
                    solve_time_s=estimate.solve_time_s or elapsed_each,
                    estimate=estimate,
                )
            )
    return study


# --------------------------------------------------------------------------- #
# Figure 4: containment vs number of landmarks
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LandmarkSweepPoint:
    """One point of the Figure 4 curves."""

    method: str
    landmark_count: int
    containment: float
    median_error_miles: float
    targets_evaluated: int


def run_landmark_sweep(
    dataset: MeasurementDataset,
    landmark_counts: Sequence[int] = (10, 20, 30, 40, 50),
    method_factories: Mapping[str, MethodFactory] | None = None,
    target_ids: Sequence[str] | None = None,
    trials: int = 1,
    seed: int = 11,
) -> list[LandmarkSweepPoint]:
    """Containment rate as a function of the number of landmarks (Figure 4).

    For every landmark count, a random subset of hosts of that size acts as
    the landmark population and every host outside the subset (plus, as in
    the paper, subset members treated leave-one-out) is localized.  The
    containment criterion only applies to region-producing methods; point
    methods report 0, matching the paper's restriction of this figure to
    Octant and GeoLim.
    """
    factories = method_factories or {
        "octant": lambda ds: Octant(ds, OctantConfig()),
        "geolim": lambda ds: GeoLim(ds),
    }
    hosts = dataset.host_ids
    targets_pool = list(target_ids) if target_ids is not None else hosts
    rng = random.Random(seed)
    points: list[LandmarkSweepPoint] = []

    # One localizer (and, for Octant methods, one batch engine with its
    # shared DNS cache and router observation index) per method for the
    # whole sweep -- the shared state is landmark-set independent, so
    # rebuilding it per trial would redo exactly the work the batch engine
    # exists to amortize.
    localizers = {name: factory(dataset) for name, factory in factories.items()}
    engines = {
        name: localizer.batch_localizer() if isinstance(localizer, Octant) else None
        for name, localizer in localizers.items()
    }

    for count in landmark_counts:
        usable = min(count, len(hosts) - 1)
        per_method_flags: dict[str, list[bool]] = {name: [] for name in factories}
        per_method_errors: dict[str, list[float]] = {name: [] for name in factories}

        for _ in range(trials):
            landmarks = rng.sample(hosts, usable)
            eligible = [
                t
                for t in targets_pool
                if len([lid for lid in landmarks if lid != t]) >= 3
            ]
            for method_name, localizer in localizers.items():
                engine = engines[method_name]
                if engine is not None:
                    estimates = engine.localize_all(
                        eligible, landmark_pool=landmarks
                    )
                else:
                    estimates = {
                        t: localizer.localize(t, [lid for lid in landmarks if lid != t])
                        for t in eligible
                    }
                for target in eligible:
                    estimate = estimates[target]
                    if "error" in estimate.details:
                        # A captured per-target failure is an excluded trial,
                        # not a non-containment observation; counting it as
                        # False would silently bias the Figure 4 statistic.
                        continue
                    truth = dataset.true_location(target)
                    per_method_flags[method_name].append(
                        estimate.contains_true_location(truth)
                    )
                    per_method_errors[method_name].append(estimate.error_miles(truth))

        for method_name in factories:
            flags = per_method_flags[method_name]
            errors = [e for e in per_method_errors[method_name] if e != float("inf")]
            points.append(
                LandmarkSweepPoint(
                    method=method_name,
                    landmark_count=usable,
                    containment=containment_rate(flags),
                    median_error_miles=percentile(errors, 50) if errors else float("inf"),
                    targets_evaluated=len(flags),
                )
            )
    return points


# --------------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------------- #
#: The configurations compared by the ablation study, keyed by display name.
ABLATION_CONFIGS: dict[str, OctantConfig] = {
    "full": OctantConfig(),
    "no-calibration (speed of light)": OctantConfig().with_overrides(
        use_calibration=False, use_negative_constraints=False
    ),
    "no-heights": OctantConfig().with_overrides(use_heights=False),
    "no-negative-constraints": OctantConfig().with_overrides(use_negative_constraints=False),
    "no-piecewise": OctantConfig().with_overrides(use_piecewise=False),
    "no-weights (strict)": OctantConfig().with_overrides(use_weights=False),
    "no-geographic": OctantConfig().with_overrides(use_geographic_constraints=False),
}


@dataclass(frozen=True)
class AblationResult:
    """Error summary of one ablated configuration."""

    name: str
    median_error_miles: float
    p90_error_miles: float
    worst_error_miles: float
    containment: float
    mean_solve_time_s: float


def run_ablation_study(
    dataset: MeasurementDataset,
    configs: Mapping[str, OctantConfig] | None = None,
    target_ids: Sequence[str] | None = None,
) -> list[AblationResult]:
    """Compare Octant configurations with individual mechanisms disabled."""
    chosen = configs or ABLATION_CONFIGS
    targets = list(target_ids) if target_ids is not None else dataset.host_ids
    results: list[AblationResult] = []

    for name, config in chosen.items():
        estimates = Octant(dataset, config).localize_all(targets)
        errors: list[float] = []
        flags: list[bool] = []
        times: list[float] = []
        for target in targets:
            truth = dataset.true_location(target)
            estimate = estimates[target]
            errors.append(estimate.error_miles(truth))
            flags.append(estimate.contains_true_location(truth))
            times.append(estimate.solve_time_s)
        finite = [e for e in errors if e != float("inf")]
        stats = ErrorStatistics.from_errors(finite) if finite else None
        results.append(
            AblationResult(
                name=name,
                median_error_miles=stats.median if stats else float("inf"),
                p90_error_miles=stats.p90 if stats else float("inf"),
                worst_error_miles=stats.worst if stats else float("inf"),
                containment=containment_rate(flags),
                mean_solve_time_s=sum(times) / len(times) if times else 0.0,
            )
        )
    return results
