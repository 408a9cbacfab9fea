"""Octant reproduction: geolocalization of Internet hosts via constraint regions.

This package reproduces *Octant: A Comprehensive Framework for the
Geolocalization of Internet Hosts* (Wong, Stoyanov, Sirer).  The public API is
organized in four layers:

* :mod:`repro.geometry` -- spherical math, polygon boolean algebra and
  weighted regions.
* :mod:`repro.network`  -- the synthetic Internet substrate (topology, delay
  model, ping/traceroute, DNS and WHOIS) plus measurement datasets.
* :mod:`repro.core`     -- the Octant framework itself: constraints,
  calibration, heights, piecewise localization and the weighted solver.
* :mod:`repro.baselines` / :mod:`repro.evalx` -- the systems the paper
  compares against and the harness that regenerates its figures and tables.
* :mod:`repro.serving` -- the online front-end: an asyncio localization
  service with snapshot-per-request semantics and measurement ingest.
* :mod:`repro.resilience` -- fault injection, deadlines and cooperative
  cancellation, retry/backoff, circuit breakers and the typed error
  taxonomy behind the serving tier's graceful-degradation ladder.

Quickstart::

    from repro import build_deployment, collect_dataset, Octant

    deployment = build_deployment()
    dataset = collect_dataset(deployment)
    octant = Octant(dataset)
    estimate = octant.localize(dataset.host_ids[0])   # leave-one-out
    print(estimate.point, estimate.region_area_square_miles())
    study = octant.localize_all()                     # every host, one cohort

Both calls run through the same batch engine
(:class:`~repro.core.batch.BatchLocalizer`): a single ``localize`` is a
cohort of one.
"""

from .core import (
    BatchLocalizer,
    ConstraintPipeline,
    LocationEstimate,
    Octant,
    OctantConfig,
    SolverConfig,
)
from .geometry import GeoPoint, Region
from .network import (
    Deployment,
    DeploymentConfig,
    MeasurementDataset,
    build_deployment,
    collect_dataset,
    small_deployment,
)
from .resilience import (
    DeadlineExceeded,
    FatalError,
    FaultPlan,
    OperationCancelled,
    ResilienceConfig,
    RetriableError,
    RetryPolicy,
)
from .serving import (
    ClusterConfig,
    LocalizationService,
    ShardedLocalizationService,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "GeoPoint",
    "Region",
    "OctantConfig",
    "SolverConfig",
    "Octant",
    "BatchLocalizer",
    "ConstraintPipeline",
    "ClusterConfig",
    "LocalizationService",
    "ShardedLocalizationService",
    "LocationEstimate",
    "FaultPlan",
    "ResilienceConfig",
    "RetryPolicy",
    "RetriableError",
    "FatalError",
    "DeadlineExceeded",
    "OperationCancelled",
    "Deployment",
    "DeploymentConfig",
    "MeasurementDataset",
    "build_deployment",
    "collect_dataset",
    "small_deployment",
]
