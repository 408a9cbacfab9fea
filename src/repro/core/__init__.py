"""Core Octant algorithms: constraints, calibration, heights, solver, facade."""

from .batch import BatchLocalizer, BatchSharedState, failed_estimate, localize_many
from .calibration import (
    CalibrationSample,
    CalibrationSet,
    LandmarkCalibration,
    build_calibration_set,
    calibrate_landmark,
)
from .config import OctantConfig, SolverConfig
from .constraints import (
    Constraint,
    ConstraintSet,
    DiskConstraint,
    DistanceConstraint,
    GeoRegionConstraint,
    PlanarConstraint,
    Polarity,
    latency_weight,
)
from .estimate import LocationEstimate
from .geo_constraints import (
    geographic_constraints,
    ocean_constraints,
    uninhabited_constraints,
    whois_constraint,
)
from .heights import (
    HeightModel,
    estimate_landmark_heights,
    estimate_target_height,
    pairwise_excess_ms,
)
from .octant import Octant, PreparedLandmarks
from .pipeline import ConstraintPipeline, PipelineStats
from .piecewise import (
    RouterLocalizer,
    RouterPosition,
    secondary_constraints_for_target,
)
from .solver import (
    SolverDiagnostics,
    WeightedRegionSolver,
    solve_systems,
)

__all__ = [
    "OctantConfig",
    "SolverConfig",
    "Polarity",
    "PlanarConstraint",
    "Constraint",
    "DistanceConstraint",
    "DiskConstraint",
    "GeoRegionConstraint",
    "ConstraintSet",
    "latency_weight",
    "CalibrationSample",
    "LandmarkCalibration",
    "CalibrationSet",
    "calibrate_landmark",
    "build_calibration_set",
    "BatchLocalizer",
    "BatchSharedState",
    "failed_estimate",
    "localize_many",
    "HeightModel",
    "estimate_landmark_heights",
    "estimate_target_height",
    "pairwise_excess_ms",
    "geographic_constraints",
    "ocean_constraints",
    "uninhabited_constraints",
    "whois_constraint",
    "RouterPosition",
    "RouterLocalizer",
    "secondary_constraints_for_target",
    "SolverDiagnostics",
    "WeightedRegionSolver",
    "solve_systems",
    "LocationEstimate",
    "Octant",
    "PreparedLandmarks",
    "ConstraintPipeline",
    "PipelineStats",
]
