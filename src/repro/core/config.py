"""Configuration of the Octant localization pipeline.

Every mechanism the paper describes can be switched on or off independently,
which is what the ablation benchmarks exercise: convex-hull calibration vs the
conservative speed-of-light bound, height correction, negative constraints,
piecewise router localization, geographic constraints, WHOIS hints and the
weighted (vs strict) solution strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..resilience.config import ResilienceConfig

__all__ = ["SOLVER_ENGINES", "OctantConfig", "SolverConfig"]

#: The solver engines :attr:`SolverConfig.engine` accepts: the NumPy cohort
#: kernel and the object reference.
SOLVER_ENGINES = ("fused", "object")


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the weighted geometric solver.

    The solver maintains a set of weighted region pieces and refines it with
    one constraint at a time; these knobs bound the work it does and define
    how the final estimate region is selected from the weighted pieces.
    Every solve starts from the same world square
    (:data:`repro.geometry.kernel.WORLD_SQUARE`), so no knob here sizes the
    search space.
    """

    #: Maximum number of weighted pieces kept after each constraint is applied.
    max_pieces: int = 16
    #: Pieces smaller than this (square km) are discarded as numerical slivers.
    min_piece_area_km2: float = 1.0
    #: The final estimate keeps the heaviest pieces until their combined area
    #: reaches this threshold (the paper's "desired size threshold").  The
    #: default is sized to the residual uncertainty of a calibrated latency
    #: constraint (roughly a 250 km radius), so that the reported region is an
    #: honest confidence area rather than just the deepest intersection.
    target_region_area_km2: float = 200000.0
    #: Number of vertices used when turning upper-bound and hint disks into
    #: polygons.  Lower-bound (exclusion) disks are inscribed octagons
    #: (:data:`repro.core.constraints.LOWER_BOUND_SEGMENTS`) whatever this is.
    circle_segments: int = 32
    #: When True the solver maintains exact, disjoint complements of every
    #: split (paper equation semantics, more expensive).  When False -- the
    #: default -- the unsatisfied side of a split keeps the original piece,
    #: which produces the same lattice of constraint intersections the paper
    #: describes while staying fast enough for the full evaluation.
    exact_complements: bool = False
    #: Which solver engine runs the weighted accumulation (one of
    #: :data:`SOLVER_ENGINES`).  ``"fused"`` (the default) is the NumPy
    #: cohort kernel (:class:`repro.geometry.kernel.FusedSolverKernel`):
    #: batched Sutherland-Hodgman passes over the whole piece population with
    #: a fully-inside/fully-outside prefilter, plus a *target* axis -- cohort
    #: workloads (batch leave-one-out studies, micro-batched serving) advance
    #: every target's constraint sequence in lockstep and pool the batched
    #: passes of all targets into single NumPy calls.  A single solve is a
    #: cohort of one.  ``"object"`` is the per-``Polygon`` path, kept as the
    #: independent reference.  A non-convex exclusion that straddles a
    #: piece's boundary (a projected geographic ring, a hand-written one)
    #: runs the same scalar ``subtract_polygons`` on both engines.  Both
    #: produce bit-identical estimates (pinned by the engine-equivalence
    #: suites); ``exact_complements`` runs on the object path regardless,
    #: which is the only mode that needs general disjoint complements.
    engine: str = "fused"
    #: Cohort width: the batch evaluation engine
    #: (``BatchLocalizer.localize_all``) solves leave-one-out cohorts in
    #: chunks of this many targets (one lockstep kernel run per chunk under
    #: ``"fused"``, per-system solves under ``"object"``), and the serving
    #: layer coalesces up to this many queued requests into one fused solve
    #: per executor dispatch.
    fuse_width: int = 16

    def __post_init__(self) -> None:
        if self.engine not in SOLVER_ENGINES:
            raise ValueError(
                f"unknown solver engine {self.engine!r}; "
                f"expected one of {SOLVER_ENGINES}"
            )


@dataclass(frozen=True)
class OctantConfig:
    """Feature switches and tuning parameters for the full Octant pipeline."""

    # ---- constraint extraction (Section 2.1) -------------------------- #
    #: Use per-landmark convex-hull calibration.  When False, positive
    #: constraints fall back to the conservative 2/3-speed-of-light bound and
    #: no latency-derived negative constraints are produced.
    use_calibration: bool = True
    #: Percentile (0-100) of inter-landmark latencies used as the calibration
    #: cutoff rho; beyond it the bounds blend toward the speed-of-light limit.
    calibration_cutoff_percentile: float = 75.0
    #: Latency (ms) of the fictitious sentinel data point that anchors the
    #: transition from aggressive to conservative bounds past the cutoff.
    calibration_sentinel_ms: float = 400.0
    #: Safety margin added to calibrated upper bounds, as a fraction of the
    #: bound (0.05 = 5 % slack), absorbing measurement noise unseen during
    #: calibration.
    calibration_slack: float = 0.05

    # ---- latency-derived negative constraints -------------------------- #
    #: Derive "further than r_L(d)" negative constraints from the lower hull.
    use_negative_constraints: bool = True

    # ---- queuing delay compensation (Section 2.2) ----------------------- #
    #: Estimate per-node heights and subtract them from measurements.
    use_heights: bool = True
    #: Uncertainty margin (ms) on the height-adjusted latency: positive bounds
    #: are evaluated at ``adjusted + margin`` and negative bounds at
    #: ``adjusted - margin`` so that a small error in the estimated heights
    #: cannot turn a sound constraint into one that excludes the target.
    height_margin_ms: float = 1.0
    #: Positive bounds are never tightened below this distance; it reflects
    #: the floor on how precisely a single latency measurement can place a
    #: node regardless of calibration quality.
    min_positive_bound_km: float = 30.0

    # ---- indirect routes (Section 2.3) --------------------------------- #
    #: Localize routers on the landmark-to-target paths and use them as
    #: secondary landmarks.
    use_piecewise: bool = True
    #: Minimum DNS-hint confidence for a router hint to be used directly.
    router_hint_min_confidence: float = 0.6
    #: Radius (km) of the positive constraint placed around a DNS-hinted city.
    router_hint_radius_km: float = 60.0
    #: Maximum number of secondary-landmark constraints added per target.
    max_secondary_constraints: int = 20

    # ---- uncertainty handling (Section 2.4) ----------------------------- #
    #: Use the exponentially decaying latency weights.  When False every
    #: constraint gets weight 1 and the solver degenerates toward the strict
    #: intersection of prior work.
    use_weights: bool = True
    #: Latency scale (ms) of the exponential weight decay exp(-latency/scale).
    weight_decay_ms: float = 50.0
    #: Weight floor so distant landmarks still contribute a little.
    min_constraint_weight: float = 0.02

    # ---- geographic constraints (Section 2.5) --------------------------- #
    #: Subtract oceans and uninhabited areas from the estimate.
    use_geographic_constraints: bool = True
    #: Add a weak positive constraint around the WHOIS-registered city.
    use_whois: bool = False
    #: Radius (km) of the WHOIS positive constraint.
    whois_radius_km: float = 300.0
    #: Weight of the WHOIS positive constraint.
    whois_weight: float = 0.3

    # ---- solver ---------------------------------------------------------- #
    solver: SolverConfig = field(default_factory=SolverConfig)

    # ---- serving resilience --------------------------------------------- #
    #: Deadlines, retries, circuit breakers and the graceful-degradation
    #: ladder of the serving tier (:mod:`repro.serving`).  Batch studies and
    #: direct pipeline use ignore it; defaults keep zero-fault serving runs
    #: bit-identical to the plain engine output.
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    # ------------------------------------------------------------------ #
    # Convenience constructors for the ablation study
    # ------------------------------------------------------------------ #
    def with_overrides(self, **kwargs: object) -> "OctantConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def conservative(cls) -> "OctantConfig":
        """Speed-of-light bounds only: the sound-but-loose baseline configuration."""
        return cls(
            use_calibration=False,
            use_negative_constraints=False,
            use_heights=False,
            use_piecewise=False,
            use_geographic_constraints=False,
            use_whois=False,
        )

    @classmethod
    def latency_only(cls) -> "OctantConfig":
        """Calibrated latency constraints only, no auxiliary data sources."""
        return cls(
            use_piecewise=False,
            use_geographic_constraints=False,
            use_whois=False,
        )

    @classmethod
    def full(cls) -> "OctantConfig":
        """Everything the paper describes switched on (including WHOIS)."""
        return cls(use_whois=True)
