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

__all__ = ["OctantConfig", "SolverConfig"]


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the weighted geometric solver.

    The solver maintains a set of weighted region pieces and refines it with
    one constraint at a time; these knobs bound the work it does and define
    how the final estimate region is selected from the weighted pieces.
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
    #: Number of vertices used when turning disks into polygons.
    circle_segments: int = 32
    #: Margin (km) added around the constraint extents when building the
    #: initial universe piece.
    universe_margin_km: float = 500.0
    #: When True the solver maintains exact, disjoint complements of every
    #: split (paper equation semantics, more expensive).  When False -- the
    #: default -- the unsatisfied side of a split keeps the original piece,
    #: which produces the same lattice of constraint intersections the paper
    #: describes while staying fast enough for the full evaluation.
    exact_complements: bool = False
    #: Which solver engine runs the weighted accumulation.  ``"vector"`` (the
    #: default) applies constraints through the NumPy flat-buffer kernel
    #: (:mod:`repro.geometry.kernel`): batched Sutherland-Hodgman passes over
    #: the whole piece population with a fully-inside/fully-outside prefilter.
    #: ``"fused"`` adds a *target* axis on top of it: cohort workloads (batch
    #: leave-one-out studies, micro-batched serving) advance every target's
    #: constraint sequence in lockstep and pool the batched clip passes of
    #: all targets into single NumPy calls, amortizing per-call dispatch
    #: across the cohort (single solves run as a cohort of one).
    #: ``"object"`` is the legacy per-``Polygon`` path, kept as the
    #: independent reference.  A non-convex exclusion (a detailed coastline
    #: ring) is subtracted with Greiner-Hormann on every engine: the vector
    #: and fused engines run the batched row kernel, the object engine the
    #: scalar ``subtract_polygons``.  All engines produce bit-identical
    #: estimates (pinned by the engine-equivalence suites);
    #: ``exact_complements`` runs on the object path regardless, which is the
    #: only mode that needs general disjoint complements.
    engine: str = "vector"
    #: Cohort width of the fused engine: the batch evaluation engine chunks
    #: leave-one-out cohorts into fused solves of this many targets (chunks
    #: fan out across executor workers), and the serving layer coalesces up
    #: to this many queued requests into one fused solve per executor
    #: dispatch.  Ignored by the other engines.
    fuse_width: int = 16
    #: LRU capacity of the shared circle-geometry cache (applies to each of
    #: its layers: geodesic boundaries, and planar ``(projection, circle)``
    #: constraint polygons).  Bounds the memory an online service can pin in
    #: geometry across an unbounded request stream; batch studies rarely
    #: approach it.
    circle_cache_size: int = 4096
    #: LRU capacity of the cross-solve constraint-geometry table cache
    #: (:func:`repro.geometry.kernel.geometry_for_constraint`): derived edge
    #: tables, keyhole rings, wedge coefficients and Greiner-Hormann clip
    #: rings keyed by realized constraint identity, so repeated solves of the
    #: same realized system (the serving warm path, interleaved benchmark
    #: repetitions) skip rebuilding them.  ``0`` disables the cache.  Invalidation is
    #: structural: changed measurements realize *new* polygon objects, which
    #: miss and age stale entries out.
    geometry_table_cache_size: int = 512


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
    #: Fidelity of the geographic region catalogue: ``"coarse"`` uses the
    #: original convex rings; ``"detailed"`` uses the higher-fidelity
    #: non-convex coastline rings (``repro.network.geodata``), which exclude
    #: strictly more open water/desert while staying sound, and ride the
    #: solver's batched Greiner-Hormann exclusion path.
    geographic_detail: str = "coarse"
    #: Add a weak positive constraint around the WHOIS-registered city.
    use_whois: bool = False
    #: Radius (km) of the WHOIS positive constraint.
    whois_radius_km: float = 300.0
    #: Weight of the WHOIS positive constraint.
    whois_weight: float = 0.3

    # ---- measurement handling ------------------------------------------ #
    #: Number of probes whose minimum is used per pair (the dataset may hold
    #: more; extra probes are ignored).
    probes_per_measurement: int = 10
    #: Maximum number of prepared landmark sets an :class:`Octant` retains
    #: (LRU).  Bounds memory during leave-one-out studies, where every target
    #: has a distinct landmark set; whole-cohort studies should use the batch
    #: engine, which shares state instead of caching per-set results.
    prepared_cache_size: int = 8

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
