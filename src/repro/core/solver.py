"""The weighted geometric constraint solver -- Sections 2 and 2.4 of the paper.

The solver receives a set of planar constraints (inclusion and/or exclusion
polygons with weights) and produces the estimated location region: a weighted,
possibly disconnected set of polygon pieces.

The strict formulation -- intersect all positive regions, subtract all
negative ones -- is brittle: one erroneous constraint collapses the solution
to the empty set.  Octant instead *accumulates weight*.  The solver maintains
a collection of weighted pieces (initially a single piece of weight zero, the
square :data:`~repro.geometry.kernel.WORLD_SQUARE` that holds every planar
point a projection produces).  Each constraint splits every piece into the
part that satisfies it (which gains the constraint's weight) and the part
that does not (which keeps its weight).  After all constraints
are applied, pieces are ranked by weight and the heaviest pieces are unioned
until the configured size threshold is reached -- precisely the paper's
"union of all regions, sorted by weight, such that they exceed a desired size
threshold".  Exclusions that are certain, such as the geographic rings, carry
no weight: :func:`~repro.geometry.kernel.select_region` subtracts them from
the selection as a land mask, for both engines.

Setting every weight to 1 and the selection threshold to "maximum weight only"
recovers the strict intersection semantics, which is how the ablation compares
weighted and unweighted solving.

Two engines implement the accumulation (``SolverConfig.engine``):

* ``"fused"`` (default) -- the NumPy cohort kernel
  :class:`~repro.geometry.kernel.FusedSolverKernel`: each target's piece
  population lives in packed coordinate arrays, every constraint is applied
  in batched vectorized passes with a fully-inside/fully-outside prefilter,
  and a cohort of targets advances in lockstep so the k-th constraint of
  every target shares those passes.  A single solve is a cohort of one.
* ``"object"`` -- the original one-``Polygon``-at-a-time path, kept as the
  executable specification the kernel is pinned against.

Both engines produce bit-identical results on every estimate metric (point,
area, piece count, weights); ``exact_complements`` mode always runs on the
object path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..geometry import (
    Polygon,
    Projection,
    Region,
    RegionPiece,
    intersect_polygons,
    subtract_polygons,
)
from ..geometry.kernel import (
    WORLD_SQUARE,
    FusedSolverKernel,
    select_region,
    subtract_cautious,
)
from .config import SolverConfig
from .constraints import PlanarConstraint

__all__ = [
    "SolverDiagnostics",
    "WeightedRegionSolver",
    "solve_systems",
]


@dataclass
class SolverDiagnostics:
    """Book-keeping about one solver run, useful for tests and reporting."""

    constraints_applied: int = 0
    constraints_skipped: int = 0
    max_pieces_seen: int = 0
    final_piece_count: int = 0
    max_weight: float = 0.0
    selected_weight: float = 0.0
    dropped_constraints: list[str] = field(default_factory=list)

    # ---- engine / kernel instrumentation ------------------------------- #
    #: Which engine ran the solve (``"fused"`` or ``"object"``).
    engine: str = "object"
    #: Total wall time of the solve call.
    solve_seconds: float = 0.0
    #: The fused kernel's work counters below count distinct piece
    #: geometries, not pieces: pieces sharing one geometry are classified
    #: and clipped once per step (see ``shared_pieces``).
    #: Geometries resolved by the bounding-box rejection alone (no clipping).
    prefilter_bbox: int = 0
    #: Geometries classified fully-inside a constraint (clip skipped;
    #: includes centre-distance hits, side-matrix hits and keyhole
    #: containments).
    prefilter_inside: int = 0
    #: Geometries classified fully-outside / fully-excluded (clip skipped).
    prefilter_outside: int = 0
    #: Geometries that actually went through clipping (batched or scalar).
    pieces_clipped: int = 0
    #: Total vertex lanes processed by the batched clipper, one row per
    #: geometry (cohort-level, like the fused pass counters below).  A
    #: one-target inclusion pool clips with the scalar ``clip_convex`` and
    #: adds no lanes; the wedge chains of a convex exclusion always do.
    vertices_clipped: int = 0
    #: Geometries that left the vectorized framework for the scalar
    #: ``intersect_polygons``/``subtract_polygons`` (a non-convex inclusion,
    #: or a non-convex exclusion straddling the geometry), and their total
    #: vertex count.
    fallback_pieces: int = 0
    fallback_vertices: int = 0
    #: Pieces entering the fused steps, summed over steps.
    step_pieces: int = 0
    #: Of those, the pieces that pointed at a geometry another piece of the
    #: same solve also pointed at: the per-piece work the geometry level
    #: saved.
    shared_pieces: int = 0
    #: Wall time per kernel phase; the phases (``inclusion``, ``exclusion``,
    #: ``assemble``, ``select``) are disjoint, so their sum approximates the
    #: solve time.  Shared lockstep spans are booked as an equal share per
    #: active cohort member per step (geometry-table builds and the pooled
    #: rebuild land in ``assemble``), so regressions stay attributable per
    #: phase whatever the cohort width.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    # ---- fused cohort instrumentation ---------------------------------- #
    #: How many targets shared the fused cohort this solve ran in (0 when
    #: the solve did not run fused).
    fused_cohort_targets: int = 0
    #: Pooled batched clip passes the cohort executed (cohort-level: every
    #: member of one cohort reports the same number).  Inclusion passes run
    #: only for pools spanning two or more targets; a one-target inclusion
    #: clip is scalar and counts none.
    fused_pass_count: int = 0
    #: Total rows (piece instances, summed over passes) the pooled passes
    #: processed -- ``fused_rows_clipped / fused_pass_count`` is the
    #: amortization operators watch (rows per pass).
    fused_rows_clipped: int = 0
    #: Mean number of targets active per lockstep step.
    fused_targets_per_pass: float = 0.0
    #: What the land mask did to the selection (``select_region``):
    #: ``"kept"``, ``"fallback"`` (a lighter weight class answered),
    #: ``"empty"`` (no class kept land; the unmasked selection answered) or
    #: ``None`` (no mask).
    geo_mask: str | None = None

    def kernel_summary(self) -> dict[str, object]:
        """Compact counters for ``EstimateResult.details`` reporting."""
        return {
            "engine": self.engine,
            "prefilter_bbox": self.prefilter_bbox,
            "prefilter_inside": self.prefilter_inside,
            "prefilter_outside": self.prefilter_outside,
            "pieces_clipped": self.pieces_clipped,
            "vertices_clipped": self.vertices_clipped,
            "fallback_pieces": self.fallback_pieces,
            "fallback_vertices": self.fallback_vertices,
            "step_pieces": self.step_pieces,
            "shared_pieces": self.shared_pieces,
            "fused_cohort_targets": self.fused_cohort_targets,
            "fused_pass_count": self.fused_pass_count,
            "fused_rows_clipped": self.fused_rows_clipped,
            "fused_rows_per_pass": round(
                self.fused_rows_clipped / self.fused_pass_count, 3
            )
            if self.fused_pass_count
            else 0.0,
            "fused_targets_per_pass": round(self.fused_targets_per_pass, 3),
            "phase_seconds": {k: round(v, 6) for k, v in self.phase_seconds.items()},
        }


class WeightedRegionSolver:
    """Applies weighted planar constraints and extracts the estimate region."""

    def __init__(self, config: SolverConfig | None = None):
        self.config = config or SolverConfig()
        self.diagnostics = SolverDiagnostics()

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def solve(
        self,
        constraints: Sequence[PlanarConstraint],
        projection: Projection,
        mask: Sequence[Polygon] = (),
    ) -> Region:
        """Run the weighted accumulation and return the estimated region.

        ``mask`` lists planar exclusions subtracted from the selection
        (:func:`~repro.geometry.kernel.select_region`).
        """
        started = time.perf_counter()
        self.diagnostics = SolverDiagnostics()
        if self.config.engine == "fused" and not self.config.exact_complements:
            # A single solve is a cohort of one.
            ((region, diagnostics),) = solve_systems(
                self.config, [(constraints, projection)], [mask]
            )
            self.diagnostics = diagnostics
            return region
        # The object engine -- and exact-complement mode, which needs general
        # disjoint complements only the object path implements.
        usable = [c for c in constraints if c is not None]
        if not usable:
            return Region.empty(projection)

        self.diagnostics.engine = "object"
        region = self._solve_object(usable, projection, mask)
        self.diagnostics.solve_seconds = time.perf_counter() - started
        return region

    # ------------------------------------------------------------------ #
    # Object engine (the executable specification)
    # ------------------------------------------------------------------ #
    def _solve_object(
        self,
        usable: list[PlanarConstraint],
        projection: Projection,
        mask: Sequence[Polygon],
    ) -> Region:
        pieces: list[RegionPiece] = [RegionPiece(WORLD_SQUARE, 0.0)]
        ordered = sorted(usable, key=lambda c: c.weight, reverse=True)

        for constraint in ordered:
            new_pieces = self._apply_constraint(pieces, constraint)
            if not new_pieces:
                # The constraint wiped out everything; skip it rather than
                # collapsing the solution (it is inconsistent with the
                # accumulated evidence, which outweighs it).
                self.diagnostics.constraints_skipped += 1
                self.diagnostics.dropped_constraints.append(constraint.label)
                continue
            pieces = self._prune(new_pieces)
            self.diagnostics.constraints_applied += 1
            self.diagnostics.max_pieces_seen = max(
                self.diagnostics.max_pieces_seen, len(pieces)
            )

        selected = select_region(
            [p.weight for p in pieces],
            [p.area_km2() for p in pieces],
            lambda i: pieces[i].polygon,
            self.config,
            mask,
            self.diagnostics,
        )
        return Region(selected, projection)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _apply_constraint(
        self, pieces: Sequence[RegionPiece], constraint: PlanarConstraint
    ) -> list[RegionPiece]:
        """Split every piece by the constraint, assigning weight to the satisfied part."""
        result: list[RegionPiece] = []
        for piece in pieces:
            satisfied, unsatisfied = self._split_piece(piece.polygon, constraint)
            for polygon in satisfied:
                result.append(RegionPiece(polygon, piece.weight + constraint.weight))
            for polygon in unsatisfied:
                result.append(RegionPiece(polygon, piece.weight))
        return [p for p in result if p.area_km2() >= self.config.min_piece_area_km2]

    def _split_piece(
        self, polygon: Polygon, constraint: PlanarConstraint
    ) -> tuple[list[Polygon], list[Polygon]]:
        """Partition ``polygon`` into (satisfies constraint, does not satisfy).

        In the default (non-exact) mode the unsatisfied side is simply the
        original piece: the solver then carries the full lattice of constraint
        intersections ("all possible resulting regions via intersections", as
        the paper puts it) with overlapping lower-weight fallbacks, rather
        than maintaining disjoint complements.
        """
        inclusion = constraint.inclusion
        exclusion = constraint.exclusion
        exact = self.config.exact_complements

        if inclusion is not None:
            inside = intersect_polygons(polygon, inclusion)
            outside = subtract_polygons(polygon, inclusion) if exact else [polygon]
        else:
            inside = [polygon]
            outside = []

        if exclusion is None:
            return inside, outside

        satisfied: list[Polygon] = []
        unsatisfied: list[Polygon] = list(outside)
        for piece in inside:
            kept = subtract_cautious(piece, exclusion)
            satisfied.extend(kept)
            if exact:
                unsatisfied.extend(intersect_polygons(piece, exclusion))
            elif not outside:
                unsatisfied.append(piece)
        return satisfied, unsatisfied

    def _prune(self, pieces: list[RegionPiece]) -> list[RegionPiece]:
        """Bound the piece population: drop slivers, keep the heaviest pieces."""
        viable = [p for p in pieces if p.area_km2() >= self.config.min_piece_area_km2]
        if len(viable) <= self.config.max_pieces:
            return viable
        ranked = sorted(viable, key=lambda p: (p.weight, p.area_km2()), reverse=True)
        return ranked[: self.config.max_pieces]


def solve_systems(
    config: SolverConfig | None,
    systems: Sequence[tuple],
    masks: Sequence[Sequence[Polygon]] = (),
) -> list[tuple[Region, SolverDiagnostics]]:
    """Solve many constraint systems, fused into one cohort when configured.

    ``systems`` holds ``(constraints, projection)`` per target, and
    ``masks`` (empty, or one per system) the planar exclusions subtracted
    from each system's selection.  With ``engine="fused"`` (and not
    ``exact_complements``) every non-degenerate system advances through one
    :class:`FusedSolverKernel` lockstep run -- the k-th constraint of every
    target applied in shared batched passes; the object engine solves each
    system independently.  Returns one ``(region, diagnostics)`` pair per
    system, in input order; results are bit-identical to solving each
    system alone.
    """
    config = config or SolverConfig()
    results: list[tuple[Region, SolverDiagnostics] | None] = [None] * len(systems)
    use_fused = config.engine == "fused" and not config.exact_complements
    fused_jobs: list[tuple[int, list, object, SolverDiagnostics, float, Sequence]] = []
    masks = list(masks) or [()] * len(systems)
    for i, (constraints, projection) in enumerate(systems):
        if not use_fused:
            solver = WeightedRegionSolver(config)
            region = solver.solve(constraints, projection, masks[i])
            results[i] = (region, solver.diagnostics)
            continue
        started = time.perf_counter()
        diagnostics = SolverDiagnostics(engine="fused")
        usable = [c for c in constraints if c is not None]
        if not usable:
            diagnostics.solve_seconds = time.perf_counter() - started
            results[i] = (Region.empty(projection), diagnostics)
            continue
        fused_jobs.append((i, usable, projection, diagnostics, started, masks[i]))

    if fused_jobs:
        kernel = FusedSolverKernel(config)
        regions = kernel.solve_many(
            [(usable, projection, diagnostics, mask)
             for (_i, usable, projection, diagnostics, _t, mask) in fused_jobs]
        )
        finished = time.perf_counter()
        for (i, _u, _p, diagnostics, started, _m), region in zip(fused_jobs, regions):
            # The cohort solve is one shared span; each member records the
            # full wall time (amortized cost is what the benchmarks divide
            # back out).
            diagnostics.solve_seconds = finished - started
            results[i] = (region, diagnostics)
    return results  # type: ignore[return-value]
