"""The weighted geometric constraint solver -- Sections 2 and 2.4 of the paper.

The solver receives a set of planar constraints (inclusion and/or exclusion
polygons with weights) and produces the estimated location region: a weighted,
possibly disconnected set of polygon pieces.

The strict formulation -- intersect all positive regions, subtract all
negative ones -- is brittle: one erroneous constraint collapses the solution
to the empty set.  Octant instead *accumulates weight*.  The solver maintains
a collection of weighted pieces (initially a single "universe" piece of weight
zero covering the extent of all constraints).  Each constraint splits every
piece into the part that satisfies it (which gains the constraint's weight)
and the part that does not (which keeps its weight).  After all constraints
are applied, pieces are ranked by weight and the heaviest pieces are unioned
until the configured size threshold is reached -- precisely the paper's
"union of all regions, sorted by weight, such that they exceed a desired size
threshold".

Setting every weight to 1 and the selection threshold to "maximum weight only"
recovers the strict intersection semantics, which is how the ablation compares
weighted and unweighted solving.

Two engines implement the accumulation (``SolverConfig.engine``):

* ``"vector"`` (default) -- the NumPy flat-buffer kernel in
  :mod:`repro.geometry.kernel`: the piece population lives in packed
  coordinate arrays and every constraint is applied in batched vectorized
  passes with a fully-inside/fully-outside prefilter.
* ``"object"`` -- the original one-``Polygon``-at-a-time path, kept as the
  executable specification the kernel is pinned against.

Both engines produce bit-identical results on every estimate metric (point,
area, piece count, weights); ``exact_complements`` mode always runs on the
object path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..geometry import (
    BoundingBox,
    Polygon,
    Projection,
    Region,
    RegionPiece,
    intersect_polygons,
    subtract_polygons,
)
from ..geometry.kernel import FusedSolverKernel, VectorSolverKernel, subtract_cautious
from .config import SolverConfig
from .constraints import PlanarConstraint

__all__ = [
    "SolverDiagnostics",
    "WeightedRegionSolver",
    "solve_systems",
    "strict_intersection",
    "universe_polygon",
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
    #: Which engine ran the solve (``"vector"``, ``"fused"`` or ``"object"``).
    engine: str = "object"
    #: Total wall time of the solve call.
    solve_seconds: float = 0.0
    #: Pieces resolved by the bounding-box rejection alone (no clipping).
    prefilter_bbox: int = 0
    #: Pieces classified fully-inside a constraint (clip skipped; includes
    #: centre-distance hits, side-matrix hits and keyhole containments).
    prefilter_inside: int = 0
    #: Pieces classified fully-outside / fully-excluded (clip skipped).
    prefilter_outside: int = 0
    #: Pieces that actually went through batched clipping passes.
    pieces_clipped: int = 0
    #: Total vertex lanes processed by the batched clipper.
    vertices_clipped: int = 0
    #: Pieces that left the vectorized framework for a per-piece object
    #: boolean or Greiner-Hormann traversal (non-convex inclusions and
    #: exclusions), and their total vertex count.
    fallback_pieces: int = 0
    fallback_vertices: int = 0
    #: Cross-solve constraint-geometry table cache hits/misses (this solve).
    geometry_table_hits: int = 0
    geometry_table_misses: int = 0
    #: Wall time per kernel phase; the phases (``inclusion``, ``exclusion``,
    #: ``assemble``, ``select``) are disjoint, so their sum approximates the
    #: solve time.  The fused engine books its shared lockstep spans under
    #: the same phase names (an equal share per active cohort member per
    #: step; geometry-table lookup and the pooled rebuild land in
    #: ``assemble``), so regressions stay attributable per phase across
    #: engines.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    # ---- fused cohort instrumentation ---------------------------------- #
    #: How many targets shared the fused cohort this solve ran in (0 when
    #: the solve did not run fused).
    fused_cohort_targets: int = 0
    #: Pooled batched clip passes the cohort executed (cohort-level: every
    #: member of one cohort reports the same number).
    fused_pass_count: int = 0
    #: Total rows (piece instances, summed over passes) the pooled passes
    #: processed -- ``fused_rows_clipped / fused_pass_count`` is the
    #: amortization operators watch (rows per pass).
    fused_rows_clipped: int = 0
    #: Mean number of targets active per lockstep step.
    fused_targets_per_pass: float = 0.0

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
            "geometry_table_hits": self.geometry_table_hits,
            "geometry_table_misses": self.geometry_table_misses,
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


def universe_polygon(
    constraints: Sequence[PlanarConstraint], margin_km: float
) -> Polygon | None:
    """The initial zero-weight universe piece: the constraint extents plus margin.

    Module-level so that both solver engines and :func:`strict_intersection`
    share one implementation instead of reaching into solver internals.
    """
    boxes: list[BoundingBox] = []
    for constraint in constraints:
        if constraint.inclusion is not None:
            boxes.append(constraint.inclusion.bounding_box())
        elif constraint.exclusion is not None:
            boxes.append(constraint.exclusion.bounding_box())
    if not boxes:
        return None
    box = boxes[0]
    for other in boxes[1:]:
        box = box.union(other)
    return Polygon.rectangle(box.expanded(margin_km))


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
        universe: Polygon | None = None,
    ) -> Region:
        """Run the weighted accumulation and return the estimated region.

        ``universe`` bounds the search; when omitted it is the bounding box of
        all constraint geometry expanded by the configured margin.
        """
        started = time.perf_counter()
        self.diagnostics = SolverDiagnostics()
        if self.config.engine == "fused" and not self.config.exact_complements:
            # A single solve is a cohort of one; results are bit-identical
            # to ``engine="vector"`` (the fused kernel drives the very same
            # per-target machinery), so the engine can be flipped globally.
            ((region, diagnostics),) = solve_systems(
                self.config, [(constraints, projection, universe)]
            )
            self.diagnostics = diagnostics
            return region
        usable = [c for c in constraints if c is not None]
        if not usable:
            return Region.empty(projection)

        base = universe or universe_polygon(usable, self.config.universe_margin_km)
        if base is None:
            return Region.empty(projection)

        # Exact-complement mode needs general disjoint complements, which only
        # the object path implements; everything else runs on the kernel.
        use_vector = self.config.engine == "vector" and not self.config.exact_complements
        if use_vector:
            self.diagnostics.engine = "vector"
            kernel = VectorSolverKernel(self.config, self.diagnostics)
            region = kernel.solve(usable, projection, base)
            self.diagnostics.solve_seconds = time.perf_counter() - started
            return region

        self.diagnostics.engine = "object"
        region = self._solve_object(usable, projection, base)
        self.diagnostics.solve_seconds = time.perf_counter() - started
        return region

    # ------------------------------------------------------------------ #
    # Object engine (the executable specification)
    # ------------------------------------------------------------------ #
    def _solve_object(
        self,
        usable: list[PlanarConstraint],
        projection: Projection,
        base: Polygon,
    ) -> Region:
        pieces: list[RegionPiece] = [RegionPiece(base, 0.0)]
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

        selected = self._select(pieces)
        self.diagnostics.final_piece_count = len(selected)
        self.diagnostics.max_weight = max((p.weight for p in pieces), default=0.0)
        self.diagnostics.selected_weight = max((p.weight for p in selected), default=0.0)
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

    def _select(self, pieces: Sequence[RegionPiece]) -> list[RegionPiece]:
        """Pick the heaviest pieces until the target region size is reached."""
        if not pieces:
            return []
        ranked = sorted(pieces, key=lambda p: (p.weight, -p.area_km2()), reverse=True)
        selected: list[RegionPiece] = []
        accumulated = 0.0
        top_weight = ranked[0].weight
        for piece in ranked:
            if selected and accumulated >= self.config.target_region_area_km2:
                break
            if selected and piece.weight < top_weight and accumulated > 0:
                # Once the area threshold logic moves past the top weight
                # class, only add lighter pieces while the region is still
                # too small to be meaningful.
                if accumulated >= self.config.target_region_area_km2 / 4.0:
                    break
            selected.append(piece)
            accumulated += piece.area_km2()
        return selected


def solve_systems(
    config: SolverConfig | None,
    systems: Sequence[tuple],
) -> list[tuple[Region, SolverDiagnostics]]:
    """Solve many constraint systems, fused into one cohort when configured.

    ``systems`` holds ``(constraints, projection)`` or
    ``(constraints, projection, universe)`` per target.  With
    ``engine="fused"`` (and not ``exact_complements``) every non-degenerate
    system advances through one :class:`FusedSolverKernel` lockstep run --
    the k-th constraint of every target applied in shared batched passes;
    any other engine solves each system independently.  Returns one
    ``(region, diagnostics)`` pair per system, in input order; results are
    bit-identical to solving each system alone.
    """
    config = config or SolverConfig()
    results: list[tuple[Region, SolverDiagnostics] | None] = [None] * len(systems)
    use_fused = config.engine == "fused" and not config.exact_complements
    fused_jobs: list[tuple[int, list, object, Polygon, SolverDiagnostics, float]] = []
    for i, system in enumerate(systems):
        constraints, projection = system[0], system[1]
        universe = system[2] if len(system) > 2 else None
        if not use_fused:
            solver = WeightedRegionSolver(config)
            region = solver.solve(constraints, projection, universe)
            results[i] = (region, solver.diagnostics)
            continue
        started = time.perf_counter()
        diagnostics = SolverDiagnostics(engine="fused")
        usable = [c for c in constraints if c is not None]
        base = (
            universe or universe_polygon(usable, config.universe_margin_km)
            if usable
            else None
        )
        if base is None:
            diagnostics.solve_seconds = time.perf_counter() - started
            results[i] = (Region.empty(projection), diagnostics)
            continue
        fused_jobs.append((i, usable, projection, base, diagnostics, started))

    if fused_jobs:
        kernel = FusedSolverKernel(config)
        regions = kernel.solve_many(
            [(usable, projection, base, diagnostics)
             for (_i, usable, projection, base, diagnostics, _t) in fused_jobs]
        )
        finished = time.perf_counter()
        for (i, _u, _p, _b, diagnostics, started), region in zip(fused_jobs, regions):
            # The cohort solve is one shared span; each member records the
            # full wall time (amortized cost is what the benchmarks divide
            # back out).
            diagnostics.solve_seconds = finished - started
            results[i] = (region, diagnostics)
    return results  # type: ignore[return-value]


def strict_intersection(
    constraints: Iterable[PlanarConstraint],
    projection: Projection,
    universe: Polygon | None = None,
    min_piece_area_km2: float = 1.0,
) -> Region:
    """The brittle textbook solution: intersect positives, subtract negatives.

    Provided both as the degenerate mode the ablation study compares against
    and as the behaviour of prior region-based work (GeoLim) inside the Octant
    machinery.  Returns an empty region as soon as the constraints conflict.
    """
    usable = [c for c in constraints if c is not None]
    if not usable:
        return Region.empty(projection)

    base = universe or universe_polygon(
        usable, SolverConfig().universe_margin_km
    )
    if base is None:
        return Region.empty(projection)

    current: list[Polygon] = [base]
    for constraint in usable:
        next_pieces: list[Polygon] = []
        for piece in current:
            parts = [piece]
            if constraint.inclusion is not None:
                parts = [
                    p
                    for part in parts
                    for p in intersect_polygons(part, constraint.inclusion)
                ]
            if constraint.exclusion is not None:
                parts = [
                    p
                    for part in parts
                    for p in subtract_polygons(part, constraint.exclusion)
                ]
            next_pieces.extend(parts)
        # Filter slivers in km^2, the same unit the weighted solver's
        # _apply_constraint/_prune use, so the two solution strategies apply
        # one consistent physical threshold.
        current = [p for p in next_pieces if p.area_km2() >= min_piece_area_km2]
        if not current:
            return Region.empty(projection)
    return Region([RegionPiece(p, 1.0) for p in current], projection)
