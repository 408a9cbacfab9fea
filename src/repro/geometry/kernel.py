"""Vectorized flat-buffer solver kernel.

The weighted region solver's object path clips one Python :class:`Polygon`
at a time: every constraint walks every piece through per-vertex Python
loops (Sutherland-Hodgman passes, keyhole containment scans, wedge
subtraction).  This module re-implements that inner loop as NumPy passes
over a struct-of-arrays *flat buffer*:

* :class:`PieceBuffer` packs the whole piece population into contiguous
  coordinate arrays with per-geometry offsets, cached signed areas and
  bounding boxes, plus per-piece weights and geometry indices -- the
  representation is chosen for the dominant operation (batched clipping),
  not for per-piece object ergonomics.  Pieces with the same coordinates
  share one geometry, and every stage works once per geometry.
* Batched Sutherland-Hodgman passes clip the pieces of many targets
  against their own constraint edges at once (:func:`_clip_pass_rows`), with
  scatter-assembled outputs and a no-crossing short-circuit for the common
  pass that changes nothing.  Rows are pooled only where pooling wins a
  measurement: a convex inclusion spanning two or more targets and the
  wedge chains of a convex exclusion.  A one-target inclusion pool clips
  with the scalar ``clip_convex`` and keyholes run one part at a time.
* A bounding-box / centre-distance prefilter classifies pieces as
  fully-inside or fully-outside a convex constraint and skips the clipper
  for them entirely (see ``DESIGN_SOLVER_KERNEL.md`` for the correctness
  argument: every shortcut is taken only when the object path's outcome is
  provably bit-identical).
* :class:`FusedSolverKernel` drives it: a cohort of targets advances in
  lockstep, the k-th constraint of every target sharing the batched passes;
  a single solve is a cohort of one.

Bit-level identity with the object path is the design contract, pinned by
``tests/core/test_solver_engines.py``: every vectorized expression mirrors
the scalar arithmetic operand for operand (NumPy float64 elementwise ops are
IEEE-identical to CPython float ops), sequential accumulations use
``np.cumsum`` (a serial scan, matching the scalar ``+=`` loop bitwise), and
any case the vectorized passes cannot reproduce exactly -- a non-convex
inclusion, a non-convex exclusion straddling a piece's boundary, ambiguous
boundary geometry -- falls back to the very object-path functions it would
otherwise replace (``intersect_polygons`` / ``subtract_polygons``, one call
per distinct geometry).
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Sequence

import numpy as np

from .bbox import BoundingBox
from .clipping import (
    _MIN_PIECE_AREA_KM2 as MIN_SLIVER_AREA_KM2,
)
from .clipping import (
    clip_convex,
    intersect_polygons,
    subtract_polygons,
)
from .point import EPSILON, Point2D
from .polygon import MERGE_TOLERANCE_KM, Polygon
from .region import Region, RegionPiece

__all__ = [
    "FusedSolverKernel",
    "PieceBuffer",
    "WORLD_SQUARE",
    "geometry_for_constraint",
    "select_region",
    "subtract_cautious",
]

#: Safety margin (planar cross-product units) added on top of ``EPSILON``
#: when a prefilter classification relies on a *geometric* argument about
#: points the clipper would only construct later (convex combinations of the
#: piece's vertices).  At the solver's coordinate scales (|coords| < ~2e4 km)
#: a cross product reaches ~1e8, so float64 rounding accumulates to ~1e-7 at
#: worst; the margin sits three decades above that, which keeps every
#: margin-gated classification provably identical to what the clipper would
#: compute, while remaining microscopic geometrically (sub-millimetre at
#: kilometre-scale edges).  Pieces inside the band simply run the clipper.
_PREFILTER_MARGIN = 1e-4

#: Shave applied to the centre-distance (apothem) fully-inside radius so the
#: classification stays conservative under floating-point rounding (10 cm at
#: kilometre coordinates, orders of magnitude above the rounding in the
#: distance computation).
_APOTHEM_SHAVE_KM = 1e-4

#: A part is one piece's geometry outside the buffer: (xs, ys, signed_area).
_Part = tuple[np.ndarray, np.ndarray, float]

#: Batched clipping pays NumPy dispatch overhead per pass.  An inclusion
#: pool that spans two or more targets batches from this many rows, or from
#: ``_MIN_BATCH_VERTICES`` total vertices; below both, and for any pool one
#: target owns, the scalar ``clip_convex`` is faster on the small vertex
#: counts the solver sees, and using it is trivially bit-identical (it *is*
#: the reference implementation).
_MIN_BATCH_ROWS = 3
_MIN_BATCH_VERTICES = 150

#: The zero-weight piece every solve starts from: a square of half-side
#: 20,100 km, just over pi * EARTH_RADIUS_KM (~20,015 km), so it contains
#: every planar point the azimuthal-equidistant and equirectangular
#: projections produce.  It depends on nothing, so a solve's only inputs
#: are its constraints and its projection.
WORLD_SQUARE = Polygon.rectangle(BoundingBox(-20100.0, -20100.0, 20100.0, 20100.0))

#: Sentinel returned by ``FusedSolverKernel._assemble_split`` when the
#: constraint left the piece population exactly as it was (no satisfied
#: parts, no sliver drops): the caller keeps the current buffer instead of
#: rebuilding it.
_UNCHANGED: list = ["<unchanged>"]


# --------------------------------------------------------------------------- #
# Scalar helpers shared with the object path
# --------------------------------------------------------------------------- #
def subtract_cautious(piece: Polygon, exclusion: Polygon) -> list[Polygon]:
    """Subtract ``exclusion`` from ``piece`` without fragmenting it.

    When the exclusion lies strictly inside the piece, the classic wedge
    decomposition would shatter the result into one piece per exclusion
    edge; a keyholed polygon keeps it as a single piece with identical
    area and containment behaviour.  Otherwise ``subtract_polygons`` runs:
    wedge decomposition for a convex exclusion, Greiner-Hormann for a
    non-convex one.  This function is the object engine's exclusion and the
    scalar reference of the fused kernel, which classifies bounding boxes
    over pooled rows, keyholes one part at a time, pools the convex wedge
    chains, and calls ``subtract_polygons`` itself for a non-convex
    exclusion.
    """
    piece_box = piece.bounding_box()
    exclusion_box = exclusion.bounding_box()
    if not piece_box.intersects(exclusion_box):
        return [piece]
    # The exclusion can only lie strictly inside the piece when its
    # bounding box does (up to the boundary tolerance of contains_point);
    # rejecting on boxes skips the per-vertex containment scan in the
    # common partial-overlap case without changing the decision.
    tol = 1e-6
    if (
        piece_box.min_x - tol <= exclusion_box.min_x
        and piece_box.min_y - tol <= exclusion_box.min_y
        and exclusion_box.max_x <= piece_box.max_x + tol
        and exclusion_box.max_y <= piece_box.max_y + tol
        and all(piece.contains_point(v) for v in exclusion.vertices)
    ):
        return [piece.with_hole(exclusion)]
    return subtract_polygons(piece, exclusion)


def select_region(
    weights: Sequence[float],
    areas: Sequence[float],
    polygon: Callable[[int], Polygon],
    config,
    mask: Sequence[Polygon],
    diagnostics,
) -> list[RegionPiece]:
    """Pick the estimate region from a solved piece population, then mask it.

    Both engines' results pass through here.  Pieces (piece ``i`` has
    ``weights[i]``, ``areas[i]`` and ``polygon(i)``) are ranked by weight,
    then by smaller area, and taken until the region reaches
    ``config.target_region_area_km2``; past the top weight class a lighter
    piece joins only while the region is under a quarter of that size.

    ``mask`` holds exclusions that are certain (the geographic rings,
    Octant §2.5).  Each is subtracted from every selected piece with
    :func:`subtract_cautious`, and parts under ``config.min_piece_area_km2``
    go.  When nothing is left, the pieces after the selection are masked one
    weight class of the same ranking at a time, and the first class that
    keeps land answers; when none does, the unmasked selection answers.
    ``diagnostics.geo_mask`` records which: ``"kept"``, ``"fallback"`` or
    ``"empty"`` (``None`` without a mask).
    """
    started = time.perf_counter()
    ranked = sorted(
        range(len(weights)), key=lambda i: (weights[i], -areas[i]), reverse=True
    )
    target = config.target_region_area_km2
    selected: list[int] = []
    accumulated = 0.0
    for i in ranked:
        if selected and accumulated >= target:
            break
        if selected and weights[i] < weights[ranked[0]] and accumulated > 0:
            # Past the top weight class, lighter pieces join only while the
            # region is still too small to be meaningful.
            if accumulated >= target / 4.0:
                break
        selected.append(i)
        accumulated += areas[i]
    pieces = [RegionPiece(polygon(i), weights[i]) for i in selected]
    selected_at = time.perf_counter()

    outcome = None
    if mask:
        min_area = config.min_piece_area_km2
        kept = _land(pieces, mask, min_area)
        outcome = "kept"
        if not kept:
            outcome = "empty"
            classes = itertools.groupby(ranked[len(selected) :], key=weights.__getitem__)
            for _weight, group in classes:
                kept = _land(
                    [RegionPiece(polygon(i), weights[i]) for i in group], mask, min_area
                )
                if kept:
                    outcome = "fallback"
                    break
        pieces = kept or pieces

    diagnostics.final_piece_count = len(pieces)
    diagnostics.max_weight = max(weights, default=0.0)
    diagnostics.selected_weight = max((p.weight for p in pieces), default=0.0)
    diagnostics.geo_mask = outcome
    phases = diagnostics.phase_seconds
    phases["select"] = phases.get("select", 0.0) + selected_at - started
    if mask:
        phases["mask"] = phases.get("mask", 0.0) + time.perf_counter() - selected_at
    return pieces


def _land(
    pieces: Sequence[RegionPiece], mask: Sequence[Polygon], min_area: float
) -> list[RegionPiece]:
    """``pieces`` minus every exclusion of ``mask``, each part at its piece's weight."""
    kept: list[RegionPiece] = []
    for piece in pieces:
        parts = [piece.polygon]
        for exclusion in mask:
            parts = [out for part in parts for out in subtract_cautious(part, exclusion)]
        kept.extend(
            RegionPiece(part, piece.weight) for part in parts if part.area_km2() >= min_area
        )
    return kept


def _clean_coords(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Replica of ``Polygon._clean_vertices`` on raw coordinate tuples."""
    if not points:
        return []
    tol = MERGE_TOLERANCE_KM
    cleaned = [points[0]]
    last = points[0]
    for v in points[1:]:
        if not (abs(v[0] - last[0]) <= tol and abs(v[1] - last[1]) <= tol):
            cleaned.append(v)
            last = v
    first = cleaned[0]
    while len(cleaned) > 1 and (
        abs(cleaned[-1][0] - first[0]) <= tol and abs(cleaned[-1][1] - first[1]) <= tol
    ):
        cleaned.pop()
    return cleaned


def _shoelace(points: Sequence[tuple[float, float]]) -> float:
    """Replica of ``Polygon.signed_area`` (sequential accumulation)."""
    total = 0.0
    n = len(points)
    for i in range(n):
        ax, ay = points[i]
        bx, by = points[(i + 1) % n]
        total += ax * by - bx * ay
    return total / 2.0


def _bboxes_from_packed(
    xs: np.ndarray, ys: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Per-piece bounding boxes of a packed coordinate layout.

    ``reduceat`` over the piece offsets in the common case; zero-vertex
    pieces (a target's region emptied mid-solve, which fused chunking can
    hand back in) would run the indices off the packed arrays, so they get
    an inverted box (+inf mins, -inf maxes) -- every bbox intersection test
    rejects them -- and the rest reduce piece by piece.
    """
    counts = np.diff(offsets)
    if len(counts) == 0:
        return np.zeros((0, 4))
    starts = offsets[:-1]
    if len(xs) and bool((counts > 0).all()):
        return np.column_stack(
            [
                np.minimum.reduceat(xs, starts),
                np.minimum.reduceat(ys, starts),
                np.maximum.reduceat(xs, starts),
                np.maximum.reduceat(ys, starts),
            ]
        )
    boxes = np.empty((len(counts), 4))
    boxes[:, 0] = boxes[:, 1] = np.inf
    boxes[:, 2] = boxes[:, 3] = -np.inf
    for i in range(len(counts)):
        lo, hi = int(starts[i]), int(offsets[i + 1])
        if hi > lo:
            boxes[i, 0] = xs[lo:hi].min()
            boxes[i, 1] = ys[lo:hi].min()
            boxes[i, 2] = xs[lo:hi].max()
            boxes[i, 3] = ys[lo:hi].max()
    return boxes


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` marked read-only (a view's flag leaves its base writable)."""
    array.setflags(write=False)
    return array


# --------------------------------------------------------------------------- #
# The flat buffer
# --------------------------------------------------------------------------- #
class PieceBuffer:
    """Struct-of-arrays snapshot of the solver's piece population.

    Two levels: distinct *geometries*, and the weighted *pieces* that point
    at them.  ``xs``/``ys`` hold the packed vertex coordinates of every
    geometry (the *cleaned* coordinates the equivalent :class:`Polygon`
    would store); ``offsets[g]:offsets[g+1]`` delimits geometry ``g``, and
    signed areas, bounding boxes, :meth:`parts` and :meth:`padded` rows are
    cached per geometry.  Piece ``i`` has weight ``weights[i]`` and the
    coordinates of geometry ``geom[i]``.

    Several pieces share one geometry whenever a constraint left a piece
    unchanged -- its satisfied part and its non-exact fallback are the same
    coordinates under two weights, and every later constraint splits both
    the same way -- or clipped two geometries to the same coordinates.  The
    kernel clips each geometry once per step and hands the result to every
    piece that points at it.

    Every array, the cached :meth:`padded` rows included, is made read-only
    on construction: a buffer's arrays are views into a cohort's pooled
    concatenation and its parts are shared by the pieces of later steps,
    so a stray in-place write must raise instead of corrupting answers.
    """

    __slots__ = (
        "xs",
        "ys",
        "offsets",
        "weights",
        "signed_areas",
        "bboxes",
        "geom",
        "_padded",
        "_parts",
    )

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        offsets: np.ndarray,
        weights: np.ndarray,
        signed_areas: np.ndarray,
    ):
        self.xs = _frozen(xs)
        self.ys = _frozen(ys)
        self.offsets = _frozen(offsets)
        self.weights = _frozen(weights)
        self.signed_areas = _frozen(signed_areas)
        self.geom = _frozen(np.arange(len(signed_areas), dtype=np.int64))
        self._padded: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._parts: list[_Part] | None = None
        self.bboxes = _frozen(_bboxes_from_packed(xs, ys, offsets))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_parts(
        cls, parts: Sequence[_Part], weights: Sequence[float]
    ) -> "PieceBuffer":
        """Build a buffer from ``(xs, ys, signed_area)`` parts, one piece each."""
        if not parts:
            empty = np.zeros(0)
            return cls(empty, empty, np.zeros(1, dtype=np.int64), empty, empty)
        counts = np.array([len(p[0]) for p in parts], dtype=np.int64)
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        xs = np.concatenate([p[0] for p in parts])
        ys = np.concatenate([p[1] for p in parts])
        signed = np.array([p[2] for p in parts])
        return cls(xs, ys, offsets, np.asarray(weights, dtype=float), signed)

    @classmethod
    def from_arrays(
        cls,
        xs: np.ndarray,
        ys: np.ndarray,
        offsets: np.ndarray,
        weights: np.ndarray,
        signed_areas: np.ndarray,
        bboxes: np.ndarray,
        geom: np.ndarray,
    ) -> "PieceBuffer":
        """Wrap prebuilt flat arrays without re-deriving the bboxes.

        The fused cohort engine packs every target's post-constraint
        geometries into one pooled concatenation and hands each target its
        slice; the per-geometry boxes were already reduced pooled (bitwise
        the same reductions this class would run itself).
        """
        buffer = cls.__new__(cls)
        buffer.xs = _frozen(xs)
        buffer.ys = _frozen(ys)
        buffer.offsets = _frozen(offsets)
        buffer.weights = _frozen(weights)
        buffer.signed_areas = _frozen(signed_areas)
        buffer.bboxes = _frozen(bboxes)
        buffer.geom = _frozen(geom)
        buffer._padded = None
        buffer._parts = None
        return buffer

    @classmethod
    def from_polygons(cls, pieces: Sequence[tuple[Polygon, float]]) -> "PieceBuffer":
        """Build a buffer from ``(polygon, weight)`` pairs."""
        parts = []
        weights = []
        for polygon, weight in pieces:
            parts.append(_part_from_polygon(polygon))
            weights.append(weight)
        return cls.from_parts(parts, weights)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """The number of pieces."""
        return len(self.weights)

    @property
    def geometry_count(self) -> int:
        """The number of packed geometries."""
        return len(self.signed_areas)

    @property
    def areas(self) -> np.ndarray:
        """Unsigned piece areas (km^2), one per piece."""
        return np.abs(self.signed_areas)[self.geom]

    def parts(self) -> list[_Part]:
        """Every geometry as a part tuple, built once and cached.

        The buffer is immutable, so the same tuple objects serve every
        constraint application; callers use tuple *identity* against this
        list to detect "the parts are exactly the buffer's geometries" (the
        dominant fully-inside case) without touching array bases, and a
        geometry a step leaves whole stays this one object.
        """
        if self._parts is None:
            offsets = self.offsets
            xs = self.xs
            ys = self.ys
            signed = self.signed_areas.tolist()
            self._parts = [
                (xs[offsets[i] : offsets[i + 1]], ys[offsets[i] : offsets[i + 1]], signed[i])
                for i in range(len(signed))
            ]
        return self._parts

    def polygon(self, i: int) -> Polygon:
        """Materialize piece ``i`` as a :class:`Polygon` (identical vertices)."""
        return _polygon_from_part(self.parts()[int(self.geom[i])])

    def padded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The geometries as padded rows ``(X, Y, counts)``, built once.

        The arrays are read-only: they are cached on the (immutable) buffer
        and shared between the per-constraint batched stages.
        """
        if self._padded is None:
            counts = np.diff(self.offsets)
            if len(counts) == 0 or len(self.xs) == 0:
                width = 1
                X = np.zeros((len(counts), width))
                self._padded = (_frozen(X), _frozen(np.zeros_like(X)), _frozen(counts))
            else:
                # Vectorized gather from the packed arrays: lane j of row
                # i reads ``xs[offsets[i] + j]`` -- the very values the
                # per-part copy loop would write, without per-piece Python.
                width = max(int(counts.max()), 1)
                lanes = _lanes(width)[None, :]
                valid = lanes < counts[:, None]
                pos = np.where(valid, self.offsets[:-1, None] + lanes, 0)
                X = np.where(valid, self.xs[pos], 0.0)
                Y = np.where(valid, self.ys[pos], 0.0)
                self._padded = (_frozen(X), _frozen(Y), _frozen(counts))
        return self._padded


# --------------------------------------------------------------------------- #
# Batched row primitives (padded representation)
# --------------------------------------------------------------------------- #
_LANE_CACHE: dict[int, np.ndarray] = {}
_ROW_CACHE: dict[int, np.ndarray] = {}


def _lanes(width: int) -> np.ndarray:
    arr = _LANE_CACHE.get(width)
    if arr is None:
        arr = np.arange(width)
        _LANE_CACHE[width] = arr
    return arr


def _rows_col(height: int) -> np.ndarray:
    arr = _ROW_CACHE.get(height)
    if arr is None:
        arr = np.arange(height)[:, None]
        _ROW_CACHE[height] = arr
    return arr


def _pad_parts(
    parts: Sequence[_Part],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack parts into padded row arrays ``(X, Y, counts, signed)``."""
    counts = np.array([len(p[0]) for p in parts], dtype=np.int64)
    width = int(counts.max()) if len(counts) else 0
    X = np.zeros((len(parts), max(width, 1)))
    Y = np.zeros_like(X)
    for r, (xs, ys, _signed) in enumerate(parts):
        X[r, : len(xs)] = xs
        Y[r, : len(ys)] = ys
    signed = np.array([p[2] for p in parts])
    return X, Y, counts, signed


def _reverse_rows(
    X: np.ndarray, Y: np.ndarray, counts: np.ndarray, flip: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse the first ``counts[r]`` lanes of every flagged row."""
    if not flip.any():
        return X, Y
    R, V = X.shape
    lanes = _lanes(V)
    rev_idx = np.clip(counts[:, None] - 1 - lanes[None, :], 0, V - 1)
    rows = _rows_col(R)
    Xr = np.where(flip[:, None], X[rows, rev_idx], X)
    Yr = np.where(flip[:, None], Y[rows, rev_idx], Y)
    return Xr, Yr


def _clip_pass_rows(
    X: np.ndarray,
    Y: np.ndarray,
    counts: np.ndarray,
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    return_changed: bool = False,
):
    """One Sutherland-Hodgman half-plane pass over all rows at once.

    Mirrors ``clipping._clip_pass`` operand for operand: the sidedness test,
    the intersection parameterization and the emit order (intersection point
    first, then the inside vertex) are identical, so each row's output
    coordinates are bitwise equal to the scalar pass on that row.  Edge
    endpoints are per-row arrays (one edge per row).

    Rows that never cross the edge line are kept verbatim or emptied
    (identical to what the scatter would emit for them); only the crossing
    subset pays the scatter assembly, so a pass touching few rows costs
    little more than the sidedness test.  With ``return_changed`` the
    per-row "vertex sequence changed" mask is appended to the result
    (``None`` when no row crossed), letting callers skip rebuild work for
    verbatim rows.
    """
    R, V = X.shape
    lanes = _lanes(V)[None, :]
    counts_col = counts[:, None]
    valid = lanes < counts_col

    ex = bx - ax
    ey = by - ay
    cross = ex[:, None] * (Y - ay[:, None]) - ey[:, None] * (X - ax[:, None])
    sides = cross >= -EPSILON

    # Predecessor sidedness: lane j-1, wrapping lane 0 to lane count-1.
    prev_sides = np.empty_like(sides)
    prev_sides[:, 1:] = sides[:, :-1]
    prev_sides[:, 0] = sides[_lanes(R), np.maximum(counts - 1, 0)]
    crossing = (sides != prev_sides) & valid

    cross_rows = crossing.any(axis=1)
    row_in = (sides | ~valid).all(axis=1)
    if not cross_rows.any():
        # Every row is entirely on one side: kept rows are returned verbatim
        # (the scalar pass emits the same sequence), outside rows empty.
        result = (X, Y, np.where(row_in, counts, 0))
        return (*result, None) if return_changed else result

    sub = np.nonzero(cross_rows)[0]
    whole = len(sub) == R
    if whole:
        s_crossing = crossing
        s_sides = sides
        s_valid = valid
        sX, sY = X, Y
    else:
        s_crossing = crossing[sub]
        s_sides = sides[sub]
        s_valid = valid[sub]
        sX = X[sub]
        sY = Y[sub]

    emit_vert = s_sides & s_valid
    ri, li = np.nonzero(s_crossing)
    gi = ri if whole else sub[ri]
    pi = np.where(li == 0, counts[gi] - 1, li - 1)
    px = sX[ri, pi]
    py = sY[ri, pi]
    cx = sX[ri, li]
    cy = sY[ri, li]
    e_x = ex[gi]
    e_y = ey[gi]
    a_x = ax[gi]
    a_y = ay[gi]
    rx = cx - px
    ry = cy - py
    denom = rx * e_y - ry * e_x
    ok = ~(np.abs(denom) < 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((a_x - px) * e_y - (a_y - py) * e_x) / denom
        ix = px + rx * t
        iy = py + ry * t

    emit_inter = s_crossing
    if not ok.all():
        emit_inter = s_crossing.copy()
        bad = ~ok
        emit_inter[ri[bad], li[bad]] = False

    per_lane = emit_inter.astype(np.int64) + emit_vert.astype(np.int64)
    ends = np.cumsum(per_lane, axis=1)
    starts = ends - per_lane
    sub_counts = ends[:, -1]

    width = max(int(sub_counts.max()), 1)
    if whole:
        newX = np.zeros((R, width))
        newY = np.zeros_like(newX)
        new_counts = sub_counts
    else:
        # Crossing rows scatter into a zeroed block; the rest carry their
        # verbatim lanes (bitwise what the scatter would re-emit for them).
        if width <= V:
            width = V
            newX = X.copy()
            newY = Y.copy()
        else:
            newX = np.zeros((R, width))
            newY = np.zeros_like(newX)
            newX[:, :V] = X
            newY[:, :V] = Y
        newX[sub, :] = 0.0
        newY[sub, :] = 0.0
        new_counts = np.where(row_in, counts, 0)
        new_counts[sub] = sub_counts
    keep = ok
    if not keep.all():
        ri, li, ix, iy = ri[keep], li[keep], ix[keep], iy[keep]
    gi_keep = ri if whole else sub[ri]
    pos = starts[ri, li]
    newX[gi_keep, pos] = ix
    newY[gi_keep, pos] = iy
    rv, lv = np.nonzero(emit_vert)
    gv = rv if whole else sub[rv]
    pos = starts[rv, lv] + emit_inter[rv, lv]
    newX[gv, pos] = sX[rv, lv]
    newY[gv, pos] = sY[rv, lv]
    if return_changed:
        return newX, newY, new_counts, cross_rows
    return newX, newY, new_counts


def _clean_and_measure_rows(
    X: np.ndarray, Y: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fused vertex cleaning + shoelace measurement for every row.

    Equivalent to per-row ``Polygon`` vertex cleaning followed by the
    sequential shoelace; returns ``(X, Y, counts, signed)``.  Cleaning and
    measurement share their lane/index bookkeeping, which is most of the
    cost on the small matrices the solver sees.
    """
    R, V = X.shape
    if V == 0:
        return X, Y, counts, np.zeros(R)
    lanes = _lanes(V)[None, :]
    counts_col = counts[:, None]
    valid = (lanes < counts_col) & (counts_col > 0)
    # Predecessor/successor coordinates by lane shifting (with the per-row
    # wrap lane patched by a small gather) instead of full index matrices.
    row_ids = _lanes(R)
    last = np.maximum(counts - 1, 0)
    PX = np.empty_like(X)
    PY = np.empty_like(Y)
    PX[:, 1:] = X[:, :-1]
    PY[:, 1:] = Y[:, :-1]
    PX[:, 0] = X[row_ids, last]
    PY[:, 0] = Y[row_ids, last]
    tol = MERGE_TOLERANCE_KM
    dup = (np.abs(X - PX) <= tol) & (np.abs(Y - PY) <= tol) & valid
    dirty = dup.any(axis=1)
    if dirty.any():
        # Cleaning is per-row: only the rows with a near-duplicate pair run
        # the exact scalar replica (bitwise what ``_clean_rows`` does to
        # them); every clean row keeps the vectorized fast path below.  The
        # cohort-pooled runners made the old all-rows slow path expensive:
        # one dirty row anywhere used to drag the whole batch through full
        # index gathers.
        counts = counts.copy()
        for r in np.nonzero(dirty)[0]:
            c = int(counts[r])
            pts = list(zip(X[r, :c].tolist(), Y[r, :c].tolist()))
            cleaned = _clean_coords(pts)
            counts[r] = len(cleaned)
            X[r, :] = 0.0
            Y[r, :] = 0.0
            for j, (x, y) in enumerate(cleaned):
                X[r, j] = x
                Y[r, j] = y
        counts_col = counts[:, None]
        valid = (lanes < counts_col) & (counts_col > 0)
        last = np.maximum(counts - 1, 0)
    NX = np.empty_like(X)
    NY = np.empty_like(Y)
    NX[:, :-1] = X[:, 1:]
    NY[:, :-1] = Y[:, 1:]
    NX[:, -1] = 0.0
    NY[:, -1] = 0.0
    NX[row_ids, last] = X[:, 0]
    NY[row_ids, last] = Y[:, 0]
    terms = np.where(valid, X * NY - NX * Y, 0.0)
    return X, Y, counts, np.cumsum(terms, axis=1)[:, -1] / 2.0


def _finalize_rows(
    X: np.ndarray, Y: np.ndarray, counts: np.ndarray, alive: np.ndarray
) -> list[_Part | None]:
    """Replicate ``_polygon_from_coords`` on every row: clean, validate, measure."""
    alive = alive & (counts >= 3)
    X, Y, counts, signed = _clean_and_measure_rows(X, Y, counts)
    alive = alive & (counts >= 3)
    alive = alive & ~(np.abs(signed) < MIN_SLIVER_AREA_KM2)
    out: list[_Part | None] = []
    for r in range(len(counts)):
        if not alive[r]:
            out.append(None)
            continue
        c = int(counts[r])
        out.append((X[r, :c].copy(), Y[r, :c].copy(), float(signed[r])))
    return out


def _clip_convex_rows_multi(
    parts: Sequence[_Part],
    edge_seqs: Sequence[np.ndarray],
    stats: "_StatsHook | None" = None,
) -> list[_Part | None]:
    """Batched ``clip_convex`` with one convex edge sequence *per row*.

    The fused cohort engine pools pieces of many targets into one runner;
    each row clips against its own target's (pre-filtered) CCW edge table.
    Pass ``k`` applies edge ``k`` of every row whose sequence is that long,
    through :func:`_clip_pass_rows` with per-row edge endpoints -- the
    arithmetic per row is elementwise, hence bitwise equal to the scalar
    ``clip_convex`` pass on that row alone.  Rows die at <3 vertices exactly
    where the scalar loop returns ``None``; survivors go through the shared
    scalar-exact finalization.
    """
    if not parts:
        return []
    seq_lens = np.array([len(s) for s in edge_seqs], dtype=np.int64)
    max_len = int(seq_lens.max()) if len(seq_lens) else 0
    R = len(parts)
    edge_arr = np.zeros((R, max(max_len, 1), 4))
    for r, seq in enumerate(edge_seqs):
        if len(seq):
            edge_arr[r, : len(seq), :] = seq
    X, Y, counts, signed = _pad_parts(parts)
    X, Y = _reverse_rows(X, Y, counts, ~(signed > 0.0))
    for e in range(max_len):
        counts = np.where(counts >= 3, counts, 0)
        act = np.nonzero((counts > 0) & (e < seq_lens))[0]
        if len(act) == 0:
            if not counts.any():
                break
            continue
        if stats is not None:
            stats.vertices_clipped += int(counts[act].sum())
            stats.clip_passes += 1
            stats.rows_clipped += len(act)
        nX, nY, nc, changed = _clip_pass_rows(
            X[act],
            Y[act],
            counts[act],
            edge_arr[act, e, 0],
            edge_arr[act, e, 1],
            edge_arr[act, e, 2],
            edge_arr[act, e, 3],
            return_changed=True,
        )
        counts[act] = nc
        if changed is None:
            # No row crossed: every active row was kept verbatim or
            # emptied; the canonical coordinates are already right.
            continue
        rows = act[changed]
        cX = nX[changed]
        cY = nY[changed]
        if cX.shape[1] > X.shape[1]:
            growX = np.zeros((R, cX.shape[1]))
            growY = np.zeros_like(growX)
            growX[:, : X.shape[1]] = X
            growY[:, : Y.shape[1]] = Y
            X, Y = growX, growY
        X[rows, :] = 0.0
        Y[rows, :] = 0.0
        X[rows, : cX.shape[1]] = cX
        Y[rows, : cY.shape[1]] = cY
        # Clipping shrinks the rows; narrowing the canonical width keeps
        # later passes from dragging the opening padding through every op.
        live_max = int(counts.max()) if counts.any() else 1
        if live_max < X.shape[1] // 2:
            X = np.ascontiguousarray(X[:, :live_max])
            Y = np.ascontiguousarray(Y[:, :live_max])
    counts = np.where(counts >= 3, counts, 0)
    return _finalize_rows(X, Y, counts, counts >= 3)


def _halfplane_chain_run(
    parts: Sequence[_Part],
    edge_arr: np.ndarray,
    seq_lens: np.ndarray,
    stats: "_StatsHook | None" = None,
) -> list[_Part | None]:
    """Batched chains of ``clip_halfplane`` calls (one edge sequence per row).

    Row ``r`` runs the first ``seq_lens[r]`` edges of ``edge_arr[r]``.  Each
    pass replicates one ``clip_halfplane``: re-orient to CCW, clip against
    the row's next edge, then clean/validate/measure exactly like the
    per-pass ``_polygon_from_coords`` the scalar code runs.  Used for the
    wedge decomposition of convex subtraction, where every wedge is an
    independent chain ``[outside(edge_i), inside(edge_0..i-1)]``.  Rows are
    compacted to the active subset per pass, so finished or dead chains cost
    nothing.
    """
    max_len = edge_arr.shape[1]
    R = len(parts)
    X, Y, counts, signed = _pad_parts(parts)
    alive = counts >= 3
    for k in range(max_len):
        act = np.nonzero(alive & (k < seq_lens))[0]
        if len(act) == 0:
            continue
        sx = X[act]
        sy = Y[act]
        sc = counts[act]
        ss = signed[act]
        if stats is not None:
            stats.vertices_clipped += int(sc.sum())
            stats.clip_passes += 1
            stats.rows_clipped += len(act)
        flip = ~(ss > 0.0)
        sx, sy = _reverse_rows(sx, sy, sc, flip)
        nX, nY, nc, changed = _clip_pass_rows(
            sx,
            sy,
            sc,
            edge_arr[act, k, 0],
            edge_arr[act, k, 1],
            edge_arr[act, k, 2],
            edge_arr[act, k, 3],
            return_changed=True,
        )
        nc = np.where(nc >= 3, nc, 0)
        flip_any = bool(flip.any())
        # Rows the pass kept verbatim (no crossing, CCW-stored) need no
        # rebuild: the scalar path would reconstruct the same polygon
        # (cleaning an already-clean ring is the identity and re-measuring
        # the same ring reproduces the same signed area bitwise), so their
        # canonical state stays untouched; only deaths are recorded.  A
        # flipped (CW-stored) row always rebuilds: the scalar
        # clip_halfplane re-emits it in CCW order.
        need = flip | changed if changed is not None else flip
        if changed is None and not flip_any:
            died = nc == 0
            if died.any():
                dead_rows = act[died]
                counts[dead_rows] = 0
                alive[dead_rows] = False
            continue
        kept_died = ~need & (nc == 0)
        if kept_died.any():
            dead_rows = act[kept_died]
            counts[dead_rows] = 0
            alive[dead_rows] = False
        idx = np.nonzero(need)[0]
        if len(idx) == 0:
            continue
        cX, cY, cc, cs = _clean_and_measure_rows(nX[idx], nY[idx], nc[idx])
        good = (cc >= 3) & ~(np.abs(cs) < MIN_SLIVER_AREA_KM2)
        cc = np.where(good, cc, 0)
        rows = act[idx]
        # Write the rebuilt subset back, growing the canonical width if the
        # pass emitted more vertices than any prior row held.
        if cX.shape[1] > X.shape[1]:
            growX = np.zeros((R, cX.shape[1]))
            growY = np.zeros_like(growX)
            growX[:, : X.shape[1]] = X
            growY[:, : Y.shape[1]] = Y
            X, Y = growX, growY
        X[rows, :] = 0.0
        Y[rows, :] = 0.0
        X[rows, : cX.shape[1]] = cX
        Y[rows, : cY.shape[1]] = cY
        counts[rows] = cc
        signed[rows] = cs
        alive[rows] = good
        # Clipping shrinks wedge slices fast; narrowing the canonical arrays
        # to the surviving maximum keeps later passes from dragging the
        # original (possibly huge keyholed) width through every operation.
        live_max = int(counts[alive].max()) if alive.any() else 1
        if live_max < X.shape[1] // 2:
            X = np.ascontiguousarray(X[:, :live_max])
            Y = np.ascontiguousarray(Y[:, :live_max])
    out: list[_Part | None] = []
    for r in range(R):
        if not alive[r]:
            out.append(None)
            continue
        c = int(counts[r])
        out.append((X[r, :c].copy(), Y[r, :c].copy(), float(signed[r])))
    return out


# --------------------------------------------------------------------------- #
# Per-row constraint tables
# --------------------------------------------------------------------------- #
def _stack_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """1-D per-target arrays as one zero-padded table, one row per array.

    A single array is its own one-row table (a view, no padding).
    """
    if len(arrays) == 1:
        return arrays[0][None, :]
    table = np.zeros((len(arrays), max(len(a) for a in arrays)))
    for k, a in enumerate(arrays):
        table[k, : len(a)] = a
    return table


# --------------------------------------------------------------------------- #
# Keyholes (one part at a time)
# --------------------------------------------------------------------------- #
def _contains_all(
    part: _Part, box: np.ndarray, qx: np.ndarray, qy: np.ndarray
) -> bool:
    """Replica of ``all(piece.contains_point(v) for v in queries)``, one part.

    ``contains_point`` returns True either when the even-odd parity says
    inside or when the point sits on the boundary (``include_boundary``);
    parity True inside the box therefore decides True without the
    (expensive) boundary distance scan.  Any other query runs the exact
    ``Polygon.contains_point``, in vertex order like the scalar ``all()``
    scan, and the first False ends it.  ``box`` is the part's bounding box,
    ``qx``/``qy`` the exclusion's vertices in stored order.
    """
    xs, ys, _signed = part
    tol = MERGE_TOLERANCE_KM
    in_box = (
        (box[0] - tol <= qx)
        & (qx <= box[2] + tol)
        & (box[1] - tol <= qy)
        & (qy <= box[3] + tol)
    )
    # Ray casting against every edge (previous vertex -> vertex), one
    # (query, vertex) matrix: the same operands as the scalar loop.
    px = np.roll(xs, 1)
    py = np.roll(ys, 1)
    qyc = qy[:, None]
    crosses = (ys > qyc) != (py > qyc)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = (px - xs) * (qyc - ys) / (py - ys) + xs
    parity = ((crosses & (qx[:, None] < x_int)).sum(axis=1) % 2).astype(bool)
    decided = in_box & parity
    if decided.all():
        return True
    polygon = None
    for q in range(len(qx)):
        if decided[q]:
            continue
        if not in_box[q]:
            return False
        if polygon is None:
            polygon = _polygon_from_part(part)
        if not polygon.contains_point(Point2D(float(qx[q]), float(qy[q]))):
            return False
    return True


def _with_hole_part(
    part: _Part,
    inner_rev_x: np.ndarray,
    inner_rev_y: np.ndarray,
) -> _Part:
    """Replica of ``Polygon.with_hole`` on raw arrays, for one part.

    A CW-stored ring is re-oriented first, exactly like ``ensure_ccw``, so
    the bridge scan runs on the ring the scalar method scans.
    ``inner_rev_*`` are the hole's CCW coordinates already reversed to
    clockwise traversal (precomputed once per constraint).  The bridge is the
    closest (outer vertex, inner vertex) pair compared on squared distance;
    ``np.argmin`` returns the first minimizer in row-major order, matching
    the scalar scan's strict-improvement update order.
    """
    xs, ys, signed = part
    if not signed > 0.0:
        xs, ys = xs[::-1], ys[::-1]
    dox = xs[:, None] - inner_rev_x[None, :]
    doy = ys[:, None] - inner_rev_y[None, :]
    d2 = dox * dox + doy * doy
    oi, ij = divmod(int(np.argmin(d2)), len(inner_rev_x))

    # outer loop ... bridge out ... inner loop ... bridge back, assembled
    # directly into the output buffers.
    no = len(xs)
    ni = len(inner_rev_x)
    comb_x = np.empty(no + ni + 2)
    comb_y = np.empty(no + ni + 2)
    comb_x[: no - oi] = xs[oi:]
    comb_x[no - oi : no] = xs[:oi]
    comb_x[no] = xs[oi]
    comb_x[no + 1 : no + 1 + ni - ij] = inner_rev_x[ij:]
    comb_x[no + 1 + ni - ij : no + 1 + ni] = inner_rev_x[:ij]
    comb_x[no + 1 + ni] = inner_rev_x[ij]
    comb_y[: no - oi] = ys[oi:]
    comb_y[no - oi : no] = ys[:oi]
    comb_y[no] = ys[oi]
    comb_y[no + 1 : no + 1 + ni - ij] = inner_rev_y[ij:]
    comb_y[no + 1 + ni - ij : no + 1 + ni] = inner_rev_y[:ij]
    comb_y[no + 1 + ni] = inner_rev_y[ij]

    # Vertex cleaning: the combined ring has no adjacent near-duplicates in
    # the overwhelming case (the bridge spans outer-to-inner distance);
    # detect vectorized and only fall back to the scalar replica when a
    # duplicate pair exists.
    tol = MERGE_TOLERANCE_KM
    dup = (
        (np.abs(comb_x[1:] - comb_x[:-1]) <= tol)
        & (np.abs(comb_y[1:] - comb_y[:-1]) <= tol)
    ).any() or (
        abs(float(comb_x[0]) - float(comb_x[-1])) <= tol
        and abs(float(comb_y[0]) - float(comb_y[-1])) <= tol
    )
    if dup:
        cleaned = _clean_coords(list(zip(comb_x.tolist(), comb_y.tolist())))
        if len(cleaned) < 3:
            raise ValueError("keyholed polygon degenerated below a triangle")
        comb_x = np.array([p[0] for p in cleaned])
        comb_y = np.array([p[1] for p in cleaned])
    # Sequential shoelace: the wrap term is added after the cumsum scan,
    # matching the scalar loop's accumulation order bitwise.
    main = comb_x[:-1] * comb_y[1:] - comb_x[1:] * comb_y[:-1]
    wrap = float(comb_x[-1]) * float(comb_y[0]) - float(comb_x[0]) * float(comb_y[-1])
    signed_area = (float(main.cumsum()[-1]) + wrap) / 2.0
    return comb_x, comb_y, signed_area


# --------------------------------------------------------------------------- #
# Per-constraint precomputation
# --------------------------------------------------------------------------- #
class _ConstraintGeometry:
    """Everything the kernel precomputes once per planar constraint per solve.

    Every lazy ``ensure_*`` method derives pure functions of the immutable
    constraint polygons, so the tables are the same whenever they are built.
    """

    __slots__ = (
        "weight",
        "label",
        "inclusion",
        "exclusion",
        "inc_convex",
        "inc_edges",
        "inc_bbox",
        "inc_center",
        "inc_apothem2",
        "exc_convex",
        "exc_bbox",
        "exc_qx",
        "exc_qy",
        "exc_rev_x",
        "exc_rev_y",
        "exc_wedge_sides",
        "exc_edges",
        "exc_swapped",
    )

    def __init__(self, constraint) -> None:
        self.weight = constraint.weight
        self.label = constraint.label
        self.inclusion: Polygon | None = constraint.inclusion
        self.exclusion: Polygon | None = constraint.exclusion

        # Cheap, always-needed facts; the heavier derived arrays (edge
        # tables, keyhole rings, prefilter anchors) are computed on first
        # use -- many constraints resolve every piece with the bounding-box
        # tests alone and never touch them.
        inc = self.inclusion
        if inc is not None:
            self.inc_convex = inc.is_convex()
            self.inc_bbox = inc.bounding_box()
        else:
            self.inc_convex = False
            self.inc_bbox = None
        self.inc_edges = None
        self.inc_center = None
        self.inc_apothem2 = 0.0

        exc = self.exclusion
        if exc is not None:
            self.exc_convex = exc.is_convex()
            self.exc_bbox = exc.bounding_box()
        else:
            self.exc_convex = False
            self.exc_bbox = None
        self.exc_qx = None
        self.exc_qy = None
        self.exc_rev_x = None
        self.exc_rev_y = None
        self.exc_wedge_sides = None
        self.exc_edges = None
        self.exc_swapped = None

    def ensure_inclusion_tables(self) -> None:
        """Edge table and centre-distance anchor for the convex inclusion."""
        if self.inc_edges is not None:
            return
        inc = self.inclusion
        coords = _ccw_coords_array(inc)
        nxt = np.roll(coords, -1, axis=0)
        edges = np.column_stack([coords, nxt])
        # Centre-distance prefilter anchor: the centroid is interior for
        # convex polygons; the apothem is its minimum distance to any
        # edge line, shaved for float safety.
        c = inc.centroid()
        self.inc_center = (c.x, c.y)
        ex = nxt[:, 0] - coords[:, 0]
        ey = nxt[:, 1] - coords[:, 1]
        cross_c = ex * (c.y - coords[:, 1]) - ey * (c.x - coords[:, 0])
        lengths = np.hypot(ex, ey)
        with np.errstate(divide="ignore", invalid="ignore"):
            dists = np.where(lengths > 0, cross_c / lengths, np.inf)
        apothem = max(float(dists.min()) - _APOTHEM_SHAVE_KM, 0.0)
        self.inc_apothem2 = apothem * apothem
        self.inc_edges = edges

    def ensure_keyhole_tables(self) -> None:
        """Query points and clockwise ring for keyhole containment/bridging.

        The query points are the exclusion's vertices in stored order (the
        scalar containment scan's order); the ring is its CCW coordinates
        reversed.
        """
        if self.exc_qx is not None:
            return
        exc = self.exclusion
        ccw = _ccw_coords_array(exc)
        rev = ccw[::-1]
        self.exc_rev_x = np.ascontiguousarray(rev[:, 0])
        self.exc_rev_y = np.ascontiguousarray(rev[:, 1])
        coords = np.asarray(exc.coords)
        self.exc_qx = np.ascontiguousarray(coords[:, 0])
        self.exc_qy = np.ascontiguousarray(coords[:, 1])

    def ensure_wedge_tables(self) -> None:
        """Edge tables for the batched wedge decomposition."""
        if self.exc_edges is not None:
            return
        ccw = _ccw_coords_array(self.exclusion)
        nxt = np.roll(ccw, -1, axis=0)
        # keep_left=True edge rows (a -> b) for the wedge inner clips.
        edges = np.column_stack([ccw, nxt])
        # Endpoint-swapped rows (b -> a): the wedge's first clip keeps the
        # *outside* of edge i, which clip_halfplane realizes by swapping the
        # endpoints; precomputed once so chain assembly is a row copy.
        self.exc_swapped = edges[:, [2, 3, 0, 1]]
        # Swapped-edge coefficients for the wedge's first (outside) clip:
        # clip_halfplane(keep_left=False) swaps the endpoints, so the
        # sidedness expression is  (ax-bx)*(y-by) - (ay-by)*(x-bx).
        self.exc_wedge_sides = (
            ccw[:, 0] - nxt[:, 0],  # ex (per wedge)
            ccw[:, 1] - nxt[:, 1],  # ey
            nxt[:, 0],  # reference point bx
            nxt[:, 1],  # by
        )
        self.exc_edges = edges


def _ccw_coords_array(polygon: Polygon) -> np.ndarray:
    """``_ccw_coords`` as an ``(n, 2)`` array (reversed copy when CW)."""
    coords = np.asarray(polygon.coords)
    if polygon.signed_area() > 0.0:
        return coords
    return np.ascontiguousarray(coords[::-1])


def geometry_for_constraint(constraint) -> _ConstraintGeometry:
    """The kernel's precomputed tables for one planar constraint.

    Built fresh for every solve: a cohort's warm reads cycle through more
    realized constraints than a bounded cross-solve cache can hold (see
    ``DESIGN_SOLVER_KERNEL.md``).
    """
    return _ConstraintGeometry(constraint)


class _StatsHook:
    """Mutable counters the batched primitives report into."""

    __slots__ = ("vertices_clipped", "clip_passes", "rows_clipped")

    def __init__(self) -> None:
        self.vertices_clipped = 0
        #: Number of batched half-plane passes executed.
        self.clip_passes = 0
        #: Total rows (piece instances) processed across those passes.
        self.rows_clipped = 0


class _InclusionPlan:
    """Outcome of the convex-inclusion prefilter classification.

    ``out`` holds the per-piece results decided by the prefilters; pieces in
    ``still`` need the actual clipper (their CCW ``parts`` against the
    filtered ``edges`` rows).
    """

    __slots__ = ("out", "still", "parts", "edges")

    def __init__(
        self,
        out: list,
        still: list | tuple = (),
        parts: list | tuple = (),
        edges: np.ndarray | None = None,
    ) -> None:
        self.out = out
        self.still = list(still)
        self.parts = list(parts)
        self.edges = edges


class _ExclusionPlan:
    """Outcome of the exclusion stage for one target and one constraint.

    The target's intermediate parts are flattened; ``owners[fi]`` is the
    piece flat part ``fi`` came from and ``results[fi]`` its kept parts
    (``None`` while pending).
    """

    __slots__ = ("n_pieces", "owners", "results")

    def __init__(self, n_pieces: int) -> None:
        self.n_pieces = n_pieces
        self.owners: list[int] = []
        self.results: list[list | None] = []


def _parts_are_buffer(flat: list, buffer: "PieceBuffer") -> bool:
    """True when the flat parts are exactly the buffer's own geometries.

    Tuple identity against the buffer's cached :meth:`PieceBuffer.parts`
    (the dominant case: every geometry passed the inclusion fully-inside
    and unreversed), with the coordinate-base check as fallback for part
    tuples rebuilt around the buffer's own slices.
    """
    bparts = buffer._parts
    if bparts is not None and all(a is b for a, b in zip(flat, bparts)):
        return True
    return all(p[0].base is buffer.xs for p in flat)


def _distinct_parts(parts: list[_Part]) -> tuple[list[_Part], np.ndarray]:
    """The distinct geometries among ``parts``, and each part's index into them.

    A part object is one geometry however many pieces received it.  Two
    part objects with the same coordinates are one geometry too: distinct
    geometries clipped by one constraint can come out alike (nested pieces
    whose boundaries agree wherever the constraint cuts them).  Candidates
    are the parts with the same signed area, a number each part carries;
    coordinates are compared (as raw bytes, so ``-0.0`` and ``0.0`` stay
    apart) only for those.
    """
    distinct: list[_Part] = []
    geom: list[int] = []
    by_area: dict[float, list[tuple[_Part, int]]] = {}
    for part in parts:
        same = by_area.get(part[2])
        if same is None:
            g = len(distinct)
            by_area[part[2]] = [(part, g)]
            distinct.append(part)
        else:
            for seen, g in same:
                if seen is part or (
                    seen[0].tobytes() == part[0].tobytes()
                    and seen[1].tobytes() == part[1].tobytes()
                ):
                    break
            else:
                g = len(distinct)
                same.append((part, g))
                distinct.append(part)
        geom.append(g)
    return distinct, np.array(geom, dtype=np.int64)


def _assemble_exclusion(plan: _ExclusionPlan) -> list[list]:
    """Regroup per-part results under their owning piece (scalar replica)."""
    out: list[list] = [[] for _ in range(plan.n_pieces)]
    for fi, kept in enumerate(plan.results):
        if kept:
            out[plan.owners[fi]].extend(kept)
    return out


def _row_boxes(X: np.ndarray, Y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-row bounding boxes ``(R, 4)`` of padded rows (valid lanes only)."""
    valid = _lanes(X.shape[1])[None, :] < counts[:, None]
    inf = np.inf
    return np.column_stack(
        [
            np.where(valid, X, inf).min(axis=1),
            np.where(valid, Y, inf).min(axis=1),
            np.where(valid, X, -inf).max(axis=1),
            np.where(valid, Y, -inf).max(axis=1),
        ]
    )


def _bucket_rows(lengths: Sequence[int], floor: int = 16) -> list[list[int]]:
    """Partition row indices into vertex-count buckets for pooled runners.

    Pooled padded matrices are as wide as their widest row; one keyholed
    100-vertex piece of one target would make *every* target's rows pay
    100 lanes of padded arithmetic.  Sorting rows by length and cutting a
    new bucket whenever a row exceeds twice the bucket's opening width
    keeps the padding waste bounded while preserving large pooled batches.
    Per-row results are row-independent, so the partition cannot change any
    output.  A one-target pool of wedge chains is not bucketed: its pieces
    share their history, and the extra calls cost more than the padding
    they save.
    """
    order = sorted(range(len(lengths)), key=lambda i: lengths[i])
    buckets: list[list[int]] = []
    current: list[int] = []
    limit = 0
    for idx in order:
        n = lengths[idx]
        if current and n > limit:
            buckets.append(current)
            current = []
        if not current:
            limit = max(n, floor) * 2
        current.append(idx)
    if current:
        buckets.append(current)
    return buckets


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
class _TargetState:
    """One target's solver state inside a cohort run."""

    __slots__ = (
        "diagnostics",
        "buffer",
        "ordered",
        "cursor",
        "projection",
        "geometry",
        "inside_parts",
        "satisfied",
        "mask",
    )

    def __init__(self, diagnostics, buffer, ordered, projection, mask) -> None:
        self.diagnostics = diagnostics
        self.buffer: PieceBuffer = buffer
        self.ordered = ordered
        self.cursor = 0
        self.projection = projection
        self.geometry: _ConstraintGeometry | None = None
        self.inside_parts: list[list] | None = None
        self.satisfied: list[list] | None = None
        #: Planar exclusions subtracted from the selection (see
        #: :func:`select_region`).
        self.mask = mask


class FusedSolverKernel:
    """Lockstep multi-target weighted accumulation over one cohort.

    The one NumPy implementation of the weighted accumulation; a single
    solve is a cohort of one.  Batch evaluation and high-traffic serving
    are cohort-shaped: many targets solve structurally identical
    weighted-region systems, and on the tiny matrices the solver sees NumPy
    *dispatch* dominates arithmetic.  Every target's constraint sequence
    (ordered by weight, exactly like the object engine) therefore advances
    in lockstep, and the k-th constraint of every active target is applied
    in shared batched passes:

    * the inclusion's bbox rejection runs once over every target's stacked
      piece boxes, with per-row constraint bounds taken by target id (the
      centre-distance and side-matrix classification stay per target);
    * the surviving pieces of two or more targets clip through one pooled
      convex clip per width bucket; one target's pieces clip with the
      scalar ``clip_convex``;
    * the exclusion's bbox / keyhole classification runs over the stacked
      rows of every target; a keyhole-able part is tested and keyholed on
      its own (:func:`_contains_all`, :func:`_with_hole_part`); the wedge
      chains of *all* targets' convex subtractions pool into one
      :func:`_halfplane_chain_run` per width bucket.

    Every stage works on a target's distinct geometries, not its pieces:
    a piece and its unchanged weighted copy point at one geometry
    (:class:`PieceBuffer`), which is classified and clipped once, and
    ``_assemble_split`` hands the geometry's satisfied parts to every piece
    that points at it, in piece order.  ``_rebuild_buffers`` packs each
    distinct geometry once (:func:`_distinct_parts`): a stage that keeps a
    part whole hands back the part object itself, and parts that came out
    equal bit for bit are found by their signed areas.

    Each stage has one decision tree, whatever the cohort width.  What the
    width does choose is how a stage's input is fed to the row primitives:
    a one-target pool broadcasts its constraint tables instead of gathering
    them per row and skips width bucketing, and an inclusion pool that one
    target owns, or that is too small to amortize batched passes, runs the
    scalar ``clip_convex`` (bit-identical by construction).  Pooling never
    changes an answer: every
    pooled primitive is row-independent (elementwise arithmetic, per-row
    scans, scatter by row; padding width and cross-row short-circuits never
    change a row's values), so a target's output does not depend on its
    cohort -- pinned by the cohort suites in
    ``tests/core/test_solver_engines.py``, and against the object engine
    by the engine-equivalence suites.
    """

    def __init__(self, config) -> None:
        self.config = config
        #: Pooled pass counters for the whole cohort run.
        self._hook = _StatsHook()
        self._steps = 0
        self._step_targets = 0

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def solve_many(self, systems: Sequence[tuple]) -> list[Region]:
        """Solve many systems in lockstep.

        ``systems`` holds ``(constraints, projection, diagnostics, mask)``
        per target; ``mask`` lists the planar exclusions
        :func:`select_region` subtracts from the target's selection.
        Returns one :class:`Region` per system, in order.  The diagnostics
        objects receive the per-target solve counters plus the cohort-level
        pass counters.
        """
        states: list[_TargetState] = []
        for constraints, projection, diagnostics, mask in systems:
            diagnostics.engine = "fused"
            buffer = PieceBuffer.from_polygons([(WORLD_SQUARE, 0.0)])
            ordered = sorted(constraints, key=lambda c: c.weight, reverse=True)
            states.append(_TargetState(diagnostics, buffer, ordered, projection, mask))

        while True:
            active = [s for s in states if s.cursor < len(s.ordered)]
            if not active:
                break
            self._apply_step(active)
            for s in active:
                s.cursor += 1

        mean_targets = self._step_targets / self._steps if self._steps else 0.0
        regions: list[Region] = []
        for s in states:
            diag = s.diagnostics
            diag.fused_cohort_targets = len(states)
            diag.fused_pass_count = self._hook.clip_passes
            diag.fused_rows_clipped = self._hook.rows_clipped
            diag.fused_targets_per_pass = mean_targets
            diag.vertices_clipped = self._hook.vertices_clipped
            regions.append(self._finalize(s))
        return regions

    # ------------------------------------------------------------------ #
    # One lockstep step: the k-th constraint of every active target
    # ------------------------------------------------------------------ #
    def _apply_step(self, active: list[_TargetState]) -> None:
        started = time.perf_counter()
        self._steps += 1
        self._step_targets += len(active)
        for s in active:
            s.geometry = geometry_for_constraint(s.ordered[s.cursor])
            diag = s.diagnostics
            diag.step_pieces += len(s.buffer)
            diag.shared_pieces += len(s.buffer) - s.buffer.geometry_count
        geom_done = time.perf_counter()

        # ---- inclusion stage ------------------------------------------ #
        fusable: list[_TargetState] = []
        for s in active:
            geometry = s.geometry
            if geometry.inclusion is None:
                s.inside_parts = [[p] for p in s.buffer.parts()]
            elif not geometry.inc_convex:
                s.inside_parts = _scalar_boolean(
                    s.diagnostics,
                    s.buffer.parts(),
                    intersect_polygons,
                    geometry.inclusion,
                )
            else:
                fusable.append(s)
        if fusable:
            self._fused_inclusion(fusable)
        inc_done = time.perf_counter()

        # ---- exclusion stage ------------------------------------------ #
        excluding: list[_TargetState] = []
        for s in active:
            if s.geometry.exclusion is None:
                s.satisfied = s.inside_parts
            else:
                excluding.append(s)
        if excluding:
            self._fused_exclusion(excluding)
        exc_done = time.perf_counter()

        # ---- per-target assembly and pruning, pooled rebuild ---------- #
        # Pruning runs on the raw part lists before any buffer is built, and
        # the per-target buffer constructions pool into one concatenation
        # plus one set of bbox reductions.
        rebuilds: list[tuple[_TargetState, list, list]] = []
        max_pieces = self.config.max_pieces
        for s in active:
            parts, weights = self._assemble_split(s)
            diag = s.diagnostics
            if not parts:
                # The constraint wiped out everything; skip it rather than
                # collapsing the solution.
                diag.constraints_skipped += 1
                diag.dropped_constraints.append(s.geometry.label)
            elif parts is _UNCHANGED:
                diag.constraints_applied += 1
                diag.max_pieces_seen = max(diag.max_pieces_seen, len(s.buffer))
            else:
                if len(parts) > max_pieces:
                    ranked = sorted(
                        range(len(parts)),
                        key=lambda i: (weights[i], abs(parts[i][2])),
                        reverse=True,
                    )[:max_pieces]
                    parts = [parts[i] for i in ranked]
                    weights = [weights[i] for i in ranked]
                rebuilds.append((s, parts, weights))
                diag.constraints_applied += 1
                diag.max_pieces_seen = max(diag.max_pieces_seen, len(parts))
            s.geometry = None
            s.inside_parts = None
            s.satisfied = None
        if rebuilds:
            self._rebuild_buffers(rebuilds)

        # The cohort step is shared spans; book each target an equal share
        # per stage so per-target phase sums remain meaningful and
        # regressions stay attributable to a phase.  Geometry-table builds
        # and the assembly/rebuild tail both land in "assemble".
        n = len(active)
        inc_share = (inc_done - geom_done) / n
        exc_share = (exc_done - inc_done) / n
        asm_share = ((geom_done - started) + (time.perf_counter() - exc_done)) / n
        for s in active:
            phases = s.diagnostics.phase_seconds
            phases["inclusion"] = phases.get("inclusion", 0.0) + inc_share
            phases["exclusion"] = phases.get("exclusion", 0.0) + exc_share
            phases["assemble"] = phases.get("assemble", 0.0) + asm_share

    def _assemble_split(self, s: _TargetState) -> tuple[list, list]:
        """Weighted parts + fallbacks from one constraint's satisfied sides.

        Mirrors ``WeightedRegionSolver._apply_constraint`` (non-exact
        semantics) piece by piece, in piece order: satisfied parts gain the
        constraint weight, originals remain as the unsatisfied fallback,
        slivers are dropped, and a constraint that satisfied nothing while
        every original survives returns the ``_UNCHANGED`` sentinel.  Each
        piece reads its geometry's satisfied parts, so pieces sharing a
        geometry receive the same part objects.
        """
        buffer = s.buffer
        satisfied = s.satisfied
        min_area = self.config.min_piece_area_km2
        if (
            len(buffer) > 0
            and not any(satisfied)
            and bool((np.abs(buffer.signed_areas) >= min_area).all())
        ):
            # Nothing was satisfied and every original survives the sliver
            # filter unchanged: the caller can keep the current buffer.
            return _UNCHANGED, _UNCHANGED
        parts: list = []
        weights: list[float] = []
        bparts = buffer.parts()
        weight = s.geometry.weight
        for piece_weight, g in zip(buffer.weights.tolist(), buffer.geom.tolist()):
            gained = piece_weight + weight
            for part in satisfied[g]:
                if abs(part[2]) >= min_area:
                    parts.append(part)
                    weights.append(gained)
            # Non-exact mode: the unsatisfied side keeps the original piece.
            original = bparts[g]
            if abs(original[2]) >= min_area:
                parts.append(original)
                weights.append(piece_weight)
        return parts, weights

    def _rebuild_buffers(
        self, rebuilds: list[tuple[_TargetState, list, list]]
    ) -> None:
        """Pooled post-constraint buffer rebuild for many targets.

        One concatenation packs every target's distinct geometries, each
        once (:func:`_distinct_parts`); the per-geometry bounding boxes
        reduce over the pooled arrays (the same spans the per-target
        constructor reduces, so the values are bitwise equal); each target
        receives its slice views and its pieces' geometry indices.
        """
        all_parts: list[_Part] = []
        geoms: list[tuple[np.ndarray, int]] = []
        for _s, parts, _w in rebuilds:
            distinct, geom = _distinct_parts(parts)
            all_parts.extend(distinct)
            geoms.append((geom, len(distinct)))
        counts = np.array([len(p[0]) for p in all_parts], dtype=np.int64)
        offsets = np.zeros(len(all_parts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        xs = np.concatenate([p[0] for p in all_parts])
        ys = np.concatenate([p[1] for p in all_parts])
        signed = np.array([p[2] for p in all_parts])
        bboxes = _bboxes_from_packed(xs, ys, offsets)
        pos = 0
        for (s, _parts, weights), (geom, n) in zip(rebuilds, geoms):
            lo = int(offsets[pos])
            hi = int(offsets[pos + n])
            s.buffer = PieceBuffer.from_arrays(
                xs[lo:hi],
                ys[lo:hi],
                offsets[pos : pos + n + 1] - lo,
                np.asarray(weights, dtype=float),
                signed[pos : pos + n],
                bboxes[pos : pos + n],
                geom,
            )
            pos += n

    # ------------------------------------------------------------------ #
    # Selection (stable scalar sort over cached metrics)
    # ------------------------------------------------------------------ #
    def _finalize(self, s: _TargetState) -> Region:
        """Selection, land mask and diagnostics stamping for one target."""
        buffer = s.buffer
        pieces = select_region(
            buffer.weights.tolist(),
            buffer.areas.tolist(),
            buffer.polygon,
            self.config,
            s.mask,
            s.diagnostics,
        )
        return Region(pieces, s.projection)

    # ------------------------------------------------------------------ #
    # Inclusion: cohort prefilters + convex clip (pooled across targets)
    # ------------------------------------------------------------------ #
    def _fused_inclusion(self, group: list[_TargetState]) -> None:
        # Replica of BoundingBox.intersects(piece_box, clip_box), one pass
        # over every target's pieces with per-row constraint bounds.  Runs
        # before any table construction so constraints whose geometry
        # misses every piece stay as cheap as the box comparisons.
        sizes = [s.buffer.geometry_count for s in group]
        binfo = np.array(
            [
                [
                    s.geometry.inc_bbox.min_x,
                    s.geometry.inc_bbox.min_y,
                    s.geometry.inc_bbox.max_x,
                    s.geometry.inc_bbox.max_y,
                ]
                for s in group
            ]
        )
        if len(group) == 1:
            boxes = group[0].buffer.bboxes
        else:
            boxes = np.vstack([s.buffer.bboxes for s in group])
            binfo = binfo[np.repeat(np.arange(len(group)), sizes)]
        disjoint = (
            (boxes[:, 2] < binfo[:, 0])
            | (binfo[:, 2] < boxes[:, 0])
            | (boxes[:, 3] < binfo[:, 1])
            | (binfo[:, 3] < boxes[:, 1])
        )
        starts = [0, *itertools.accumulate(sizes)]

        plans: list[_InclusionPlan] = []
        pooled_parts: list[_Part] = []
        owner: list[tuple[int, int]] = []
        for t, s in enumerate(group):
            plan = self._inclusion_classify(s, disjoint[starts[t] : starts[t + 1]])
            plans.append(plan)
            pooled_parts.extend(plan.parts)
            owner.extend((t, j) for j in range(len(plan.parts)))
        if not pooled_parts:
            for s, plan in zip(group, plans):
                s.inside_parts = plan.out
            return

        if len({t for t, _j in owner}) == 1 or (
            len(pooled_parts) < _MIN_BATCH_ROWS
            and sum(len(p[0]) for p in pooled_parts) < _MIN_BATCH_VERTICES
        ):
            # One target's pool, or too few (and small enough) pieces to
            # amortize batched passes: run the scalar reference clipper
            # (bit-identical by construction).
            for t, j in owner:
                s, plan = group[t], plans[t]
                piece = plan.still[j]
                clipped = clip_convex(
                    _polygon_from_part(s.buffer.parts()[piece]), s.geometry.inclusion
                )
                if clipped is not None:
                    plan.out[piece] = [_part_from_polygon(clipped)]
        else:
            lengths = [len(p[0]) for p in pooled_parts]
            for rows in _bucket_rows(lengths):
                parts = [pooled_parts[i] for i in rows]
                edge_seqs = [plans[owner[i][0]].edges for i in rows]
                results = _clip_convex_rows_multi(parts, edge_seqs, self._hook)
                for i, result in zip(rows, results):
                    if result is not None:
                        t, j = owner[i]
                        plan = plans[t]
                        plan.out[plan.still[j]] = [result]
        for s, plan in zip(group, plans):
            s.inside_parts = plan.out

    def _inclusion_classify(
        self, s: _TargetState, disjoint: np.ndarray
    ) -> _InclusionPlan:
        """Prefilter classification of one target's geometries (convex inclusion).

        ``disjoint`` (per-geometry bbox rejection) comes from the cohort
        pass; the decisions past it (whole-population fast path, centre
        distance, side matrix) are per target.
        """
        buffer = s.buffer
        geometry = s.geometry
        n = buffer.geometry_count
        diag = s.diagnostics
        diag.prefilter_bbox += int(disjoint.sum())

        out: list[list] = [[] for _ in range(n)]
        candidates = np.nonzero(~disjoint)[0]
        if len(candidates) == 0:
            return _InclusionPlan(out)
        geometry.ensure_inclusion_tables()

        # Whole-population fast path: when every corner of the union
        # bounding box sits within the clip's (shaved) apothem of its
        # centroid, every vertex of every piece does too -- the dominant
        # case for the huge calibrated outer disks -- and each piece is
        # returned unchanged without any per-piece classification.  (No
        # piece can be bbox-disjoint in that situation, so the earlier
        # rejection never fired.)
        cx, cy = geometry.inc_center
        boxes = buffer.bboxes
        ux0 = float(boxes[:, 0].min())
        uy0 = float(boxes[:, 1].min())
        ux1 = float(boxes[:, 2].max())
        uy1 = float(boxes[:, 3].max())
        far = max(
            (ux0 - cx) * (ux0 - cx),
            (ux1 - cx) * (ux1 - cx),
        ) + max(
            (uy0 - cy) * (uy0 - cy),
            (uy1 - cy) * (uy1 - cy),
        )
        if far <= geometry.inc_apothem2:
            diag.prefilter_inside += n
            return _InclusionPlan([[_ccw_part(p)] for p in buffer.parts()])

        # Centre-distance prefilter: every vertex within the (shaved)
        # apothem of the clip centroid is strictly inside every clip edge,
        # so the clipper would return the piece unchanged.
        dx = buffer.xs - cx
        dy = buffer.ys - cy
        d2 = dx * dx + dy * dy
        max_d2 = np.maximum.reduceat(d2, buffer.offsets[:-1])
        center_inside = max_d2[candidates] <= geometry.inc_apothem2

        bparts = buffer.parts()
        undecided: list[int] = []
        for idx, piece in enumerate(candidates):
            if center_inside[idx]:
                out[piece] = [_ccw_part(bparts[piece])]
                diag.prefilter_inside += 1
            else:
                undecided.append(int(piece))
        if not undecided:
            return _InclusionPlan(out)

        # Exact side-matrix classification on the remaining pieces: the
        # sidedness expression matches the clipper's first pass bitwise, so
        # "all vertices inside every edge" reproduces the all-kept fast path
        # and "all vertices outside one edge (with margin)" reproduces the
        # empty result.  One (piece, edge, vertex) tensor covers them all.
        edges = geometry.inc_edges
        ex = edges[:, 2] - edges[:, 0]
        ey = edges[:, 3] - edges[:, 1]
        parts_u = [bparts[i] for i in undecided]
        X, Y, counts, _signed = _pad_parts(parts_u)
        valid = _lanes(X.shape[1])[None, None, :] < counts[:, None, None]
        cross = ex[None, :, None] * (Y[:, None, :] - edges[:, 1][None, :, None]) - ey[
            None, :, None
        ] * (X[:, None, :] - edges[:, 0][None, :, None])
        all_inside = np.where(valid, cross >= -EPSILON, True).all(axis=(1, 2))
        any_edge_out = (
            np.where(valid, cross < -(EPSILON + _PREFILTER_MARGIN), True)
            .all(axis=2)
            .any(axis=1)
        )

        still: list[int] = []
        still_rows: list[int] = []
        for idx, piece in enumerate(undecided):
            if all_inside[idx]:
                out[piece] = [_ccw_part(bparts[piece])]
                diag.prefilter_inside += 1
            elif any_edge_out[idx]:
                diag.prefilter_outside += 1
            else:
                still.append(piece)
                still_rows.append(idx)
        if not still:
            return _InclusionPlan(out)

        diag.pieces_clipped += len(still)

        # Edge filtering: an edge every remaining vertex is inside (with the
        # float-safety margin) clips nothing for any piece -- intermediate
        # clip points are convex combinations of these vertices, so they stay
        # inside too and the pass provably returns its input.  Only edges
        # with geometry near the pieces are run.
        near = (cross[still_rows] < (-EPSILON + _PREFILTER_MARGIN)) & valid[still_rows]
        needed = near.any(axis=(0, 2))

        parts = [_ccw_part(bparts[i]) for i in still]
        return _InclusionPlan(out, still, parts, edges[needed])

    # ------------------------------------------------------------------ #
    # Exclusion: cohort classification, per-part keyholes, pooled wedges
    # ------------------------------------------------------------------ #
    def _fused_exclusion(self, group: list[_TargetState]) -> None:
        """``subtract_cautious`` for every part of every target at once.

        Per part the decision tree matches the scalar code: bounding-box
        disjoint keeps the part, a strictly-contained exclusion keyholes it,
        a convex exclusion is wedge-subtracted, and a non-convex one runs
        the scalar ``subtract_polygons`` on the part.  The bbox/keyhole
        classification and the wedge sidedness run once over the stacked
        rows of every target, with per-row constraint parameters taken by
        target id, and every wedge chain of every target pools into one
        runner; keyholes run one part at a time.
        """
        tol = 1e-6
        plans: list[_ExclusionPlan] = []
        flats: list[list[_Part]] = []
        # Per target: padded rows and per-row boxes.  In the dominant case
        # -- every geometry passed the inclusion fully-inside, so the parts
        # are the buffer's own coordinate slices, unreversed -- the buffer's
        # cached padded rows *and* bounding boxes are reused outright (the
        # padded-row min/max over valid lanes reduces the same vertex set,
        # so the cached values are bitwise equal).
        blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        sizes: list[int] = []
        for s in group:
            plan = _ExclusionPlan(len(s.inside_parts))
            flat: list[_Part] = []
            owners = plan.owners
            for pi, parts in enumerate(s.inside_parts):
                for part in parts:
                    flat.append(part)
                    owners.append(pi)
            plan.results = [None] * len(flat)
            plans.append(plan)
            flats.append(flat)
            sizes.append(len(flat))
            buffer = s.buffer
            if not flat:
                continue
            if len(flat) == buffer.geometry_count and _parts_are_buffer(flat, buffer):
                blocks.append((*buffer.padded(), buffer.bboxes))
            else:
                bX, bY, bc, _signed = _pad_parts(flat)
                blocks.append((bX, bY, bc, _row_boxes(bX, bY, bc)))

        total = sum(sizes)
        if total == 0:
            for s, plan in zip(group, plans):
                s.satisfied = _assemble_exclusion(plan)
            return
        if len(blocks) == 1:
            X, Y, counts, boxes = blocks[0]
        else:
            width = max(b[0].shape[1] for b in blocks)
            X = np.zeros((total, width))
            Y = np.zeros_like(X)
            pos = 0
            for bX, bY, bc, _boxes in blocks:
                X[pos : pos + len(bc), : bX.shape[1]] = bX
                Y[pos : pos + len(bc), : bY.shape[1]] = bY
                pos += len(bc)
            counts = np.concatenate([b[2] for b in blocks])
            boxes = np.vstack([b[3] for b in blocks])
        row_target = np.repeat(np.arange(len(group)), sizes)
        starts = [0, *itertools.accumulate(sizes[:-1])]

        # Replica of piece_box.intersects(exclusion_box) plus the keyhole
        # precondition (exclusion bbox inside the piece bbox, with the
        # scalar path's tolerance), per-row constraint bounds.
        binfo = np.array(
            [
                [
                    s.geometry.exc_bbox.min_x,
                    s.geometry.exc_bbox.min_y,
                    s.geometry.exc_bbox.max_x,
                    s.geometry.exc_bbox.max_y,
                ]
                for s in group
            ]
        )
        # One target's bounds broadcast against every row.
        rb = binfo if len(group) == 1 else binfo[row_target]
        minx, miny, maxx, maxy = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
        disjoint = (
            (maxx < rb[:, 0])
            | (rb[:, 2] < minx)
            | (maxy < rb[:, 1])
            | (rb[:, 3] < miny)
        )
        keyhole_able = (
            ~disjoint
            & (minx - tol <= rb[:, 0])
            & (miny - tol <= rb[:, 1])
            & (rb[:, 2] <= maxx + tol)
            & (rb[:, 3] <= maxy + tol)
        )

        row_target_l = row_target.tolist()
        disjoint_l = disjoint.tolist()
        keyhole_l = keyhole_able.tolist()
        keyhole_rows: list[int] = []
        subtract_rows: list[int] = []
        for row in range(total):
            t = row_target_l[row]
            if disjoint_l[row]:
                plans[t].results[row - starts[t]] = [flats[t][row - starts[t]]]
                group[t].diagnostics.prefilter_bbox += 1
            elif keyhole_l[row]:
                keyhole_rows.append(row)
            else:
                subtract_rows.append(row)

        if keyhole_rows:
            subtract_rows.extend(
                self._fused_keyhole(
                    group, plans, flats, boxes, row_target_l, starts, keyhole_rows
                )
            )
            subtract_rows.sort()

        if subtract_rows:
            convex_rows: list[int] = []
            for row in subtract_rows:
                t = row_target_l[row]
                s = group[t]
                if s.geometry.exc_convex:
                    convex_rows.append(row)
                else:
                    fi = row - starts[t]
                    plans[t].results[fi] = _scalar_boolean(
                        s.diagnostics,
                        [flats[t][fi]],
                        subtract_polygons,
                        s.geometry.exclusion,
                    )[0]
            if convex_rows:
                self._convex_subtract(
                    group, plans, flats, X, Y, counts, row_target, starts, convex_rows
                )
        for s, plan in zip(group, plans):
            s.satisfied = _assemble_exclusion(plan)

    def _fused_keyhole(
        self,
        group: list[_TargetState],
        plans: list[_ExclusionPlan],
        flats: list[list[_Part]],
        boxes: np.ndarray,
        row_target: list[int],
        starts: list[int],
        keyhole_rows: list[int],
    ) -> list[int]:
        """Keyhole stage, one part at a time; returns rows that fall through.

        Pooled containment and bridge tensors were slower than these
        per-part replicas for a cohort of one, the serving shape, and won
        only about 0.08 ms per target in wide cohorts
        (``DESIGN_SOLVER_KERNEL.md``, "Where rows are pooled").
        """
        fall_through: list[int] = []
        for row in keyhole_rows:
            t = row_target[row]
            s = group[t]
            geometry = s.geometry
            geometry.ensure_keyhole_tables()
            fi = row - starts[t]
            part = flats[t][fi]
            if _contains_all(part, boxes[row], geometry.exc_qx, geometry.exc_qy):
                s.diagnostics.prefilter_inside += 1
                plans[t].results[fi] = [
                    _with_hole_part(part, geometry.exc_rev_x, geometry.exc_rev_y)
                ]
            else:
                fall_through.append(row)
        return fall_through

    def _convex_subtract(
        self,
        group: list[_TargetState],
        plans: list[_ExclusionPlan],
        flats: list[list[_Part]],
        X: np.ndarray,
        Y: np.ndarray,
        counts: np.ndarray,
        row_target: np.ndarray,
        starts: list[int],
        rows: list[int],
    ) -> None:
        """``subtract_convex`` for the pooled rows of every target.

        One path at every pool size: the pooled wedge classification, then
        the wedge chains of every target, bucketed by part width.  Every
        latency exclusion has 32 edges, where the scalar decomposition's
        O(edges^2) half-plane passes cost more than the chains' O(edges).
        """
        specs = self._fused_wedges(
            group, plans, flats, X, Y, counts, row_target, starts, rows
        )
        if not specs:
            return
        if len({spec[3] for spec in specs}) == 1:
            # One target's chains share their history: one call, unbucketed.
            buckets = [range(len(specs))]
        else:
            # Bucket chain rows by part width so one big keyholed ring does
            # not widen every wedge's padded lanes.
            buckets = _bucket_rows([len(spec[0][0]) for spec in specs])
        for positions in buckets:
            bucket_specs = [specs[i] for i in positions]
            seq_lens = np.array(
                [1 + len(spec[5]) for spec in bucket_specs], dtype=np.int64
            )
            edge_arr = np.zeros((len(bucket_specs), int(seq_lens.max()), 4))
            for r, (_part, _plan, _fi, t, i, inner) in enumerate(bucket_specs):
                geometry = group[t].geometry
                edge_arr[r, 0, :] = geometry.exc_swapped[i]
                if inner:
                    edge_arr[r, 1 : 1 + len(inner), :] = geometry.exc_edges[inner]
            chained = _halfplane_chain_run(
                [spec[0] for spec in bucket_specs], edge_arr, seq_lens, self._hook
            )
            for spec, piece in zip(bucket_specs, chained):
                if piece is not None:
                    spec[1].results[spec[2]].append(piece)

    def _fused_wedges(
        self,
        group: list[_TargetState],
        plans: list[_ExclusionPlan],
        flats: list[list[_Part]],
        X: np.ndarray,
        Y: np.ndarray,
        counts: np.ndarray,
        row_target: np.ndarray,
        starts: list[int],
        subtract_rows: list[int],
    ) -> list[tuple]:
        """Pooled wedge classification.

        Wedge ``i`` of the decomposition starts by clipping the part to the
        outside of exclusion edge ``i``; when every vertex is inside that
        half-plane (sidedness expression false for all, evaluated with the
        exact swapped-endpoint arithmetic of ``keep_left=False``), the wedge
        yields nothing and is skipped -- the scalar fast path, evaluated for
        all (part, wedge) pairs in one tensor.  Returns one chain spec
        ``(part, plan, fi, target, wedge, inner)`` per surviving (part,
        wedge) pair; the caller buckets them by part width and runs pooled
        chain calls.
        """
        sro = np.asarray(subtract_rows)
        rt = row_target[sro]
        involved = sorted(set(rt.tolist()))
        geoms = [group[t].geometry for t in involved]
        for geometry in geoms:
            geometry.ensure_wedge_tables()
        # Per involved target: the wedge's swapped-endpoint sidedness
        # coefficients (ex, ey, reference point) and the keep-left edge
        # coefficients (ex, ey, start point), one table row per target,
        # expanded to one row per part unless a single target owns them all.
        columns = [[g.exc_wedge_sides[k] for g in geoms] for k in range(4)] + [
            [g.exc_edges[:, 2] - g.exc_edges[:, 0] for g in geoms],
            [g.exc_edges[:, 3] - g.exc_edges[:, 1] for g in geoms],
            [g.exc_edges[:, 0] for g in geoms],
            [g.exc_edges[:, 1] for g in geoms],
        ]
        tables = [_stack_rows(column) for column in columns]
        w_len = np.array([len(g.exc_edges) for g in geoms])
        if len(geoms) > 1:
            slot = np.searchsorted(involved, rt)
            tables = [table[slot] for table in tables]
            w_len = w_len[slot]
        TEX, TEY, TRBX, TRBY, TKEX, TKEY, TKAX, TKAY = (
            table[:, :, None] for table in tables
        )

        sc = counts[sro]
        narrow = max(int(sc.max()), 1)
        sX = X[sro][:, :narrow]
        sY = Y[sro][:, :narrow]
        lane_valid = _lanes(narrow)[None, :] < sc[:, None]
        wedge_valid = _lanes(tables[0].shape[1])[None, :] < w_len[:, None]
        # The swapped-endpoint sidedness of the wedge's outside clip and the
        # keep-left sidedness of its inner clips, with per-row wedge tables.
        side = TEX * (sY[:, None, :] - TRBY) - TEY * (sX[:, None, :] - TRBX)
        nontrivial = (
            ((side >= -EPSILON) & lane_valid[:, None, :]).any(axis=2) & wedge_valid
        )
        # The wedge's inner clips keep the part inside edges 0..i-1; an edge
        # every part vertex is inside (with the float-safety margin) clips
        # nothing -- chain intermediates are convex combinations of the
        # part's vertices -- so it is dropped from that part's sequences.
        side_k = TKEX * (sY[:, None, :] - TKAY) - TKEY * (sX[:, None, :] - TKAX)
        keep_needed = (
            ((side_k < (-EPSILON + _PREFILTER_MARGIN)) & lane_valid[:, None, :]).any(
                axis=2
            )
            & wedge_valid
        )
        # Wedge-kill prefilter: wedge i's chain clips the part to the inside
        # of edges 0..i-1.  When every part vertex lies strictly outside
        # edge j (with the float-safety margin), so does every point of the
        # part's convex hull -- hence every chain intermediate, whose
        # vertices are part vertices or points on part edges -- and the
        # inside(edge_j) clip provably empties the chain.  Any wedge with an
        # earlier all-out edge therefore contributes nothing and is skipped
        # before a single pass runs (the scalar decomposition runs it and
        # gets None; the output set is identical).
        all_out = (
            ((side_k < -(EPSILON + _PREFILTER_MARGIN)) | ~lane_valid[:, None, :]).all(
                axis=2
            )
            & wedge_valid
        )
        prior_out = np.cumsum(all_out, axis=1) - all_out
        nontrivial = nontrivial & ~(prior_out > 0)

        # One pooled nonzero per matrix; rows come out grouped and wedge
        # indices ascending within each row, exactly the per-part scans.
        nz_rows, nz_wedges = (a.tolist() for a in np.nonzero(nontrivial))
        kn_rows, kn_wedges = (a.tolist() for a in np.nonzero(keep_needed))
        rt_l = rt.tolist()
        ni = 0
        kk = 0
        n_nz = len(nz_rows)
        n_kn = len(kn_rows)
        specs: list[tuple[_Part, _ExclusionPlan, int, int, int, list[int]]] = []
        for k, row in enumerate(subtract_rows):
            t = rt_l[k]
            fi = row - starts[t]
            plan = plans[t]
            wedges: list[int] = []
            while ni < n_nz and nz_rows[ni] == k:
                wedges.append(nz_wedges[ni])
                ni += 1
            keeps: list[int] = []
            while kk < n_kn and kn_rows[kk] == k:
                keeps.append(kn_wedges[kk])
                kk += 1
            if not wedges:
                # Every wedge clips to nothing: the part lies within the
                # exclusion and vanishes.
                group[t].diagnostics.prefilter_outside += 1
                plan.results[fi] = []
                continue
            group[t].diagnostics.pieces_clipped += 1
            part = flats[t][fi]
            p = 0
            n_keeps = len(keeps)
            for i in wedges:
                # keeps is ascending, wedges is ascending: advance a pointer
                # instead of refiltering the needed edges per wedge.
                while p < n_keeps and keeps[p] < i:
                    p += 1
                specs.append((part, plan, fi, t, i, keeps[:p]))
            plan.results[fi] = []
        return specs


# --------------------------------------------------------------------------- #
# Part conversions and the scalar fallback
# --------------------------------------------------------------------------- #
def _scalar_boolean(
    diag,
    parts: Sequence[_Part],
    op: Callable[[Polygon, Polygon], list[Polygon]],
    other: Polygon,
) -> list[list]:
    """The object path's ``op(part, other)``, once per distinct geometry.

    The non-convex operands the batched passes do not replicate -- a
    non-convex inclusion, or a non-convex exclusion straddling a part's
    boundary -- run the scalar reference boolean itself, so both engines
    agree by construction.  Every call counts as a fallback.
    """
    out: list[list] = []
    for part in parts:
        diag.fallback_pieces += 1
        diag.fallback_vertices += len(part[0])
        out.append([_part_from_polygon(p) for p in op(_polygon_from_part(part), other)])
    return out


def _part_from_polygon(polygon: Polygon) -> _Part:
    coords = np.asarray(polygon.coords)
    return (
        np.ascontiguousarray(coords[:, 0]),
        np.ascontiguousarray(coords[:, 1]),
        polygon.signed_area(),
    )


def _polygon_from_part(part: _Part) -> Polygon:
    xs, ys, _signed = part
    return Polygon([Point2D(x, y) for x, y in zip(xs.tolist(), ys.tolist())])


def _ccw_part(part: _Part) -> _Part:
    """The part re-oriented CCW, exactly like ``_ccw_coords``.

    The signed area of a reversed ring is recomputed with the sequential
    shoelace (not negated): the object path would build a new ``Polygon``
    from the reversed vertices and measure it, and reversing the summation
    order can differ from sign flipping in the last ulp.
    """
    xs, ys, signed = part
    if signed > 0.0:
        return part
    rx = xs[::-1].copy()
    ry = ys[::-1].copy()
    return rx, ry, _shoelace(list(zip(rx.tolist(), ry.tolist())))
