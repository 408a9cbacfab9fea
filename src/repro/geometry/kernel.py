"""Vectorized flat-buffer solver kernel.

The weighted region solver's object path clips one Python :class:`Polygon`
at a time: every constraint walks every piece through per-vertex Python
loops (Sutherland-Hodgman passes, keyhole containment scans, wedge
subtraction).  This module re-implements that inner loop as NumPy passes
over a struct-of-arrays *flat buffer*:

* :class:`PieceBuffer` packs the whole piece population into contiguous
  coordinate arrays with per-piece offsets, weights, cached signed areas and
  bounding boxes -- the representation is chosen for the dominant operation
  (batched clipping), not for per-piece object ergonomics.
* Batched Sutherland-Hodgman passes clip *all* pieces against a constraint
  edge at once (:func:`_clip_pass_rows`), with scatter-assembled outputs and
  a no-crossing short-circuit for the common pass that changes nothing.
* A bounding-box / centre-distance prefilter classifies pieces as
  fully-inside or fully-outside a convex constraint and skips the clipper
  for them entirely (see ``DESIGN_SOLVER_KERNEL.md`` for the correctness
  argument: every shortcut is taken only when the object path's outcome is
  provably bit-identical).

Bit-level identity with the object path is the design contract, pinned by
``tests/core/test_solver_engines.py``: every vectorized expression mirrors
the scalar arithmetic operand for operand (NumPy float64 elementwise ops are
IEEE-identical to CPython float ops), sequential accumulations use
``np.cumsum`` (a serial scan, matching the scalar ``+=`` loop bitwise), and
any case the vectorized passes cannot reproduce exactly -- non-convex
operands, Greiner-Hormann territory, ambiguous boundary geometry -- falls
back to the very object-path functions it would otherwise replace.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .clipping import (
    _MIN_PIECE_AREA_KM2 as MIN_SLIVER_AREA_KM2,
)
from .clipping import (
    _no_crossing_difference,
    clip_convex,
    intersect_polygons,
    subtract_convex,
    subtract_polygons,
    subtract_polygons_with_hits,
)
from .point import EPSILON, Point2D
from .polygon import MERGE_TOLERANCE_KM, Polygon
from .region import Region, RegionPiece

__all__ = [
    "CohortPieceBuffer",
    "FusedSolverKernel",
    "PieceBuffer",
    "VectorSolverKernel",
    "geometry_for_constraint",
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

#: Batched clipping pays NumPy dispatch overhead per pass; below this many
#: rows the scalar object-path functions are faster on the small vertex
#: counts the solver sees, and using them is trivially bit-identical (they
#: *are* the reference implementation).  Above ``_MIN_BATCH_VERTICES`` total
#: vertices the batch wins regardless of row count: scalar per-vertex loops
#: on large keyholed rings cost milliseconds each.
_MIN_BATCH_ROWS = 3
_MIN_BATCH_VERTICES = 150

#: The scalar wedge decomposition of convex subtraction runs O(edges^2)
#: half-plane passes (wedge ``i`` re-clips against edges ``0..i-1``), while
#: the batched chain runner pays O(edges) passes; past this many exclusion
#: edges the batch wins even for a single small part.
_MAX_SCALAR_WEDGE_EDGES = 8

#: Sentinel returned by ``_apply_constraint`` when the constraint left the
#: piece population exactly as it was (no satisfied parts, no sliver drops):
#: the caller keeps the current buffer instead of rebuilding it.
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
    non-convex one.  This function is the scalar reference the vectorized
    engines replicate (hoisted from ``WeightedRegionSolver``).
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


# --------------------------------------------------------------------------- #
# The flat buffer
# --------------------------------------------------------------------------- #
class PieceBuffer:
    """Struct-of-arrays snapshot of the solver's piece population.

    ``xs``/``ys`` hold the packed vertex coordinates of every piece (the
    *cleaned* coordinates the equivalent :class:`Polygon` would store);
    ``offsets[i]:offsets[i+1]`` delimits piece ``i``.  Weights, signed areas
    and bounding boxes are cached per piece so pruning and selection never
    touch the coordinates.
    """

    __slots__ = (
        "xs",
        "ys",
        "offsets",
        "weights",
        "signed_areas",
        "bboxes",
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
        self.xs = xs
        self.ys = ys
        self.offsets = offsets
        self.weights = weights
        self.signed_areas = signed_areas
        self._padded: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._parts: list[_Part] | None = None
        self.bboxes = _bboxes_from_packed(xs, ys, offsets)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_parts(
        cls, parts: Sequence[_Part], weights: Sequence[float]
    ) -> "PieceBuffer":
        """Build a buffer from ``(xs, ys, signed_area)`` parts."""
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
    ) -> "PieceBuffer":
        """Wrap prebuilt flat arrays without re-deriving the bboxes.

        The fused cohort engine packs every target's post-constraint parts
        into one pooled concatenation and hands each target its slice; the
        per-piece boxes were already reduced pooled (bitwise the same
        reductions this class would run itself).
        """
        buffer = cls.__new__(cls)
        buffer.xs = xs
        buffer.ys = ys
        buffer.offsets = offsets
        buffer.weights = weights
        buffer.signed_areas = signed_areas
        buffer.bboxes = bboxes
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
        return len(self.weights)

    @property
    def areas(self) -> np.ndarray:
        """Unsigned piece areas (km^2)."""
        return np.abs(self.signed_areas)

    def piece_coords(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Packed coordinate views of piece ``i``."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.xs[lo:hi], self.ys[lo:hi]

    def part(self, i: int) -> _Part:
        xs, ys = self.piece_coords(i)
        return xs, ys, float(self.signed_areas[i])

    def parts(self) -> list[_Part]:
        """Every piece as a part tuple, built once and cached.

        The buffer is immutable, so the same tuple objects serve every
        constraint application; callers use tuple *identity* against this
        list to detect "the parts are exactly the buffer's pieces" (the
        dominant fully-inside case) without touching array bases.
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
        return _polygon_from_part(self.part(i))

    def subset(self, indices: Sequence[int]) -> "PieceBuffer":
        """A new buffer holding the given pieces, in the given order."""
        parts = [self.part(i) for i in indices]
        weights = [float(self.weights[i]) for i in indices]
        return PieceBuffer.from_parts(parts, weights)

    def padded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The population as padded rows ``(X, Y, counts)``, built once.

        Treat the arrays as read-only: they are cached on the (immutable)
        buffer and shared between the per-constraint batched stages.
        """
        if self._padded is None:
            counts = np.diff(self.offsets)
            if len(counts) == 0 or len(self.xs) == 0:
                width = 1
                X = np.zeros((len(counts), width))
                self._padded = (X, np.zeros_like(X), counts)
            else:
                # Vectorized gather from the packed arrays: lane j of piece
                # i reads ``xs[offsets[i] + j]`` -- the very values the
                # per-part copy loop would write, without per-piece Python.
                width = max(int(counts.max()), 1)
                lanes = _lanes(width)[None, :]
                valid = lanes < counts[:, None]
                pos = np.where(valid, self.offsets[:-1, None] + lanes, 0)
                X = np.where(valid, self.xs[pos], 0.0)
                Y = np.where(valid, self.ys[pos], 0.0)
                self._padded = (X, Y, counts)
        return self._padded


class CohortPieceBuffer:
    """Segment-indexed stack of many targets' piece populations.

    The fused cohort engine runs its prefilter passes over *every* target's
    pieces at once; this buffer concatenates the per-target
    :class:`PieceBuffer` flat arrays into one cohort-wide layout:

    * ``xs``/``ys`` -- packed vertex coordinates, target-major then
      piece-major (each target's packing is preserved verbatim).
    * ``offsets`` -- per-piece vertex ranges rebased into the cohort arrays.
    * ``segments`` -- target ``t`` owns pieces
      ``segments[t]:segments[t + 1]``.
    * ``piece_target`` -- per-piece owning target id (the broadcast index
      for per-target constraint parameters).
    * ``cursors`` -- snapshot of each target's constraint cursor at build
      time (which constraint of its sequence the lockstep is applying).

    Per-target decisions stay per-target: the cohort arrays only carry the
    row-wise arithmetic, whose values are bitwise what each target's own
    buffer would produce (concatenation never mixes rows).
    """

    __slots__ = (
        "buffers",
        "segments",
        "piece_target",
        "bboxes",
        "cursors",
        "_xs",
        "_ys",
        "_offsets",
        "_weights",
    )

    def __init__(
        self,
        buffers: Sequence[PieceBuffer],
        cursors: Sequence[int] | None = None,
    ):
        self.buffers = list(buffers)
        counts = np.array([len(b) for b in self.buffers], dtype=np.int64)
        self.segments = np.zeros(len(self.buffers) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.segments[1:])
        self.piece_target = np.repeat(np.arange(len(self.buffers)), counts)
        if self.buffers and len(self.piece_target):
            self.bboxes = np.vstack([b.bboxes for b in self.buffers])
        else:
            self.bboxes = np.zeros((0, 4))
        self.cursors = (
            np.asarray(cursors, dtype=np.int64)
            if cursors is not None
            else np.zeros(len(self.buffers), dtype=np.int64)
        )
        # The coordinate stack is built on first use: the per-step fused
        # prefilters read only boxes/segments/ids, so a lockstep step that
        # never touches vertices skips the cohort-wide concatenation.
        self._xs: np.ndarray | None = None
        self._ys: np.ndarray | None = None
        self._offsets: np.ndarray | None = None
        self._weights: np.ndarray | None = None

    def _ensure_coords(self) -> None:
        if self._xs is not None:
            return
        if self.buffers:
            self._xs = np.concatenate([b.xs for b in self.buffers])
            self._ys = np.concatenate([b.ys for b in self.buffers])
            vertex_bases = np.zeros(len(self.buffers), dtype=np.int64)
            np.cumsum(
                [len(b.xs) for b in self.buffers[:-1]], out=vertex_bases[1:]
            )
            self._offsets = np.concatenate(
                [b.offsets[:-1] + base for b, base in zip(self.buffers, vertex_bases)]
                + [np.array([len(self._xs)], dtype=np.int64)]
            )
            self._weights = np.concatenate([b.weights for b in self.buffers])
        else:
            self._xs = np.zeros(0)
            self._ys = np.zeros(0)
            self._offsets = np.zeros(1, dtype=np.int64)
            self._weights = np.zeros(0)

    @property
    def xs(self) -> np.ndarray:
        self._ensure_coords()
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        self._ensure_coords()
        return self._ys

    @property
    def offsets(self) -> np.ndarray:
        self._ensure_coords()
        return self._offsets

    @property
    def weights(self) -> np.ndarray:
        self._ensure_coords()
        return self._weights

    def __len__(self) -> int:
        return len(self.piece_target)

    def target_pieces(self, t: int) -> slice:
        """The cohort piece range owned by target ``t``."""
        return slice(int(self.segments[t]), int(self.segments[t + 1]))

    def broadcast_pieces(self, values: np.ndarray) -> np.ndarray:
        """Per-target values replicated to one entry per cohort piece."""
        return np.asarray(values)[self.piece_target]

    def broadcast_vertices(self, values: np.ndarray) -> np.ndarray:
        """Per-target values replicated to one entry per packed vertex."""
        vertex_counts = np.diff(self.offsets)
        return np.repeat(np.asarray(values)[self.piece_target], vertex_counts)

    def union_boxes(self) -> np.ndarray:
        """Per-target union bounding box ``(T, 4)``.

        Mirrors the per-target ``boxes[:, k].min()/max()`` reductions of the
        vector engine's whole-population fast path; targets with no pieces
        get an inverted box (+inf mins, -inf maxes).
        """
        T = len(self.buffers)
        out = np.empty((T, 4))
        out[:, 0] = out[:, 1] = np.inf
        out[:, 2] = out[:, 3] = -np.inf
        nonempty = np.nonzero(np.diff(self.segments) > 0)[0]
        if len(nonempty):
            starts = self.segments[nonempty]
            out[nonempty, 0] = np.minimum.reduceat(self.bboxes[:, 0], starts)
            out[nonempty, 1] = np.minimum.reduceat(self.bboxes[:, 1], starts)
            out[nonempty, 2] = np.maximum.reduceat(self.bboxes[:, 2], starts)
            out[nonempty, 3] = np.maximum.reduceat(self.bboxes[:, 3], starts)
        return out

    def piece_max(self, per_vertex: np.ndarray) -> np.ndarray:
        """Per-piece maximum of a packed per-vertex metric.

        ``reduceat`` over the piece offsets, hardened against zero-vertex
        pieces (which get ``-inf``); the values per piece are bitwise what
        ``np.maximum.reduceat`` on the owning target's own buffer yields.
        """
        n = len(self)
        if n == 0:
            return np.zeros(0)
        counts = np.diff(self.offsets)
        if len(per_vertex) and bool((counts > 0).all()):
            return np.maximum.reduceat(per_vertex, self.offsets[:-1])
        out = np.full(n, -np.inf)
        for i in range(n):
            lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
            if hi > lo:
                out[i] = per_vertex[lo:hi].max()
        return out


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


def _signed_areas_rows(X: np.ndarray, Y: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shoelace signed area per row, bitwise equal to the scalar loop.

    Terms are accumulated with ``np.cumsum`` -- a sequential scan, so the
    rounding matches ``total += ax*by - bx*ay`` exactly; padding lanes
    contribute an exact ``0.0``.
    """
    R, V = X.shape
    lanes = _lanes(V)[None, :]
    valid = lanes < counts[:, None]
    next_idx = np.where(lanes == counts[:, None] - 1, 0, lanes + 1)
    next_idx = np.where(valid, next_idx, 0)
    rows = _rows_col(R)
    NX = X[rows, next_idx]
    NY = Y[rows, next_idx]
    terms = np.where(valid, X * NY - NX * Y, 0.0)
    if V == 0:
        return np.zeros(R)
    return np.cumsum(terms, axis=1)[:, -1] / 2.0


def _clip_pass_rows(
    X: np.ndarray,
    Y: np.ndarray,
    counts: np.ndarray,
    ax,
    ay,
    bx,
    by,
    return_changed: bool = False,
):
    """One Sutherland-Hodgman half-plane pass over all rows at once.

    Mirrors ``clipping._clip_pass`` operand for operand: the sidedness test,
    the intersection parameterization and the emit order (intersection point
    first, then the inside vertex) are identical, so each row's output
    coordinates are bitwise equal to the scalar pass on that row.  Edge
    endpoints may be scalars (one edge for every row) or per-row arrays.

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

    per_row = not np.isscalar(ax) and getattr(ax, "ndim", 0) > 0
    if per_row:
        exv = (bx - ax)[:, None]
        eyv = (by - ay)[:, None]
        axv = ax[:, None]
        ayv = ay[:, None]
    else:
        exv = bx - ax
        eyv = by - ay
        axv = ax
        ayv = ay

    cross = exv * (Y - ayv) - eyv * (X - axv)
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
    if per_row:
        e_x = (bx - ax)[gi]
        e_y = (by - ay)[gi]
        a_x = ax[gi]
        a_y = ay[gi]
    else:
        e_x = exv
        e_y = eyv
        a_x = axv
        a_y = ayv
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


def _clip_convex_rows(
    parts: Sequence[_Part],
    edges: np.ndarray,
    stats: "_StatsHook | None" = None,
) -> list[_Part | None]:
    """Batched ``clip_convex``: clip every part against the same convex edges.

    ``edges`` is ``(E, 4)`` with rows ``(ax, ay, bx, by)`` in CCW order.
    Rows are pre-oriented CCW exactly like ``_ccw_coords``; a row is dead as
    soon as its vertex count drops below 3 (the scalar loop returns ``None``
    before the next pass); the surviving chains go through the scalar-exact
    finalization (cleaning, sliver threshold).
    """
    X, Y, counts, signed = _pad_parts(parts)
    X, Y = _reverse_rows(X, Y, counts, ~(signed > 0.0))
    for e in range(edges.shape[0]):
        counts = np.where(counts >= 3, counts, 0)
        if not counts.any():
            break
        if stats is not None:
            stats.vertices_clipped += int(counts.sum())
            stats.clip_passes += 1
            stats.rows_clipped += int((counts > 0).sum())
        X, Y, counts = _clip_pass_rows(
            X,
            Y,
            counts,
            float(edges[e, 0]),
            float(edges[e, 1]),
            float(edges[e, 2]),
            float(edges[e, 3]),
        )
    return _finalize_rows(X, Y, counts, counts >= 3)


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
    arithmetic per row is elementwise, hence bitwise equal to the scalar-edge
    pass :func:`_clip_convex_rows` would run on that row alone.  Rows die at
    <3 vertices exactly where the scalar loop returns ``None``; survivors go
    through the shared scalar-exact finalization.
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


def _halfplane_chain_rows(
    parts: Sequence[_Part],
    edge_seqs: Sequence[np.ndarray],
    stats: "_StatsHook | None" = None,
) -> list[_Part | None]:
    """Batched chains of ``clip_halfplane`` calls (one edge sequence per row).

    Each pass replicates one ``clip_halfplane``: re-orient to CCW, clip
    against the row's next edge, then clean/validate/measure exactly like the
    per-pass ``_polygon_from_coords`` the scalar code runs.  Used for the
    wedge decomposition of convex subtraction, where every wedge is an
    independent chain ``[outside(edge_i), inside(edge_0..i-1)]``.  Rows are
    compacted to the active subset per pass, so finished or dead chains cost
    nothing.
    """
    if not parts:
        return []
    seq_lens = np.array([len(s) for s in edge_seqs], dtype=np.int64)
    max_len = int(seq_lens.max())
    R = len(parts)
    edge_arr = np.zeros((R, max_len, 4))
    for r, seq in enumerate(edge_seqs):
        edge_arr[r, : len(seq), :] = seq
    return _halfplane_chain_run(parts, edge_arr, seq_lens, stats)


def _halfplane_chain_run(
    parts: Sequence[_Part],
    edge_arr: np.ndarray,
    seq_lens: np.ndarray,
    stats: "_StatsHook | None" = None,
) -> list[_Part | None]:
    """The pass loop of :func:`_halfplane_chain_rows` on a prebuilt edge array."""
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
# Vectorized containment (keyhole precondition)
# --------------------------------------------------------------------------- #
def _contain_all_queries(
    parts: Sequence[_Part],
    X: np.ndarray,
    Y: np.ndarray,
    counts: np.ndarray,
    boxes: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
) -> np.ndarray:
    """For every part: does it contain *all* query points?

    Vectorized replica of ``all(piece.contains_point(v) for v in queries)``.
    ``contains_point`` returns True either when the even-odd parity says
    inside or when the point sits on the boundary (``include_boundary``);
    parity True therefore decides True without the (expensive) boundary
    distance scan.  Only queries with parity False fall back to the exact
    scalar predicate -- rare, because keyhole exclusions lie strictly inside
    their piece.  ``X/Y/counts/boxes`` are the parts' padded rows and
    bounding boxes, shared with the caller to avoid re-padding.
    """
    P, V = X.shape
    lanes = _lanes(V)[None, :]
    valid = lanes < counts[:, None]
    tol = MERGE_TOLERANCE_KM

    # Bounding-box gate per (part, query).
    in_box = (
        (boxes[:, 0][:, None] - tol <= qx[None, :])
        & (qx[None, :] <= boxes[:, 2][:, None] + tol)
        & (boxes[:, 1][:, None] - tol <= qy[None, :])
        & (qy[None, :] <= boxes[:, 3][:, None] + tol)
    )

    # Even-odd parity, vectorized over (part, query, edge); the crossing
    # predicate and the intersection abscissa mirror the scalar loop.
    rowsP = _rows_col(P)
    prev_idx = np.where(lanes == 0, np.maximum(counts[:, None] - 1, 0), lanes - 1)
    PX = X[rowsP, prev_idx]
    PY = Y[rowsP, prev_idx]
    vy = Y[:, None, :]
    vyj = PY[:, None, :]
    vx = X[:, None, :]
    vxj = PX[:, None, :]
    py = qy[None, :, None]
    px = qx[None, :, None]
    crosses = ((vy > py) != (vyj > py)) & valid[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = (vxj - vx) * (py - vy) / (vyj - vy) + vx
    hits = crosses & (px < x_int)
    parity = (hits.sum(axis=2) % 2).astype(bool)

    decided_true = in_box & parity
    result = np.empty(P, dtype=bool)
    all_true = decided_true.all(axis=1)
    for p in range(P):
        if all_true[p]:
            result[p] = True
            continue
        # Some query has parity False (or sits outside the box): re-check
        # those with the exact scalar predicate, in vertex order like the
        # scalar all() scan.
        polygon = None
        ok = True
        for q in range(len(qx)):
            if decided_true[p, q]:
                continue
            if not in_box[p, q]:
                ok = False
                break
            if polygon is None:
                polygon = _polygon_from_part(parts[p])
            if not polygon.contains_point(Point2D(float(qx[q]), float(qy[q]))):
                ok = False
                break
        result[p] = ok
    return result


def _contain_all_queries_rows(
    parts: Sequence[_Part],
    X: np.ndarray,
    Y: np.ndarray,
    counts: np.ndarray,
    boxes: np.ndarray,
    QX: np.ndarray,
    QY: np.ndarray,
    q_valid: np.ndarray,
) -> np.ndarray:
    """:func:`_contain_all_queries` with one query set *per row*.

    The fused cohort engine pools keyhole candidates of many targets; each
    row's queries are its own target's exclusion vertices, padded to the
    cohort-wide maximum (``q_valid`` masks the padding).  Every parity and
    box expression is elementwise per (part, query), hence bitwise equal to
    the per-target tensor; the exact scalar fallback runs per part exactly
    like the original.
    """
    P, V = X.shape
    lanes = _lanes(V)[None, :]
    valid = lanes < counts[:, None]
    tol = MERGE_TOLERANCE_KM

    in_box = (
        (boxes[:, 0][:, None] - tol <= QX)
        & (QX <= boxes[:, 2][:, None] + tol)
        & (boxes[:, 1][:, None] - tol <= QY)
        & (QY <= boxes[:, 3][:, None] + tol)
    )

    rowsP = _rows_col(P)
    prev_idx = np.where(lanes == 0, np.maximum(counts[:, None] - 1, 0), lanes - 1)
    PX = X[rowsP, prev_idx]
    PY = Y[rowsP, prev_idx]
    vy = Y[:, None, :]
    vyj = PY[:, None, :]
    vx = X[:, None, :]
    vxj = PX[:, None, :]
    py = QY[:, :, None]
    px = QX[:, :, None]
    crosses = ((vy > py) != (vyj > py)) & valid[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = (vxj - vx) * (py - vy) / (vyj - vy) + vx
    hits = crosses & (px < x_int)
    parity = (hits.sum(axis=2) % 2).astype(bool)

    decided_true = (in_box & parity) | ~q_valid
    result = np.empty(P, dtype=bool)
    all_true = decided_true.all(axis=1)
    for p in range(P):
        if all_true[p]:
            result[p] = True
            continue
        polygon = None
        ok = True
        for q in range(QX.shape[1]):
            if not q_valid[p, q] or decided_true[p, q]:
                continue
            if not in_box[p, q]:
                ok = False
                break
            if polygon is None:
                polygon = _polygon_from_part(parts[p])
            if not polygon.contains_point(Point2D(float(QX[p, q]), float(QY[p, q]))):
                ok = False
                break
        result[p] = ok
    return result


# --------------------------------------------------------------------------- #
# Keyhole construction (vectorized bridge search)
# --------------------------------------------------------------------------- #
def _keyhole_bridges(
    X: np.ndarray,
    Y: np.ndarray,
    counts: np.ndarray,
    wanted: np.ndarray,
    inner_rev_x: np.ndarray,
    inner_rev_y: np.ndarray,
) -> list[tuple[int, int] | None]:
    """Bridge vertex pairs for many keyhole parts in one tensor.

    The squared-distance expression matches the scalar scan elementwise and
    ``argmin`` over the row-major flattened (outer, inner) grid reproduces
    its first-minimum tie-breaking; padding lanes are +inf and never win.
    Only rows flagged in ``wanted`` are needed; the result is valid for
    CCW-oriented rings only (callers re-derive for reversed rings).
    """
    bridges: list[tuple[int, int] | None] = [None] * len(counts)
    rows = np.nonzero(wanted)[0]
    if len(rows) == 0:
        return bridges
    # Only the wanted rows pay for the distance tensor.
    wX = X[rows]
    wY = Y[rows]
    wc = counts[rows]
    width = max(int(wc.max()), 1)
    wX = wX[:, :width]
    wY = wY[:, :width]
    valid = _lanes(width)[None, :] < wc[:, None]
    dox = wX[:, :, None] - inner_rev_x[None, None, :]
    doy = wY[:, :, None] - inner_rev_y[None, None, :]
    d2 = dox * dox + doy * doy
    d2 = np.where(valid[:, :, None], d2, np.inf)
    flat_idx = d2.reshape(len(rows), -1).argmin(axis=1)
    ni = len(inner_rev_x)
    for pos, k in enumerate(rows.tolist()):
        bridges[k] = divmod(int(flat_idx[pos]), ni)
    return bridges



def _keyhole_bridges_rows(
    X: np.ndarray,
    Y: np.ndarray,
    counts: np.ndarray,
    wanted: np.ndarray,
    INX: np.ndarray,
    INY: np.ndarray,
    ni_rows: np.ndarray,
) -> list[tuple[int, int] | None]:
    """:func:`_keyhole_bridges` with one inner ring *per row*.

    ``INX``/``INY`` hold each row's clockwise inner-ring coordinates padded
    to the cohort maximum; ``ni_rows`` the real lengths.  Padding lanes are
    +inf and never win the argmin, and because padding only appends entries
    after each real (outer, inner) run, the row-major first-minimum
    tie-break order over the real pairs is exactly the unpadded scan's.
    """
    bridges: list[tuple[int, int] | None] = [None] * len(counts)
    rows = np.nonzero(wanted)[0]
    if len(rows) == 0:
        return bridges
    wX = X[rows]
    wY = Y[rows]
    wc = counts[rows]
    width = max(int(wc.max()), 1)
    wX = wX[:, :width]
    wY = wY[:, :width]
    valid = _lanes(width)[None, :] < wc[:, None]
    inx = INX[rows]
    iny = INY[rows]
    ni_pad = inx.shape[1]
    inner_valid = _lanes(ni_pad)[None, :] < ni_rows[rows][:, None]
    dox = wX[:, :, None] - inx[:, None, :]
    doy = wY[:, :, None] - iny[:, None, :]
    d2 = dox * dox + doy * doy
    d2 = np.where(valid[:, :, None] & inner_valid[:, None, :], d2, np.inf)
    flat_idx = d2.reshape(len(rows), -1).argmin(axis=1)
    for pos, k in enumerate(rows.tolist()):
        bridges[k] = divmod(int(flat_idx[pos]), ni_pad)
    return bridges


def _with_hole_batch_rows(
    kX: np.ndarray,
    kY: np.ndarray,
    kcounts: np.ndarray,
    rows: np.ndarray,
    bridges: Sequence[tuple[int, int] | None],
    INX: np.ndarray,
    INY: np.ndarray,
    ni_rows: np.ndarray,
) -> list[_Part]:
    """:func:`_with_hole_batch` with one inner ring *per row*.

    The ring-combination gather runs with per-row inner lengths (modulus by
    the row's own ``ni``); every emitted coordinate is the same gather the
    per-target batch performs, and the shared clean + sequential-shoelace
    finalization is row-independent.
    """
    P = len(rows)
    counts_r = kcounts[rows]
    ni_r = ni_rows[rows]
    widths = counts_r + ni_r + 2
    W = int(widths.max())
    lanes = _lanes(W)[None, :]
    cnt = counts_r[:, None]
    ni_col = ni_r[:, None]
    oi = np.array([bridges[r][0] for r in rows])[:, None]
    ij = np.array([bridges[r][1] for r in rows])[:, None]

    outer_zone = lanes <= cnt
    outer_src = (oi + lanes) % cnt
    inner_src = (ij + (lanes - cnt - 1)) % ni_col
    rowsP = _rows_col(P)
    gx_outer = kX[rows][rowsP, outer_src]
    gy_outer = kY[rows][rowsP, outer_src]
    inx = INX[rows]
    iny = INY[rows]
    gx_inner = inx[rowsP, inner_src]
    gy_inner = iny[rowsP, inner_src]
    comb_x = np.where(outer_zone, gx_outer, gx_inner)
    comb_y = np.where(outer_zone, gy_outer, gy_inner)

    comb_x, comb_y, widths, signed = _clean_and_measure_rows(comb_x, comb_y, widths)
    out: list[_Part] = []
    for k in range(P):
        w = int(widths[k])
        if w < 3:
            raise ValueError("keyholed polygon degenerated below a triangle")
        out.append((comb_x[k, :w].copy(), comb_y[k, :w].copy(), float(signed[k])))
    return out


def _with_hole_batch(
    kX: np.ndarray,
    kY: np.ndarray,
    kcounts: np.ndarray,
    rows: np.ndarray,
    bridges: Sequence[tuple[int, int] | None],
    inner_rev_x: np.ndarray,
    inner_rev_y: np.ndarray,
) -> list[_Part]:
    """Batched ``Polygon.with_hole`` for many CCW outer rings at once.

    ``rows`` indexes the keyhole subset's padded arrays; every flagged row
    must be CCW-stored with a precomputed bridge.  The combined ring
    ``outer_rot + [outer_rot[0]] + inner_rot + [inner_rot[0]]`` is gathered
    for all rows in one shot (the bridge lanes are the natural wrap of the
    rotation modulus), then cleaned (vectorized detection, scalar fallback)
    and measured with the shared sequential shoelace.
    """
    P = len(rows)
    ni = len(inner_rev_x)
    counts_r = kcounts[rows]
    widths = counts_r + ni + 2
    W = int(widths.max())
    lanes = _lanes(W)[None, :]
    cnt = counts_r[:, None]
    oi = np.array([bridges[r][0] for r in rows])[:, None]
    ij = np.array([bridges[r][1] for r in rows])[:, None]

    # Lane -> source index: lanes [0, cnt] walk the rotated outer ring
    # (lane == cnt wraps back to the bridge vertex), lanes (cnt, cnt+ni+1]
    # walk the rotated inner ring likewise.
    outer_zone = lanes <= cnt
    outer_src = (oi + lanes) % cnt
    inner_src = (ij + (lanes - cnt - 1)) % ni
    rowsP = _rows_col(P)
    gx_outer = kX[rows][rowsP, outer_src]
    gy_outer = kY[rows][rowsP, outer_src]
    gx_inner = inner_rev_x[inner_src]
    gy_inner = inner_rev_y[inner_src]
    comb_x = np.where(outer_zone, gx_outer, gx_inner)
    comb_y = np.where(outer_zone, gy_outer, gy_inner)

    comb_x, comb_y, widths, signed = _clean_and_measure_rows(comb_x, comb_y, widths)
    out: list[_Part] = []
    for k in range(P):
        w = int(widths[k])
        if w < 3:
            raise ValueError("keyholed polygon degenerated below a triangle")
        out.append((comb_x[k, :w].copy(), comb_y[k, :w].copy(), float(signed[k])))
    return out


def _with_hole_part(
    part: _Part,
    inner_rev_x: np.ndarray,
    inner_rev_y: np.ndarray,
    bridge: tuple[int, int] | None = None,
) -> _Part:
    """Replica of ``Polygon.with_hole`` on raw arrays.

    ``inner_rev_*`` are the hole's CCW coordinates already reversed to
    clockwise traversal (precomputed once per constraint).  The bridge is the
    closest (outer vertex, inner vertex) pair compared on squared distance;
    ``np.argmin`` returns the first minimizer in row-major order, matching
    the scalar scan's strict-improvement update order.  Callers that batch
    the bridge search across parts pass the ``(outer, inner)`` vertex pair
    in; it must have been computed on the CCW-oriented ring.
    """
    xs, ys, signed = part
    if not signed > 0.0:
        xs, ys = xs[::-1], ys[::-1]
        bridge = None  # the scan order changes with the ring orientation

    if bridge is None:
        dox = xs[:, None] - inner_rev_x[None, :]
        doy = ys[:, None] - inner_rev_y[None, :]
        d2 = dox * dox + doy * doy
        flat = int(np.argmin(d2))
        oi, ij = divmod(flat, len(inner_rev_x))
    else:
        oi, ij = bridge

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
        "exc_coords",
        "exc_rev_x",
        "exc_rev_y",
        "exc_wedge_sides",
        "exc_edges",
        "exc_swapped",
        "exc_gh_ccw",
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
        self.exc_coords = None
        self.exc_rev_x = None
        self.exc_rev_y = None
        self.exc_wedge_sides = None
        self.exc_edges = None
        self.exc_swapped = None
        self.exc_gh_ccw = None

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
        """Query points and clockwise ring for keyhole containment/bridging."""
        if self.exc_coords is not None:
            return
        exc = self.exclusion
        ccw = _ccw_coords_array(exc)
        rev = ccw[::-1]
        self.exc_rev_x = np.ascontiguousarray(rev[:, 0])
        self.exc_rev_y = np.ascontiguousarray(rev[:, 1])
        self.exc_coords = np.asarray(exc.coords)

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

    def ensure_gh_tables(self) -> None:
        """CCW clip-ring coordinates for the batched Greiner-Hormann pass."""
        if self.exc_gh_ccw is None:
            self.exc_gh_ccw = _ccw_coords_array(self.exclusion)


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


class _InclusionPre:
    """Cohort-precomputed prefilter inputs for one target (fused path).

    Each field is the slice of a cohort-wide array belonging to one target;
    every expression producing them is an elementwise map over that target's
    own rows, so the values are bitwise what the per-target code computes.
    """

    __slots__ = ("disjoint", "union_box", "max_d2")

    def __init__(
        self,
        disjoint: np.ndarray,
        union_box: tuple,
        max_d2: np.ndarray | None = None,
    ) -> None:
        self.disjoint = disjoint
        self.union_box = union_box
        #: Optional precomputed per-piece centre-distance metric; ``None``
        #: lets the classifier compute it lazily (most targets resolve on
        #: the union fast path and never need it).
        self.max_d2 = max_d2


class _InclusionPlan:
    """Outcome of the convex-inclusion prefilter classification.

    ``out`` holds the per-piece results decided by the prefilters; pieces in
    ``still`` need the actual clipper (their CCW ``parts`` against the
    filtered ``edges`` rows).
    """

    __slots__ = ("out", "still", "parts", "edges", "still_verts")

    def __init__(
        self,
        out: list,
        still: list | tuple = (),
        parts: list | tuple = (),
        edges: np.ndarray | None = None,
        still_verts: int = 0,
    ) -> None:
        self.out = out
        self.still = list(still)
        self.parts = list(parts)
        self.edges = edges
        self.still_verts = still_verts


class _ExclusionPlan:
    """Outcome of the exclusion classification for one constraint.

    ``results[fi]`` is the kept parts for flat part ``fi`` (``None`` while
    pending); parts whose wedge chains are still to run are recorded in the
    ``chain_*`` lists so a pooled runner (vector: this target's, fused: the
    whole cohort's) can execute them and distribute back.
    """

    __slots__ = (
        "n_pieces",
        "owners",
        "results",
        "chain_parts",
        "chain_seqs",
        "chain_owner",
    )

    def __init__(self, n_pieces: int) -> None:
        self.n_pieces = n_pieces
        self.owners: list[int] = []
        self.results: list[list | None] = []
        self.chain_parts: list[_Part] = []
        self.chain_seqs: list[np.ndarray] = []
        self.chain_owner: list[int] = []


def _distribute_chained(plan: _ExclusionPlan, chained: Sequence) -> None:
    """Fold pooled wedge-chain results back into the plan's result slots."""
    for fi, piece in zip(plan.chain_owner, chained):
        if piece is not None:
            plan.results[fi].append(piece)


def _parts_are_buffer(flat: list, buffer: "PieceBuffer") -> bool:
    """True when the flat parts are exactly the buffer's own pieces.

    Tuple identity against the buffer's cached :meth:`PieceBuffer.parts`
    (the dominant case: every piece passed the inclusion fully-inside and
    unreversed), with the coordinate-base check as fallback for part tuples
    rebuilt around the buffer's own slices.
    """
    bparts = buffer._parts
    if bparts is not None and all(a is b for a, b in zip(flat, bparts)):
        return True
    return all(p[0].base is buffer.xs for p in flat)


def _assemble_exclusion(plan: _ExclusionPlan) -> list[list]:
    """Regroup per-part results under their owning piece (scalar replica)."""
    out: list[list] = [[] for _ in range(plan.n_pieces)]
    for fi, kept in enumerate(plan.results):
        if kept:
            out[plan.owners[fi]].extend(kept)
    return out


# --------------------------------------------------------------------------- #
# The kernel
# --------------------------------------------------------------------------- #
class VectorSolverKernel:
    """Runs the weighted accumulation on a :class:`PieceBuffer`.

    The kernel owns no policy: constraint ordering, pruning and selection
    replicate the object engine decision for decision (stable Python sorts
    over the buffer's cached weight/area scalars), and every geometric
    shortcut is bit-identity-safe (see module docstring).
    """

    def __init__(self, config, diagnostics) -> None:
        self.config = config
        self.diagnostics = diagnostics
        self._hook = _StatsHook()

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def solve(self, constraints: Sequence, projection, base: Polygon) -> Region:
        diag = self.diagnostics
        buffer = PieceBuffer.from_polygons([(base, 0.0)])
        ordered = sorted(constraints, key=lambda c: c.weight, reverse=True)

        for constraint in ordered:
            started = time.perf_counter()
            # The inclusion/exclusion stages record their own phases inside
            # _apply_constraint; "assemble" is the remainder of this span
            # (geometry precompute, part bookkeeping, prune, buffer build),
            # so the per-phase breakdown sums to the true solve time.
            sub_before = diag.phase_seconds.get("inclusion", 0.0) + diag.phase_seconds.get(
                "exclusion", 0.0
            )
            geometry = geometry_for_constraint(constraint)
            parts, weights = self._apply_constraint(buffer, geometry)
            new_buffer = self._integrate_parts(buffer, geometry, parts, weights)
            self._record_assemble(started, sub_before)
            if new_buffer is not None:
                buffer = new_buffer
        return self._finalize(buffer, projection)

    def _integrate_parts(
        self,
        buffer: PieceBuffer,
        geometry: _ConstraintGeometry,
        parts: list,
        weights: list,
    ) -> PieceBuffer | None:
        """Prune + rebuild bookkeeping after one constraint's split.

        Returns the population to carry forward (the same buffer object on
        the ``_UNCHANGED`` fast path), or ``None`` when the constraint wiped
        out every piece and is skipped.  Shared with the fused driver so the
        diagnostics counters and pruning decisions have one implementation.
        """
        diag = self.diagnostics
        if not parts:
            diag.constraints_skipped += 1
            diag.dropped_constraints.append(geometry.label)
            return None
        if parts is not _UNCHANGED:
            # Prune on the raw part lists before building the buffer, so
            # each constraint pays for exactly one buffer construction.
            # (The _UNCHANGED sentinel keeps the current buffer: pruning is
            # a no-op on an already-pruned population.)
            max_pieces = self.config.max_pieces
            if len(parts) > max_pieces:
                ranked = sorted(
                    range(len(parts)),
                    key=lambda i: (weights[i], abs(parts[i][2])),
                    reverse=True,
                )[:max_pieces]
                parts = [parts[i] for i in ranked]
                weights = [weights[i] for i in ranked]
            buffer = PieceBuffer.from_parts(parts, weights)
        diag.constraints_applied += 1
        diag.max_pieces_seen = max(diag.max_pieces_seen, len(buffer))
        return buffer

    def _finalize(self, buffer: PieceBuffer, projection) -> Region:
        """Selection + diagnostics stamping shared by both drivers."""
        diag = self.diagnostics
        started = time.perf_counter()
        selected = self._select(buffer)
        pieces = [
            RegionPiece(buffer.polygon(i), float(buffer.weights[i])) for i in selected
        ]
        diag.phase_seconds["select"] = (
            diag.phase_seconds.get("select", 0.0) + time.perf_counter() - started
        )
        diag.final_piece_count = len(pieces)
        diag.max_weight = max((float(w) for w in buffer.weights), default=0.0)
        diag.selected_weight = max((p.weight for p in pieces), default=0.0)
        diag.vertices_clipped = self._hook.vertices_clipped
        return Region(pieces, projection)

    def _record_assemble(self, started: float, sub_before: float) -> None:
        """Book the constraint span minus its inclusion/exclusion sub-phases."""
        diag = self.diagnostics
        sub_delta = (
            diag.phase_seconds.get("inclusion", 0.0)
            + diag.phase_seconds.get("exclusion", 0.0)
            - sub_before
        )
        diag.phase_seconds["assemble"] = (
            diag.phase_seconds.get("assemble", 0.0)
            + (time.perf_counter() - started)
            - sub_delta
        )

    # ------------------------------------------------------------------ #
    # One constraint over the whole buffer
    # ------------------------------------------------------------------ #
    def _apply_constraint(
        self, buffer: PieceBuffer, geometry: _ConstraintGeometry
    ) -> tuple[list, list]:
        """Split every piece by the constraint (non-exact semantics).

        Mirrors ``WeightedRegionSolver._apply_constraint``: per piece, the
        satisfied parts gain the constraint weight and the original piece is
        kept as the unsatisfied fallback; slivers below the configured area
        are dropped.
        """
        diag = self.diagnostics
        n = len(buffer)

        if geometry.inclusion is not None:
            started = time.perf_counter()
            inside_parts = self._inclusion_step(buffer, geometry)
            diag.phase_seconds["inclusion"] = (
                diag.phase_seconds.get("inclusion", 0.0) + time.perf_counter() - started
            )
        else:
            inside_parts = [[p] for p in buffer.parts()]

        if geometry.exclusion is not None:
            started = time.perf_counter()
            satisfied = self._exclusion_step(inside_parts, geometry, buffer)
            diag.phase_seconds["exclusion"] = (
                diag.phase_seconds.get("exclusion", 0.0) + time.perf_counter() - started
            )
        else:
            satisfied = inside_parts

        return self._assemble_split(buffer, geometry, satisfied)

    def _assemble_split(
        self,
        buffer: PieceBuffer,
        geometry: _ConstraintGeometry,
        satisfied: list[list],
    ) -> tuple[list, list]:
        """Weighted parts + fallbacks from one constraint's satisfied sides.

        Shared by the vector and fused drivers: satisfied parts gain the
        constraint weight, originals remain as the unsatisfied fallback,
        slivers are dropped, and a constraint that satisfied nothing while
        every original survives returns the ``_UNCHANGED`` sentinel.
        """
        n = len(buffer)
        min_area = self.config.min_piece_area_km2
        if n > 0 and not any(satisfied) and bool((buffer.areas >= min_area).all()):
            # Nothing was satisfied and every original survives the sliver
            # filter unchanged: the caller can keep the current buffer.
            return _UNCHANGED, _UNCHANGED
        parts: list = []
        weights: list[float] = []
        bparts = buffer.parts()
        buffer_weights = buffer.weights.tolist()
        for i in range(n):
            gained = buffer_weights[i] + geometry.weight
            for part in satisfied[i]:
                if abs(part[2]) >= min_area:
                    parts.append(part)
                    weights.append(gained)
            # Non-exact mode: the unsatisfied side keeps the original piece.
            original = bparts[i]
            if abs(original[2]) >= min_area:
                parts.append(original)
                weights.append(buffer_weights[i])
        return parts, weights

    # ------------------------------------------------------------------ #
    # Inclusion: batched convex clip with prefilter
    # ------------------------------------------------------------------ #
    def _inclusion_step(
        self, buffer: PieceBuffer, geometry: _ConstraintGeometry
    ) -> list[list]:
        inclusion = geometry.inclusion
        assert inclusion is not None

        if not geometry.inc_convex:
            # Non-convex inclusion: Greiner-Hormann territory; run the exact
            # object-path boolean per piece.
            diag = self.diagnostics
            out: list[list] = []
            for i in range(len(buffer)):
                diag.fallback_pieces += 1
                diag.fallback_vertices += int(
                    buffer.offsets[i + 1] - buffer.offsets[i]
                )
                polys = intersect_polygons(buffer.polygon(i), inclusion)
                out.append([_part_from_polygon(p) for p in polys])
            return out

        plan = self._inclusion_classify(buffer, geometry)
        if not plan.still:
            return plan.out
        if (
            len(plan.still) < _MIN_BATCH_ROWS
            and plan.still_verts < _MIN_BATCH_VERTICES
        ):
            # Too few (and small enough) pieces to amortize batched passes:
            # run the scalar reference clipper (bit-identical by construction).
            for piece in plan.still:
                clipped = clip_convex(buffer.polygon(piece), inclusion)
                if clipped is not None:
                    plan.out[piece] = [_part_from_polygon(clipped)]
            return plan.out
        results = _clip_convex_rows(plan.parts, plan.edges, self._hook)
        for piece, result in zip(plan.still, results):
            if result is not None:
                plan.out[piece] = [result]
        return plan.out

    def _inclusion_classify(
        self,
        buffer: PieceBuffer,
        geometry: _ConstraintGeometry,
        pre: "_InclusionPre | None" = None,
    ) -> "_InclusionPlan":
        """Prefilter classification of every piece against a convex inclusion.

        Shared by the per-target vector path and the fused cohort path: the
        decisions (bbox rejection, whole-population fast path, centre
        distance, side matrix) are identical line for line; ``pre``
        optionally injects the cohort-computed row arrays (bitwise equal to
        the per-target expressions below, since every one of them is an
        elementwise map over this target's own rows).
        """
        n = len(buffer)
        diag = self.diagnostics
        bbox = geometry.inc_bbox
        boxes = buffer.bboxes

        # Replica of BoundingBox.intersects(piece_box, clip_box).  Runs
        # before any table construction so constraints whose geometry misses
        # every piece stay as cheap as the box comparisons.
        if pre is not None:
            disjoint = pre.disjoint
        else:
            disjoint = (
                (boxes[:, 2] < bbox.min_x)
                | (bbox.max_x < boxes[:, 0])
                | (boxes[:, 3] < bbox.min_y)
                | (bbox.max_y < boxes[:, 1])
            )
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
        if pre is not None:
            ux0, uy0, ux1, uy1 = pre.union_box
        else:
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
        if pre is not None and pre.max_d2 is not None:
            max_d2 = pre.max_d2
        else:
            dx = buffer.xs - cx
            dy = buffer.ys - cy
            d2 = dx * dx + dy * dy
            starts = buffer.offsets[:-1]
            max_d2 = np.maximum.reduceat(d2, starts)
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
        still_verts = int(
            sum(buffer.offsets[i + 1] - buffer.offsets[i] for i in still)
        )

        # Edge filtering: an edge every remaining vertex is inside (with the
        # float-safety margin) clips nothing for any piece -- intermediate
        # clip points are convex combinations of these vertices, so they stay
        # inside too and the pass provably returns its input.  Only edges
        # with geometry near the pieces are run.
        near = (cross[still_rows] < (-EPSILON + _PREFILTER_MARGIN)) & valid[still_rows]
        needed = near.any(axis=(0, 2))

        parts = [_ccw_part(bparts[i]) for i in still]
        return _InclusionPlan(
            out, still, parts, geometry.inc_edges[needed], still_verts
        )

    # ------------------------------------------------------------------ #
    # Exclusion: cautious subtraction with vectorized shortcuts
    # ------------------------------------------------------------------ #
    def _exclusion_step(
        self,
        inside_parts: list[list],
        geometry: _ConstraintGeometry,
        buffer: PieceBuffer | None = None,
    ) -> list[list]:
        """``subtract_cautious`` over every intermediate part, batched.

        Per part the decision tree matches the scalar code: bounding-box
        disjoint keeps the part, a strictly-contained exclusion keyholes it,
        a convex exclusion is wedge-subtracted (all wedges of all parts in
        one batched chain run), a non-convex one rides the batched
        Greiner-Hormann row kernel.
        """
        plan = self._exclusion_classify(inside_parts, geometry, buffer)
        if plan.chain_parts:
            chained = _halfplane_chain_rows(
                plan.chain_parts, plan.chain_seqs, self._hook
            )
            _distribute_chained(plan, chained)
        return _assemble_exclusion(plan)

    def _exclusion_classify(
        self,
        inside_parts: list[list],
        geometry: _ConstraintGeometry,
        buffer: PieceBuffer | None = None,
    ) -> _ExclusionPlan:
        """Classify every part against the exclusion; defer wedge chains.

        Everything except the wedge-chain run happens here (bbox keeps,
        keyhole containment + batch keyholing, batched Greiner-Hormann, the
        small-batch scalar path); parts that need the chain runner are
        recorded on the returned plan.  This is the per-target vector path;
        the fused cohort engine runs the same decision tree over stacked
        cohort rows in ``FusedSolverKernel._fused_exclusion`` (kept as a
        deliberate mirror -- every expression there must match this one).
        """
        exclusion = geometry.exclusion
        assert exclusion is not None
        bbox = geometry.exc_bbox
        diag = self.diagnostics
        tol = 1e-6

        plan = _ExclusionPlan(len(inside_parts))
        flat: list[_Part] = []
        owners = plan.owners
        for pi, parts in enumerate(inside_parts):
            for part in parts:
                flat.append(part)
                owners.append(pi)
        if not flat:
            return plan

        # Pad once; every stage below (bbox classification, containment,
        # wedge sidedness) reads the same row arrays.  In the dominant case
        # -- every piece passed the inclusion fully-inside, so the parts are
        # the buffer's own coordinate slices, unreversed -- the buffer's
        # cached padded rows *and* cached bounding boxes are reused outright
        # (the padded-row min/max over valid lanes reduces the same vertex
        # set, so the cached values are bitwise equal).
        if (
            buffer is not None
            and len(flat) == len(buffer)
            and _parts_are_buffer(flat, buffer)
        ):
            X, Y, counts = buffer.padded()
            minx = buffer.bboxes[:, 0]
            miny = buffer.bboxes[:, 1]
            maxx = buffer.bboxes[:, 2]
            maxy = buffer.bboxes[:, 3]
        else:
            X, Y, counts, _signed = _pad_parts(flat)
            lanes = _lanes(X.shape[1])[None, :]
            valid = lanes < counts[:, None]
            inf = np.inf
            minx = np.where(valid, X, inf).min(axis=1)
            miny = np.where(valid, Y, inf).min(axis=1)
            maxx = np.where(valid, X, -inf).max(axis=1)
            maxy = np.where(valid, Y, -inf).max(axis=1)
        # Replica of piece_box.intersects(exclusion_box).
        disjoint = (
            (maxx < bbox.min_x)
            | (bbox.max_x < minx)
            | (maxy < bbox.min_y)
            | (bbox.max_y < miny)
        )
        # Keyhole precondition: exclusion bbox inside the piece bbox (with
        # the scalar path's tolerance).
        keyhole_able = (
            ~disjoint
            & (minx - tol <= bbox.min_x)
            & (miny - tol <= bbox.min_y)
            & (bbox.max_x <= maxx + tol)
            & (bbox.max_y <= maxy + tol)
        )

        plan.results = [None] * len(flat)
        results = plan.results
        keyhole_idx: list[int] = []
        subtract_idx: list[int] = []
        for fi, part in enumerate(flat):
            if disjoint[fi]:
                results[fi] = [part]
                diag.prefilter_bbox += 1
            elif keyhole_able[fi]:
                keyhole_idx.append(fi)
            else:
                subtract_idx.append(fi)

        if keyhole_idx:
            geometry.ensure_keyhole_tables()
            boxes = np.column_stack([minx, miny, maxx, maxy])
            kX = X[keyhole_idx]
            kY = Y[keyhole_idx]
            kcounts = counts[keyhole_idx]
            contained = _contain_all_queries(
                [flat[fi] for fi in keyhole_idx],
                kX,
                kY,
                kcounts,
                boxes[keyhole_idx],
                geometry.exc_coords[:, 0],
                geometry.exc_coords[:, 1],
            )
            bridges = _keyhole_bridges(
                kX, kY, kcounts, contained, geometry.exc_rev_x, geometry.exc_rev_y
            )
            batch_rows: list[int] = []
            for k, fi in enumerate(keyhole_idx):
                if contained[k]:
                    diag.prefilter_inside += 1
                    if flat[fi][2] > 0.0:
                        batch_rows.append(k)
                    else:
                        # CW-stored ring: the bridge scan order depends on
                        # orientation, so this (rare) part goes scalar.
                        results[fi] = [
                            _with_hole_part(
                                flat[fi], geometry.exc_rev_x, geometry.exc_rev_y
                            )
                        ]
                else:
                    subtract_idx.append(fi)
            if batch_rows:
                keyholed = _with_hole_batch(
                    kX,
                    kY,
                    kcounts,
                    np.asarray(batch_rows),
                    bridges,
                    geometry.exc_rev_x,
                    geometry.exc_rev_y,
                )
                for k, part in zip(batch_rows, keyholed):
                    results[keyhole_idx[k]] = [part]
            subtract_idx.sort()

        if subtract_idx:
            if not geometry.exc_convex:
                # General subtraction (Greiner-Hormann): batched
                # intersection classification, per-piece traversal.
                self._gh_subtract_rows(
                    flat, subtract_idx, X, Y, counts, geometry, plan
                )
            elif (
                len(subtract_idx) < _MIN_BATCH_ROWS
                and int(counts[subtract_idx].sum()) < _MIN_BATCH_VERTICES
                and len(exclusion) <= _MAX_SCALAR_WEDGE_EDGES
            ):
                # Too few parts to amortize the wedge tensors -- and small
                # enough that the scalar per-vertex loops win.  Big keyholed
                # rings batch even alone (a scalar wedge decomposition on a
                # multi-hundred-vertex ring costs milliseconds), and so do
                # many-edged exclusions: the scalar decomposition runs
                # O(edges^2) half-plane passes, the batch O(edges).
                diag.pieces_clipped += len(subtract_idx)
                for fi in subtract_idx:
                    polys = subtract_convex(_polygon_from_part(flat[fi]), exclusion)
                    results[fi] = [_part_from_polygon(p) for p in polys]
            else:
                self._collect_wedge_chains(
                    flat, subtract_idx, X, Y, counts, geometry, plan
                )
        return plan

    def _gh_subtract_rows(
        self,
        flat: list[_Part],
        subtract_idx: list[int],
        flatX: np.ndarray,
        flatY: np.ndarray,
        flat_counts: np.ndarray,
        geometry: _ConstraintGeometry,
        plan: _ExclusionPlan,
    ) -> None:
        """Batched Greiner-Hormann subtraction over many parts at once.

        The O(subject_edges x clip_edges) intersection scan -- the dominant
        cost of ``subtract_polygons`` on the small rings the solver sees --
        runs as one (part, lane, clip-edge) tensor mirroring
        ``segment_intersection`` operand for operand (same ``EPSILON`` gate,
        same in-range predicate, same clamping).  Per part the classification
        then routes exactly like the scalar ``_greiner_hormann`` difference:

        * a degenerate hit anywhere -> the full scalar path (its
          perturb-and-retry loop re-detects the degeneracy identically);
        * no hits -> the scalar no-crossing containment classification;
        * clean hits -> ring assembly and traversal from the precomputed
          intersections (:func:`subtract_polygons_with_hits`), inserted in
          the scalar scan's (subject edge, clip edge) order so the linked
          rings are node-for-node identical.
        """
        diag = self.diagnostics
        exclusion = geometry.exclusion
        geometry.ensure_gh_tables()
        clip = geometry.exc_gh_ccw
        results = plan.results
        idx = np.asarray(subtract_idx)
        counts = flat_counts[idx]
        narrow = max(int(counts.max()), 1)
        X = flatX[idx][:, :narrow]
        Y = flatY[idx][:, :narrow]
        signed = np.array([flat[fi][2] for fi in subtract_idx])
        # The scalar path scans subject.ensure_ccw().vertices; reversal
        # preserves the cleaned vertex list, so flipping the stored rows
        # reproduces those coordinates bitwise.
        X, Y = _reverse_rows(X, Y, counts, ~(signed > 0.0))
        R, V = X.shape
        lanes = _lanes(V)[None, :]
        valid = lanes < counts[:, None]
        rows = _rows_col(R)
        next_idx = np.where(lanes == counts[:, None] - 1, 0, lanes + 1)
        next_idx = np.where(valid, next_idx, 0)
        rx = X[rows, next_idx] - X
        ry = Y[rows, next_idx] - Y
        q1x = clip[:, 0]
        q1y = clip[:, 1]
        q2x = np.roll(clip[:, 0], -1)
        q2y = np.roll(clip[:, 1], -1)
        sx = (q2x - q1x)[None, None, :]
        sy = (q2y - q1y)[None, None, :]
        denom = rx[:, :, None] * sy - ry[:, :, None] * sx
        qpx = q1x[None, None, :] - X[:, :, None]
        qpy = q1y[None, None, :] - Y[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = (qpx * sy - qpy * sx) / denom
            beta = (qpx * ry[:, :, None] - qpy * rx[:, :, None]) / denom
        hit = (
            (np.abs(denom) >= EPSILON)
            & (alpha > -EPSILON)
            & (alpha < 1.0 + EPSILON)
            & (beta > -EPSILON)
            & (beta < 1.0 + EPSILON)
            & valid[:, :, None]
        )
        alpha_c = np.minimum(1.0, np.maximum(0.0, alpha))
        beta_c = np.minimum(1.0, np.maximum(0.0, beta))
        dtol = 1e-7
        degenerate = hit & (
            (alpha_c < dtol)
            | (alpha_c > 1.0 - dtol)
            | (beta_c < dtol)
            | (beta_c > 1.0 - dtol)
        )
        hit_any = hit.any(axis=(1, 2))
        degenerate_any = degenerate.any(axis=(1, 2))
        for k, fi in enumerate(subtract_idx):
            diag.fallback_pieces += 1
            diag.fallback_vertices += int(counts[k])
            subject = _polygon_from_part(flat[fi])
            if degenerate_any[k]:
                polys = subtract_polygons(subject, exclusion)
            elif not hit_any[k]:
                polys = _no_crossing_difference(subject, exclusion)
            else:
                ii, jj = np.nonzero(hit[k])
                hits = [
                    (int(i), int(j), float(alpha_c[k, i, j]), float(beta_c[k, i, j]))
                    for i, j in zip(ii.tolist(), jj.tolist())
                ]
                polys = subtract_polygons_with_hits(subject, exclusion, hits)
            results[fi] = [_part_from_polygon(p) for p in polys]

    def _collect_wedge_chains(
        self,
        flat: list[_Part],
        subtract_idx: list[int],
        flatX: np.ndarray,
        flatY: np.ndarray,
        flat_counts: np.ndarray,
        geometry: _ConstraintGeometry,
        plan: _ExclusionPlan,
    ) -> None:
        """Batched ``subtract_convex`` over many parts at once.

        Wedge ``i`` of the decomposition starts by clipping the part to the
        outside of exclusion edge ``i``; when every vertex is inside that
        half-plane (sidedness expression false for all, evaluated with the
        exact swapped-endpoint arithmetic of ``keep_left=False``), the wedge
        yields nothing and is skipped -- the scalar fast path, evaluated for
        all (part, wedge) pairs in one tensor.  Every surviving pair becomes
        one chain row for the batched half-plane runner.
        """
        diag = self.diagnostics
        geometry.ensure_wedge_tables()
        ex, ey, rbx, rby = geometry.exc_wedge_sides
        X = flatX[subtract_idx]
        Y = flatY[subtract_idx]
        counts = flat_counts[subtract_idx]
        valid = _lanes(X.shape[1])[None, None, :] < counts[:, None, None]
        side = ex[None, :, None] * (Y[:, None, :] - rby[None, :, None]) - ey[
            None, :, None
        ] * (X[:, None, :] - rbx[None, :, None])
        nontrivial = ((side >= -EPSILON) & valid).any(axis=2)

        # The wedge's inner clips keep the part inside edges 0..i-1; an edge
        # every part vertex is inside (with the float-safety margin) clips
        # nothing -- chain intermediates are convex combinations of the
        # part's vertices -- so it is dropped from that part's sequences.
        edges = geometry.exc_edges
        ex_k = edges[:, 2] - edges[:, 0]
        ey_k = edges[:, 3] - edges[:, 1]
        side_k = ex_k[None, :, None] * (Y[:, None, :] - edges[:, 1][None, :, None]) - ey_k[
            None, :, None
        ] * (X[:, None, :] - edges[:, 0][None, :, None])
        keep_needed = ((side_k < (-EPSILON + _PREFILTER_MARGIN)) & valid).any(axis=2)

        # Wedge-kill prefilter (same argument as the fused engine's): wedge
        # i's chain clips the part to the inside of edges 0..i-1.  When every
        # part vertex lies strictly outside edge j (with the float-safety
        # margin), so does every chain intermediate -- convex combinations of
        # the part's vertices -- and the inside(edge_j) clip provably empties
        # the chain, so any wedge after an all-out edge is skipped before a
        # single pass runs (the scalar decomposition runs it and gets None).
        all_out = ((side_k < -(EPSILON + _PREFILTER_MARGIN)) | ~valid).all(axis=2)
        prior_out = np.cumsum(all_out, axis=1) - all_out
        nontrivial = nontrivial & ~(prior_out > 0)

        results = plan.results
        for k, fi in enumerate(subtract_idx):
            wedges = np.nonzero(nontrivial[k])[0]
            if len(wedges) == 0:
                # Every wedge clips to nothing: the part lies within the
                # exclusion and vanishes.
                diag.prefilter_outside += 1
                results[fi] = []
                continue
            diag.pieces_clipped += 1
            inner_needed = np.nonzero(keep_needed[k])[0]
            for i in wedges:
                swapped = np.array(
                    [edges[i, 2], edges[i, 3], edges[i, 0], edges[i, 1]]
                )[None, :]
                inner = inner_needed[inner_needed < i]
                plan.chain_parts.append(flat[fi])
                plan.chain_seqs.append(np.concatenate([swapped, edges[inner]], axis=0))
                plan.chain_owner.append(fi)
            results[fi] = []

    # ------------------------------------------------------------------ #
    # Selection (stable scalar sort over cached metrics)
    # ------------------------------------------------------------------ #
    def _select(self, buffer: PieceBuffer) -> list[int]:
        if len(buffer) == 0:
            return []
        weights = buffer.weights.tolist()
        areas = buffer.areas.tolist()
        ranked = sorted(
            range(len(buffer)), key=lambda i: (weights[i], -areas[i]), reverse=True
        )
        config = self.config
        selected: list[int] = []
        accumulated = 0.0
        top_weight = weights[ranked[0]]
        for i in ranked:
            if selected and accumulated >= config.target_region_area_km2:
                break
            if selected and weights[i] < top_weight and accumulated > 0:
                if accumulated >= config.target_region_area_km2 / 4.0:
                    break
            selected.append(i)
            accumulated += areas[i]
        return selected


def _bucket_rows(lengths: Sequence[int], floor: int = 16) -> list[list[int]]:
    """Partition row indices into vertex-count buckets for pooled runners.

    Pooled padded matrices are as wide as their widest row; one keyholed
    100-vertex piece would make *every* row pay 100 lanes of padded
    arithmetic.  Sorting rows by length and cutting a new bucket whenever a
    row exceeds twice the bucket's opening width keeps the padding waste
    bounded while preserving large pooled batches.  Per-row results are
    row-independent, so the partition cannot change any output.
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
# The fused cohort kernel
# --------------------------------------------------------------------------- #
class _FusedTargetState:
    """One target's solver state inside a fused cohort run."""

    __slots__ = (
        "kernel",
        "buffer",
        "ordered",
        "cursor",
        "projection",
        "geometry",
        "inside_parts",
        "satisfied",
        "plan",
    )

    def __init__(self, kernel, buffer, ordered, projection) -> None:
        self.kernel: VectorSolverKernel = kernel
        self.buffer: PieceBuffer = buffer
        self.ordered = ordered
        self.cursor = 0
        self.projection = projection
        self.geometry: _ConstraintGeometry | None = None
        self.inside_parts: list[list] | None = None
        self.satisfied: list[list] | None = None
        self.plan = None


class FusedSolverKernel:
    """Lockstep multi-target weighted accumulation over one cohort.

    Batch evaluation and high-traffic serving are cohort-shaped: many
    targets solve structurally identical weighted-region systems, and after
    the PR 2 vectorization each target still pays NumPy *dispatch* per clip
    pass -- on the tiny matrices the solver sees, dispatch dominates
    arithmetic.  This kernel adds the missing *target* axis: every target's
    constraint sequence (ordered by weight, exactly like the vector engine)
    advances in lockstep, and the k-th constraint of every active target is
    applied in shared batched passes:

    * the bbox / centre-distance prefilters run once over a
      :class:`CohortPieceBuffer` stacking all targets' pieces, with
      per-row constraint parameters (boxes, centres) broadcast by target id;
    * the surviving pieces of *all* targets clip through a single
      :func:`_clip_convex_rows_multi` call with per-row edge tables;
    * the wedge chains of *all* targets' convex subtractions pool into one
      :func:`_halfplane_chain_rows` run.

    Per-target decision logic is not duplicated: classification, part
    assembly, pruning and selection are the very
    :class:`VectorSolverKernel` methods, driven per target.  Bit-identity
    with ``engine="vector"`` follows because every pooled primitive is
    row-independent (elementwise arithmetic, per-row scans, scatter by row;
    padding width and cross-row short-circuits never change a row's
    values), so concatenating targets' rows into one call cannot change any
    row's output -- pinned by the cohort equivalence suite in
    ``tests/core/test_solver_engines.py``.
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

        ``systems`` holds ``(constraints, projection, base, diagnostics)``
        per target; returns one :class:`Region` per system, in order.  The
        diagnostics objects receive the same counters the vector engine
        records plus the cohort-level fused pass counters.
        """
        states: list[_FusedTargetState] = []
        for constraints, projection, base, diagnostics in systems:
            diagnostics.engine = "fused"
            kernel = VectorSolverKernel(self.config, diagnostics)
            buffer = PieceBuffer.from_polygons([(base, 0.0)])
            ordered = sorted(constraints, key=lambda c: c.weight, reverse=True)
            states.append(_FusedTargetState(kernel, buffer, ordered, projection))

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
            diag = s.kernel.diagnostics
            diag.fused_cohort_targets = len(states)
            diag.fused_pass_count = self._hook.clip_passes
            diag.fused_rows_clipped = self._hook.rows_clipped
            diag.fused_targets_per_pass = mean_targets
            regions.append(s.kernel._finalize(s.buffer, s.projection))
        return regions

    # ------------------------------------------------------------------ #
    # One lockstep step: the k-th constraint of every active target
    # ------------------------------------------------------------------ #
    def _apply_step(self, active: list[_FusedTargetState]) -> None:
        started = time.perf_counter()
        self._steps += 1
        self._step_targets += len(active)
        for s in active:
            s.geometry = geometry_for_constraint(s.ordered[s.cursor])
        geom_done = time.perf_counter()

        # ---- inclusion stage ------------------------------------------ #
        fusable: list[_FusedTargetState] = []
        for s in active:
            geometry = s.geometry
            if geometry.inclusion is None:
                s.inside_parts = [[p] for p in s.buffer.parts()]
            elif not geometry.inc_convex:
                # Greiner-Hormann territory: the per-target object fallback,
                # exactly like the vector engine.
                s.inside_parts = s.kernel._inclusion_step(s.buffer, geometry)
            else:
                fusable.append(s)
        if fusable:
            self._fused_inclusion(fusable)
        inc_done = time.perf_counter()

        # ---- exclusion stage ------------------------------------------ #
        excluding: list[_FusedTargetState] = []
        for s in active:
            if s.geometry.exclusion is None:
                s.satisfied = s.inside_parts
            else:
                excluding.append(s)
        if excluding:
            self._fused_exclusion(excluding)
        exc_done = time.perf_counter()

        # ---- per-target assembly and pruning, pooled rebuild ---------- #
        # Mirrors VectorSolverKernel._integrate_parts decision for decision,
        # but the per-target ``PieceBuffer.from_parts`` constructions pool
        # into one cohort concatenation + one set of bbox reductions.
        rebuilds: list[tuple[_FusedTargetState, list, list]] = []
        max_pieces = self.config.max_pieces
        for s in active:
            parts, weights = s.kernel._assemble_split(
                s.buffer, s.geometry, s.satisfied
            )
            diag = s.kernel.diagnostics
            if not parts:
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
            s.plan = None
        if rebuilds:
            self._rebuild_buffers(rebuilds)

        # The cohort step is shared spans; book each target an equal share
        # per stage so per-target phase sums remain meaningful and
        # regressions stay attributable to a phase, like the vector engine.
        # Geometry-table builds and the assembly/rebuild tail both land in
        # "assemble" (the vector engine's remainder bucket).
        n = len(active)
        inc_share = (inc_done - geom_done) / n
        exc_share = (exc_done - inc_done) / n
        asm_share = ((geom_done - started) + (time.perf_counter() - exc_done)) / n
        for s in active:
            phases = s.kernel.diagnostics.phase_seconds
            phases["inclusion"] = phases.get("inclusion", 0.0) + inc_share
            phases["exclusion"] = phases.get("exclusion", 0.0) + exc_share
            phases["assemble"] = phases.get("assemble", 0.0) + asm_share

    def _rebuild_buffers(
        self, rebuilds: list[tuple[_FusedTargetState, list, list]]
    ) -> None:
        """Pooled post-constraint buffer rebuild for many targets.

        One concatenation packs every target's surviving parts; the
        per-piece bounding boxes reduce over the pooled arrays (the same
        per-piece spans the per-target constructor reduces, so the values
        are bitwise equal); each target receives its slice views.
        """
        all_parts: list[_Part] = []
        for _s, parts, _w in rebuilds:
            all_parts.extend(parts)
        counts = np.array([len(p[0]) for p in all_parts], dtype=np.int64)
        offsets = np.zeros(len(all_parts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        xs = np.concatenate([p[0] for p in all_parts])
        ys = np.concatenate([p[1] for p in all_parts])
        signed = np.array([p[2] for p in all_parts])
        bboxes = _bboxes_from_packed(xs, ys, offsets)
        piece_pos = 0
        for s, parts, weights in rebuilds:
            n = len(parts)
            lo = int(offsets[piece_pos])
            hi = int(offsets[piece_pos + n])
            s.buffer = PieceBuffer.from_arrays(
                xs[lo:hi],
                ys[lo:hi],
                offsets[piece_pos : piece_pos + n + 1] - lo,
                np.asarray(weights, dtype=float),
                signed[piece_pos : piece_pos + n],
                bboxes[piece_pos : piece_pos + n],
            )
            piece_pos += n

    # ------------------------------------------------------------------ #
    # Fused inclusion: cohort prefilters + pooled convex clip
    # ------------------------------------------------------------------ #
    def _fused_inclusion(self, group: list[_FusedTargetState]) -> None:
        cohort = CohortPieceBuffer(
            [s.buffer for s in group], [s.cursor for s in group]
        )
        boxes = cohort.bboxes
        if len(cohort):
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
            row_box = binfo[cohort.piece_target]
            # Replica of the per-target bbox rejection, one pass for the
            # whole cohort (same comparisons, per-row constraint bounds).
            disjoint = (
                (boxes[:, 2] < row_box[:, 0])
                | (row_box[:, 2] < boxes[:, 0])
                | (boxes[:, 3] < row_box[:, 1])
                | (row_box[:, 3] < boxes[:, 1])
            )
        else:
            disjoint = np.zeros(0, dtype=bool)
        union = cohort.union_boxes()

        pooled_parts: list[_Part] = []
        pooled_seqs: list[np.ndarray] = []
        owner: list[tuple[_InclusionPlan, int]] = []
        for t, s in enumerate(group):
            pieces = cohort.target_pieces(t)
            pre = _InclusionPre(
                disjoint[pieces],
                tuple(float(v) for v in union[t]),
                None,
            )
            plan = s.kernel._inclusion_classify(s.buffer, s.geometry, pre)
            s.plan = plan
            for j, part in enumerate(plan.parts):
                pooled_parts.append(part)
                pooled_seqs.append(plan.edges)
                owner.append((plan, j))
        if pooled_parts:
            lengths = [len(p[0]) for p in pooled_parts]
            for bucket in _bucket_rows(lengths):
                results = _clip_convex_rows_multi(
                    [pooled_parts[i] for i in bucket],
                    [pooled_seqs[i] for i in bucket],
                    self._hook,
                )
                for i, result in zip(bucket, results):
                    if result is not None:
                        plan, j = owner[i]
                        plan.out[plan.still[j]] = [result]
        for s in group:
            s.inside_parts = s.plan.out
            s.plan = None

    # ------------------------------------------------------------------ #
    # Fused exclusion: cohort-pooled classification + pooled wedge chains
    # ------------------------------------------------------------------ #
    def _fused_exclusion(self, group: list[_FusedTargetState]) -> None:
        """``subtract_cautious`` for every part of every target at once.

        Mirrors :meth:`VectorSolverKernel._exclusion_classify` decision for
        decision, but every tensor stage -- bbox/keyhole classification,
        keyhole containment, bridge search, batched keyholing, wedge
        sidedness -- runs once over the stacked cohort rows with per-row
        constraint parameters gathered by target id, and every wedge chain
        of every target pools into a single runner call.
        """
        simple: list[_FusedTargetState] = []
        for s in group:
            if s.geometry.exc_convex:
                simple.append(s)
            else:
                # Non-convex exclusion: the batched Greiner-Hormann row
                # kernel per target, exactly like the vector engine.
                s.satisfied = s.kernel._exclusion_step(
                    s.inside_parts, s.geometry, s.buffer
                )
        if not simple:
            return

        tol = 1e-6
        plans: list[_ExclusionPlan] = []
        flats: list[list[_Part]] = []
        blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = []
        for s in simple:
            plan = _ExclusionPlan(len(s.inside_parts))
            flat: list[_Part] = []
            owners = plan.owners
            for pi, parts in enumerate(s.inside_parts):
                for part in parts:
                    flat.append(part)
                    owners.append(pi)
            plan.results = [None] * len(flat)
            buffer = s.buffer
            if not flat:
                blocks.append(None)
            elif len(flat) == len(buffer) and _parts_are_buffer(flat, buffer):
                blocks.append(buffer.padded())
            else:
                # Raw part lists are padded straight into the cohort matrix
                # below (no intermediate per-target padding).
                blocks.append(flat)
            plans.append(plan)
            flats.append(flat)

        sizes = [0 if b is None else (len(b[2]) if isinstance(b, tuple) else len(b)) for b in blocks]
        total = sum(sizes)
        if total == 0:
            for s, plan in zip(simple, plans):
                s.satisfied = _assemble_exclusion(plan)
            return
        width = 1
        for block in blocks:
            if block is None:
                continue
            if isinstance(block, tuple):
                width = max(width, block[0].shape[1])
            else:
                width = max(width, max(len(p[0]) for p in block))
        X = np.zeros((total, width))
        Y = np.zeros_like(X)
        counts = np.zeros(total, dtype=np.int64)
        row_target = np.zeros(total, dtype=np.int64)
        starts: list[int] = []
        pos = 0
        for t, block in enumerate(blocks):
            starts.append(pos)
            if block is None:
                continue
            if isinstance(block, tuple):
                bX, bY, bc = block
                n = len(bc)
                X[pos : pos + n, : bX.shape[1]] = bX
                Y[pos : pos + n, : bY.shape[1]] = bY
                counts[pos : pos + n] = bc
            else:
                n = len(block)
                for r, (pxs, pys, _signed) in enumerate(block):
                    X[pos + r, : len(pxs)] = pxs
                    Y[pos + r, : len(pys)] = pys
                    counts[pos + r] = len(pxs)
            row_target[pos : pos + n] = t
            pos += n

        # Cohort bbox classification: the per-row min/max reduce the same
        # vertex sets the per-target path reduces (exact min/max, so the
        # values are bitwise equal), and the comparisons replicate
        # piece_box.intersects(exclusion_box) plus the keyhole precondition.
        lanes = _lanes(width)[None, :]
        valid = lanes < counts[:, None]
        inf = np.inf
        minx = np.where(valid, X, inf).min(axis=1)
        miny = np.where(valid, Y, inf).min(axis=1)
        maxx = np.where(valid, X, -inf).max(axis=1)
        maxy = np.where(valid, Y, -inf).max(axis=1)
        binfo = np.array(
            [
                [
                    s.geometry.exc_bbox.min_x,
                    s.geometry.exc_bbox.min_y,
                    s.geometry.exc_bbox.max_x,
                    s.geometry.exc_bbox.max_y,
                ]
                for s in simple
            ]
        )
        rb = binfo[row_target]
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

        diags = [s.kernel.diagnostics for s in simple]
        row_target_l = row_target.tolist()
        disjoint_l = disjoint.tolist()
        keyhole_l = keyhole_able.tolist()
        keyhole_rows: list[int] = []
        subtract_rows: list[int] = []
        for row in range(total):
            t = row_target_l[row]
            if disjoint_l[row]:
                plans[t].results[row - starts[t]] = [flats[t][row - starts[t]]]
                diags[t].prefilter_bbox += 1
            elif keyhole_l[row]:
                keyhole_rows.append(row)
            else:
                subtract_rows.append(row)

        if keyhole_rows:
            subtract_more = self._fused_keyhole(
                simple, plans, flats, diags,
                X, Y, counts, np.column_stack([minx, miny, maxx, maxy]),
                row_target, starts, keyhole_rows,
            )
            subtract_rows.extend(subtract_more)
            subtract_rows.sort()

        if subtract_rows:
            specs = self._fused_wedges(
                simple, plans, flats, diags,
                X, Y, counts, row_target, starts, subtract_rows,
            )
            if specs:
                # Bucket chain rows by part width so one big keyholed ring
                # does not widen every wedge's padded lanes.
                lengths = [len(spec[0][0]) for spec in specs]
                for bucket in _bucket_rows(lengths):
                    bucket_specs = [specs[i] for i in bucket]
                    seq_lens = np.array(
                        [1 + len(spec[5]) for spec in bucket_specs], dtype=np.int64
                    )
                    edge_arr = np.zeros((len(bucket_specs), int(seq_lens.max()), 4))
                    for r, (_part, _plan, _fi, t, i, inner) in enumerate(
                        bucket_specs
                    ):
                        geometry = simple[t].geometry
                        edge_arr[r, 0, :] = geometry.exc_swapped[i]
                        if inner:
                            edge_arr[r, 1 : 1 + len(inner), :] = geometry.exc_edges[
                                inner
                            ]
                    chained = _halfplane_chain_run(
                        [spec[0] for spec in bucket_specs],
                        edge_arr,
                        seq_lens,
                        self._hook,
                    )
                    for spec, piece in zip(bucket_specs, chained):
                        if piece is not None:
                            spec[1].results[spec[2]].append(piece)
        for s, plan in zip(simple, plans):
            s.satisfied = _assemble_exclusion(plan)

    def _fused_keyhole(
        self,
        simple: list[_FusedTargetState],
        plans: list[_ExclusionPlan],
        flats: list[list[_Part]],
        diags: list,
        X: np.ndarray,
        Y: np.ndarray,
        counts: np.ndarray,
        boxes: np.ndarray,
        row_target: np.ndarray,
        starts: list[int],
        keyhole_rows: list[int],
    ) -> list[int]:
        """Pooled keyhole stage; returns rows that fall through to wedges."""
        kro = np.asarray(keyhole_rows)
        rt = row_target[kro]
        involved = sorted(set(rt.tolist()))
        for t in involved:
            simple[t].geometry.ensure_keyhole_tables()
        T = len(simple)
        q_max = max(len(simple[t].geometry.exc_coords) for t in involved)
        TQX = np.zeros((T, q_max))
        TQY = np.zeros((T, q_max))
        t_qn = np.zeros(T, dtype=np.int64)
        TINX = np.zeros((T, q_max))
        TINY = np.zeros((T, q_max))
        t_ni = np.zeros(T, dtype=np.int64)
        for t in involved:
            geometry = simple[t].geometry
            qn = len(geometry.exc_coords)
            TQX[t, :qn] = geometry.exc_coords[:, 0]
            TQY[t, :qn] = geometry.exc_coords[:, 1]
            t_qn[t] = qn
            ni = len(geometry.exc_rev_x)
            TINX[t, :ni] = geometry.exc_rev_x
            TINY[t, :ni] = geometry.exc_rev_y
            t_ni[t] = ni

        kcounts = counts[kro]
        narrow = max(int(kcounts.max()), 1)
        kX = X[kro][:, :narrow]
        kY = Y[kro][:, :narrow]
        parts_k = [flats[t][row - starts[t]] for t, row in zip(rt.tolist(), keyhole_rows)]
        q_valid = _lanes(q_max)[None, :] < t_qn[rt][:, None]
        k_boxes = boxes[kro]
        QXr = TQX[rt]
        QYr = TQY[rt]
        INXr = TINX[rt]
        INYr = TINY[rt]
        nir = t_ni[rt]
        # Bucket the (part, query, vertex) tensors by row width: one wide
        # keyholed piece must not widen every candidate's padded lanes.
        contained = np.empty(len(kro), dtype=bool)
        bridges: list[tuple[int, int] | None] = [None] * len(kro)
        for bucket in _bucket_rows([int(c) for c in kcounts]):
            idx = np.asarray(bucket)
            bw = max(int(kcounts[idx].max()), 1)
            bX = kX[idx][:, :bw]
            bY = kY[idx][:, :bw]
            contained[idx] = _contain_all_queries_rows(
                [parts_k[i] for i in bucket],
                bX,
                bY,
                kcounts[idx],
                k_boxes[idx],
                QXr[idx],
                QYr[idx],
                q_valid[idx],
            )
            b_bridges = _keyhole_bridges_rows(
                bX, bY, kcounts[idx], contained[idx], INXr[idx], INYr[idx], nir[idx]
            )
            for pos, i in enumerate(bucket):
                bridges[i] = b_bridges[pos]
        batch_rows: list[int] = []
        fall_through: list[int] = []
        for k, row in enumerate(keyhole_rows):
            t = int(rt[k])
            if contained[k]:
                diags[t].prefilter_inside += 1
                if parts_k[k][2] > 0.0:
                    batch_rows.append(k)
                else:
                    # CW-stored ring: the bridge scan order depends on
                    # orientation, so this (rare) part goes scalar.
                    geometry = simple[t].geometry
                    plans[t].results[row - starts[t]] = [
                        _with_hole_part(
                            parts_k[k], geometry.exc_rev_x, geometry.exc_rev_y
                        )
                    ]
            else:
                fall_through.append(row)
        if batch_rows:
            keyholed = _with_hole_batch_rows(
                kX,
                kY,
                kcounts,
                np.asarray(batch_rows),
                bridges,
                INXr,
                INYr,
                nir,
            )
            for k, part in zip(batch_rows, keyholed):
                t = int(rt[k])
                row = keyhole_rows[k]
                plans[t].results[row - starts[t]] = [part]
        return fall_through

    def _fused_wedges(
        self,
        simple: list[_FusedTargetState],
        plans: list[_ExclusionPlan],
        flats: list[list[_Part]],
        diags: list,
        X: np.ndarray,
        Y: np.ndarray,
        counts: np.ndarray,
        row_target: np.ndarray,
        starts: list[int],
        subtract_rows: list[int],
    ) -> list[tuple]:
        """Pooled wedge classification.

        Returns one chain spec ``(part, plan, fi, target, wedge, inner)``
        per surviving (part, wedge) pair; the caller buckets them by part
        width and runs pooled chain calls."""
        sro = np.asarray(subtract_rows)
        rt = row_target[sro]
        involved = sorted(set(rt.tolist()))
        for t in involved:
            simple[t].geometry.ensure_wedge_tables()
        T = len(simple)
        w_max = max(simple[t].geometry.exc_edges.shape[0] for t in involved)
        TEX = np.zeros((T, w_max))
        TEY = np.zeros((T, w_max))
        TRBX = np.zeros((T, w_max))
        TRBY = np.zeros((T, w_max))
        TKEX = np.zeros((T, w_max))
        TKEY = np.zeros((T, w_max))
        TKAX = np.zeros((T, w_max))
        TKAY = np.zeros((T, w_max))
        t_wn = np.zeros(T, dtype=np.int64)
        for t in involved:
            geometry = simple[t].geometry
            ex, ey, rbx, rby = geometry.exc_wedge_sides
            wn = len(ex)
            TEX[t, :wn] = ex
            TEY[t, :wn] = ey
            TRBX[t, :wn] = rbx
            TRBY[t, :wn] = rby
            edges = geometry.exc_edges
            TKEX[t, :wn] = edges[:, 2] - edges[:, 0]
            TKEY[t, :wn] = edges[:, 3] - edges[:, 1]
            TKAX[t, :wn] = edges[:, 0]
            TKAY[t, :wn] = edges[:, 1]
            t_wn[t] = wn

        sc = counts[sro]
        narrow = max(int(sc.max()), 1)
        sX = X[sro][:, :narrow]
        sY = Y[sro][:, :narrow]
        lane_valid = _lanes(narrow)[None, :] < sc[:, None]
        wedge_valid = _lanes(w_max)[None, :] < t_wn[rt][:, None]
        # The swapped-endpoint sidedness of the wedge's outside clip and the
        # keep-left sidedness of its inner clips, with per-row wedge tables;
        # both expressions mirror the per-target tensors operand for operand.
        side = TEX[rt][:, :, None] * (sY[:, None, :] - TRBY[rt][:, :, None]) - TEY[
            rt
        ][:, :, None] * (sX[:, None, :] - TRBX[rt][:, :, None])
        nontrivial = (
            ((side >= -EPSILON) & lane_valid[:, None, :]).any(axis=2) & wedge_valid
        )
        side_k = TKEX[rt][:, :, None] * (sY[:, None, :] - TKAY[rt][:, :, None]) - TKEY[
            rt
        ][:, :, None] * (sX[:, None, :] - TKAX[rt][:, :, None])
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
        nz_rows = np.nonzero(nontrivial)[0].tolist()
        nz_wedges = np.nonzero(nontrivial)[1].tolist()
        kn_rows = np.nonzero(keep_needed)[0].tolist()
        kn_wedges = np.nonzero(keep_needed)[1].tolist()
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
                diags[t].prefilter_outside += 1
                plan.results[fi] = []
                continue
            diags[t].pieces_clipped += 1
            part = flats[t][fi]
            p = 0
            n_keeps = len(keeps)
            for i in wedges:
                # keeps is ascending, wedges is ascending: advance a pointer
                # instead of refiltering inner_needed per wedge.
                while p < n_keeps and keeps[p] < i:
                    p += 1
                specs.append((part, plan, fi, t, i, keeps[:p]))
            plan.results[fi] = []
        return specs


# --------------------------------------------------------------------------- #
# Part conversions
# --------------------------------------------------------------------------- #
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
