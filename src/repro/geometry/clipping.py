"""Boolean operations on simple polygons.

The Octant constraint solver needs three boolean operations on region pieces:

* ``intersection`` -- combining positive constraints,
* ``difference``   -- removing negative constraints (annulus inner disks,
  oceans, uninhabited areas),
* ``union``        -- merging the weighted pieces of the final estimate.

The general (possibly non-convex) case is handled with the Greiner-Hormann
clipping algorithm on doubly linked vertex lists.  Greiner-Hormann is exact
for polygons in *general position*; degenerate inputs (an intersection point
coinciding with a vertex, collinear overlapping edges) are handled by retrying
with a tiny deterministic perturbation of the clip polygon -- the perturbation
is orders of magnitude below the kilometre-scale resolution that matters for
geolocalization.

A Sutherland-Hodgman fast path is used when the clip polygon is convex (the
overwhelmingly common case: constraint disks are convex), because it is
simpler, faster and immune to the degeneracies above.

All functions return a *list* of simple polygons because boolean operations on
non-convex operands can produce several disconnected pieces -- exactly the
disjoint-region situation the paper's Figure 1 illustrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .point import EPSILON, Point2D, segment_intersection
from .polygon import Polygon

__all__ = [
    "intersect_polygons",
    "union_polygons",
    "subtract_polygons",
    "subtract_polygons_with_hits",
    "clip_convex",
    "subtract_convex",
    "clip_halfplane",
    "ClippingError",
]

#: Perturbation step (km) used to nudge degenerate inputs into general
#: position.  A metre-scale nudge is invisible at geolocation resolution.
_PERTURBATION_KM = 1e-3

#: Number of perturbation retries before giving up on exact clipping.
_MAX_RETRIES = 5

#: Polygon pieces with area below this (km^2) are dropped from results; they
#: are numerical slivers produced by nearly-tangent boundaries.
_MIN_PIECE_AREA_KM2 = 1e-6


class ClippingError(RuntimeError):
    """Raised when a boolean operation cannot be completed robustly."""


# --------------------------------------------------------------------------- #
# Sutherland-Hodgman: clip an arbitrary subject against a *convex* clip
# --------------------------------------------------------------------------- #
def _ccw_coords(polygon: Polygon) -> tuple[tuple[float, float], ...]:
    """Raw CCW-ordered coordinates, equal to ``polygon.ensure_ccw().vertices``.

    Avoids constructing the reversed :class:`Polygon` copy on the hot path:
    reversing preserves consecutive-vertex distinctness, so the reversed
    copy's cleaned vertex list is exactly the reversed list.
    """
    coords = polygon.coords
    if polygon.signed_area() > 0.0:
        return coords
    return tuple(reversed(coords))


def _clip_pass(
    points: list[tuple[float, float]],
    ax: float,
    ay: float,
    bx: float,
    by: float,
) -> list[tuple[float, float]]:
    """One Sutherland-Hodgman half-plane pass on raw coordinates.

    Keeps the part of the (cyclic) vertex chain on the left of the directed
    line ``(ax, ay) -> (bx, by)``.  The arithmetic mirrors ``_cross`` /
    ``_line_intersection`` on :class:`Point2D` operand-for-operand, so the
    output coordinates are bitwise identical to the boxed implementation.

    This function is the conformance reference for the batched form of the
    pass: the NumPy row kernel (``repro.geometry.kernel._clip_pass_rows``)
    replicates its operand order, its ``>= -EPSILON`` side predicate, the
    ``abs(denom) < 1e-15`` degenerate-edge guard and the
    intersection-then-vertex emission order exactly -- any change here must
    land in both (pinned by the randomized equivalence suites).
    """
    ex = bx - ax
    ey = by - ay
    m = len(points)
    sides = [ex * (y - ay) - ey * (x - ax) >= -EPSILON for x, y in points]
    # Fast paths: a chain entirely inside the half-plane is returned as-is
    # (the general loop below would copy it verbatim: every vertex is kept
    # and no intersection is ever emitted); a chain entirely outside yields
    # nothing (no vertex kept, no inside/outside transition to intersect).
    if all(sides):
        return points
    if not any(sides):
        return []
    output: list[tuple[float, float]] = []
    for j in range(m):
        cx, cy = points[j]
        cur_inside = sides[j]
        prev_inside = sides[j - 1]
        if cur_inside:
            if not prev_inside:
                px, py = points[j - 1]
                rx = cx - px
                ry = cy - py
                denom = rx * ey - ry * ex
                if not abs(denom) < 1e-15:
                    t = ((ax - px) * ey - (ay - py) * ex) / denom
                    output.append((px + rx * t, py + ry * t))
            output.append((cx, cy))
        elif prev_inside:
            px, py = points[j - 1]
            rx = cx - px
            ry = cy - py
            denom = rx * ey - ry * ex
            if not abs(denom) < 1e-15:
                t = ((ax - px) * ey - (ay - py) * ex) / denom
                output.append((px + rx * t, py + ry * t))
    return output


def _polygon_from_coords(points: list[tuple[float, float]]) -> Polygon | None:
    """Build the result polygon from raw coordinates, dropping slivers."""
    if len(points) < 3:
        return None
    try:
        result = Polygon([Point2D(x, y) for x, y in points])
    except ValueError:
        return None
    if result.area() < _MIN_PIECE_AREA_KM2:
        return None
    return result


def clip_convex(subject: Polygon, convex_clip: Polygon) -> Polygon | None:
    """Intersection of ``subject`` with a convex ``convex_clip`` polygon.

    Uses Sutherland-Hodgman, which requires the clip polygon to be convex but
    places no constraints on the subject.  Returns ``None`` when the
    intersection is empty.  The output of Sutherland-Hodgman on a non-convex
    subject may contain coincident (zero-width) bridge edges; these do not
    affect area or containment under the even-odd rule used by
    :class:`~repro.geometry.polygon.Polygon`.
    """
    clip_coords = _ccw_coords(convex_clip)
    output = list(_ccw_coords(subject))
    n = len(clip_coords)

    for i in range(n):
        if len(output) < 3:
            return None
        ax, ay = clip_coords[i]
        bx, by = clip_coords[(i + 1) % n]
        output = _clip_pass(output, ax, ay, bx, by)

    return _polygon_from_coords(output)


def clip_halfplane(subject: Polygon, a: Point2D, b: Point2D, keep_left: bool = True) -> Polygon | None:
    """Clip ``subject`` against the half-plane bounded by the line through ``a, b``.

    ``keep_left=True`` keeps the part of the subject to the left of the
    directed line ``a -> b`` (the inside of a CCW polygon's edge);
    ``keep_left=False`` keeps the right side.  Returns ``None`` when nothing
    of the subject remains.  This is a single Sutherland-Hodgman step and is
    the robust building block for :func:`subtract_convex`.
    """
    if not keep_left:
        a, b = b, a
    output = _clip_pass(list(_ccw_coords(subject)), a.x, a.y, b.x, b.y)
    return _polygon_from_coords(output)


def subtract_convex(subject: Polygon, convex_clip: Polygon) -> list[Polygon]:
    """Difference ``subject MINUS convex_clip`` via half-plane decomposition.

    The complement of a convex polygon with CCW edges ``e_1 ... e_n`` (inside
    half-planes ``H_1 ... H_n``) partitions into the disjoint wedges
    ``W_i = complement(H_i) intersect H_1 ... H_{i-1}``.  Clipping the subject
    against each wedge therefore yields disjoint pieces whose union is exactly
    ``subject \\ convex_clip``.  Every step is a single half-plane clip, which
    is immune to the degeneracies that trouble general polygon clipping.
    """
    if not subject.bounding_box().intersects(convex_clip.bounding_box()):
        return [subject]
    clip = convex_clip.ensure_ccw()
    verts = clip.vertices
    n = len(verts)
    pieces: list[Polygon] = []
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        # Outside of edge i.
        piece = clip_halfplane(subject, a, b, keep_left=False)
        if piece is None:
            continue
        # Inside of all previous edges, making the wedges disjoint.
        for j in range(i):
            pa = verts[j]
            pb = verts[(j + 1) % n]
            piece = clip_halfplane(piece, pa, pb, keep_left=True)
            if piece is None:
                break
        if piece is not None and piece.area() >= _MIN_PIECE_AREA_KM2:
            pieces.append(piece)
    return pieces


def _cross(a: Point2D, b: Point2D) -> float:
    return a.x * b.y - a.y * b.x


def _line_intersection(p1: Point2D, p2: Point2D, a: Point2D, b: Point2D) -> Point2D | None:
    """Intersection of segment ``p1p2`` with the infinite line through ``ab``."""
    r = p2 - p1
    s = b - a
    denom = _cross(r, s)
    if abs(denom) < 1e-15:
        return None
    t = _cross(a - p1, s) / denom
    return p1 + r * t


# --------------------------------------------------------------------------- #
# Greiner-Hormann general clipping
# --------------------------------------------------------------------------- #
@dataclass
class _Vertex:
    """A node in the Greiner-Hormann doubly linked vertex list."""

    point: Point2D
    next: "_Vertex | None" = field(default=None, repr=False)
    prev: "_Vertex | None" = field(default=None, repr=False)
    neighbour: "_Vertex | None" = field(default=None, repr=False)
    is_intersection: bool = False
    is_entry: bool = False
    visited: bool = False
    alpha: float = 0.0


class _Ring:
    """Circular doubly linked list of :class:`_Vertex` nodes."""

    def __init__(self, points: Sequence[Point2D]):
        self.first: _Vertex | None = None
        for p in points:
            self.append(_Vertex(p))

    def append(self, vertex: _Vertex) -> None:
        if self.first is None:
            self.first = vertex
            vertex.next = vertex
            vertex.prev = vertex
            return
        last = self.first.prev
        assert last is not None
        last.next = vertex
        vertex.prev = last
        vertex.next = self.first
        self.first.prev = vertex

    def insert_between(self, vertex: _Vertex, start: _Vertex, end: _Vertex) -> None:
        """Insert an intersection vertex between ``start`` and ``end`` sorted by alpha."""
        current = start
        while current is not end and current.next is not None:
            nxt = current.next
            if not nxt.is_intersection or nxt is end or nxt.alpha > vertex.alpha:
                break
            current = nxt
        nxt = current.next
        assert nxt is not None
        current.next = vertex
        vertex.prev = current
        vertex.next = nxt
        nxt.prev = vertex

    def iter_vertices(self) -> list[_Vertex]:
        out: list[_Vertex] = []
        if self.first is None:
            return out
        v = self.first
        while True:
            out.append(v)
            assert v.next is not None
            v = v.next
            if v is self.first:
                break
        return out

    def original_vertices(self) -> list[_Vertex]:
        return [v for v in self.iter_vertices() if not v.is_intersection]


def _build_rings(
    subject: Polygon,
    clip: Polygon,
    precomputed: Sequence[tuple[int, int, float, float]] | None = None,
) -> tuple[_Ring, _Ring, int]:
    """Build linked rings for both polygons with intersection vertices inserted.

    Returns the two rings and the number of intersection pairs found.  Raises
    :class:`ClippingError` when a degenerate intersection (endpoint touching)
    is detected, so the caller can perturb and retry.

    ``precomputed`` optionally supplies the intersections as
    ``(subject_edge, clip_edge, alpha, beta)`` tuples in the scan order of
    the double loop below (subject-edge major, clip-edge minor) -- the
    batched kernel computes them for many subjects in one tensor with the
    very ``segment_intersection`` arithmetic, so the assembled rings are
    node-for-node identical to the scan's.
    """
    ring_s = _Ring(subject.ensure_ccw().vertices)
    ring_c = _Ring(clip.ensure_ccw().vertices)

    subject_orig = ring_s.original_vertices()
    clip_orig = ring_c.original_vertices()

    count = 0
    degenerate_tol = 1e-7
    if precomputed is not None:
        ns = len(subject_orig)
        nc = len(clip_orig)
        for i, j, alpha, beta in precomputed:
            if (
                alpha < degenerate_tol
                or alpha > 1.0 - degenerate_tol
                or beta < degenerate_tol
                or beta > 1.0 - degenerate_tol
            ):
                raise ClippingError("degenerate intersection at a vertex")
            sv = subject_orig[i]
            s_next = subject_orig[(i + 1) % ns]
            cv = clip_orig[j]
            c_next = clip_orig[(j + 1) % nc]
            point = sv.point + (s_next.point - sv.point) * alpha
            vs = _Vertex(point, is_intersection=True, alpha=alpha)
            vc = _Vertex(point, is_intersection=True, alpha=beta)
            vs.neighbour = vc
            vc.neighbour = vs
            ring_s.insert_between(vs, sv, s_next)
            ring_c.insert_between(vc, cv, c_next)
            count += 1
        return ring_s, ring_c, count
    for i, sv in enumerate(subject_orig):
        s_next = subject_orig[(i + 1) % len(subject_orig)]
        for j, cv in enumerate(clip_orig):
            c_next = clip_orig[(j + 1) % len(clip_orig)]
            hit = segment_intersection(sv.point, s_next.point, cv.point, c_next.point)
            if hit is None:
                continue
            alpha, beta = hit
            if (
                alpha < degenerate_tol
                or alpha > 1.0 - degenerate_tol
                or beta < degenerate_tol
                or beta > 1.0 - degenerate_tol
            ):
                raise ClippingError("degenerate intersection at a vertex")
            point = sv.point + (s_next.point - sv.point) * alpha
            vs = _Vertex(point, is_intersection=True, alpha=alpha)
            vc = _Vertex(point, is_intersection=True, alpha=beta)
            vs.neighbour = vc
            vc.neighbour = vs
            ring_s.insert_between(vs, sv, s_next)
            ring_c.insert_between(vc, cv, c_next)
            count += 1
    return ring_s, ring_c, count


def _mark_entries(ring: _Ring, other: Polygon, forward: bool) -> None:
    """Mark each intersection vertex on ``ring`` as entry or exit w.r.t. ``other``."""
    if ring.first is None:
        return
    start = ring.first
    inside = other.contains_point(start.point, include_boundary=False)
    entry = not inside if forward else inside
    for v in ring.iter_vertices():
        if v.is_intersection:
            v.is_entry = entry
            entry = not entry


def _trace(ring_s: _Ring) -> list[Polygon]:
    """Walk the marked rings and emit result polygons."""
    results: list[Polygon] = []
    unvisited = [v for v in ring_s.iter_vertices() if v.is_intersection and not v.visited]
    while unvisited:
        current = unvisited[0]
        pts: list[Point2D] = []
        v = current
        while True:
            v.visited = True
            if v.neighbour is not None:
                v.neighbour.visited = True
            if v.is_entry:
                while True:
                    assert v.next is not None
                    v = v.next
                    pts.append(v.point)
                    if v.is_intersection:
                        break
            else:
                while True:
                    assert v.prev is not None
                    v = v.prev
                    pts.append(v.point)
                    if v.is_intersection:
                        break
            assert v.neighbour is not None
            v = v.neighbour
            if v is current or v.neighbour is current or v.visited and v is not current and v.point.almost_equal(current.point, tol=1e-9):
                break
            if v.visited:
                break
        if len(pts) >= 3:
            try:
                poly = Polygon(pts)
            except ValueError:
                poly = None
            if poly is not None and poly.area() >= _MIN_PIECE_AREA_KM2:
                results.append(poly)
        unvisited = [v for v in ring_s.iter_vertices() if v.is_intersection and not v.visited]
    return results


def _greiner_hormann(
    subject: Polygon,
    clip: Polygon,
    subject_forward: bool,
    clip_forward: bool,
    no_crossing: Callable[[Polygon, Polygon], list[Polygon]],
) -> list[Polygon]:
    """Run one Greiner-Hormann pass with perturbation retries."""
    current_clip = clip
    rng_shift = 0
    for attempt in range(_MAX_RETRIES):
        try:
            ring_s, ring_c, count = _build_rings(subject, current_clip)
        except ClippingError:
            rng_shift += 1
            offset = Point2D(
                _PERTURBATION_KM * math.cos(1.0 + 2.399963 * rng_shift),
                _PERTURBATION_KM * math.sin(1.0 + 2.399963 * rng_shift),
            )
            current_clip = current_clip.translated(offset)
            continue
        if count == 0:
            return no_crossing(subject, current_clip)
        _mark_entries(ring_s, current_clip, subject_forward)
        _mark_entries(ring_c, subject, clip_forward)
        pieces = _trace(ring_s)
        if pieces or count > 0:
            return pieces
    # All retries hit degeneracies; fall back to the no-crossing classification
    # of the perturbed operands, which is the most conservative answer.
    return no_crossing(subject, current_clip)


# --------------------------------------------------------------------------- #
# No-crossing fallbacks (containment / disjoint classification)
# --------------------------------------------------------------------------- #
def _no_crossing_intersection(subject: Polygon, clip: Polygon) -> list[Polygon]:
    if clip.contains_point(subject.centroid()) and clip.contains_polygon(subject):
        return [subject]
    if subject.contains_point(clip.centroid()) and subject.contains_polygon(clip):
        return [clip]
    return []


def _no_crossing_union(subject: Polygon, clip: Polygon) -> list[Polygon]:
    if clip.contains_polygon(subject):
        return [clip]
    if subject.contains_polygon(clip):
        return [subject]
    return [subject, clip]


def _no_crossing_difference(subject: Polygon, clip: Polygon) -> list[Polygon]:
    if clip.contains_polygon(subject):
        return []
    if subject.contains_polygon(clip) and subject.contains_point(clip.centroid()):
        # Clip is a hole strictly inside the subject: keyhole it.
        return [subject.with_hole(clip)]
    return [subject]


# --------------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------------- #
def intersect_polygons(subject: Polygon, clip: Polygon) -> list[Polygon]:
    """Intersection ``subject AND clip`` as a list of simple polygons."""
    if not subject.bounding_box().intersects(clip.bounding_box()):
        return []
    if clip.is_convex():
        piece = clip_convex(subject, clip)
        return [piece] if piece is not None else []
    if subject.is_convex():
        piece = clip_convex(clip, subject)
        return [piece] if piece is not None else []
    return _greiner_hormann(
        subject,
        clip,
        subject_forward=True,
        clip_forward=True,
        no_crossing=_no_crossing_intersection,
    )


def union_polygons(subject: Polygon, clip: Polygon) -> list[Polygon]:
    """Union ``subject OR clip`` as a list of simple polygons.

    Disjoint operands are returned as separate pieces (a multi-polygon), which
    is how the weighted region algebra represents disconnected estimates.
    """
    if not subject.bounding_box().intersects(clip.bounding_box()):
        return [subject, clip]
    return _greiner_hormann(
        subject,
        clip,
        subject_forward=False,
        clip_forward=False,
        no_crossing=_no_crossing_union,
    )


def subtract_polygons(subject: Polygon, clip: Polygon) -> list[Polygon]:
    """Difference ``subject MINUS clip`` as a list of simple polygons."""
    if not subject.bounding_box().intersects(clip.bounding_box()):
        return [subject]
    if clip.is_convex():
        return subtract_convex(subject, clip)
    return _greiner_hormann(
        subject,
        clip,
        subject_forward=False,
        clip_forward=True,
        no_crossing=_no_crossing_difference,
    )


def subtract_polygons_with_hits(
    subject: Polygon,
    clip: Polygon,
    hits: Sequence[tuple[int, int, float, float]],
) -> list[Polygon]:
    """Greiner-Hormann difference with precomputed clean intersections.

    ``hits`` is the full intersection set as ``(subject_edge, clip_edge,
    alpha, beta)`` in scan order, all non-degenerate (the batched caller
    routes degenerate cases to :func:`subtract_polygons`, whose
    perturb-and-retry loop re-detects them identically).  Replicates the
    first -- and, for clean hits, only -- attempt of the scalar
    ``_greiner_hormann`` difference; any surprise degeneracy falls back to
    the full scalar path, keeping the outcome identical by construction.
    """
    try:
        ring_s, ring_c, count = _build_rings(subject, clip, precomputed=hits)
    except ClippingError:
        return subtract_polygons(subject, clip)
    if count == 0:
        return _no_crossing_difference(subject, clip)
    _mark_entries(ring_s, clip, False)
    _mark_entries(ring_c, subject, True)
    pieces = _trace(ring_s)
    if pieces or count > 0:
        return pieces
    return _no_crossing_difference(subject, clip)
