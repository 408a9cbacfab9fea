"""Tests for geodesic disks, annuli, dilation/erosion and weighted regions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    AzimuthalEquidistantProjection,
    GeoPoint,
    Point2D,
    Polygon,
    Region,
    RegionPiece,
    annulus_polygon,
    dilate_polygon,
    disk_polygon,
    erode_polygon,
    geodesic_circle_points,
    planar_circle_polygon,
)

DENVER = GeoPoint(39.7392, -104.9903)
CHICAGO = GeoPoint(41.8781, -87.6298)
PROJ = AzimuthalEquidistantProjection(DENVER)


class TestGeodesicCircles:
    def test_points_are_at_requested_radius(self):
        for p in geodesic_circle_points(DENVER, 500.0, segments=32):
            assert DENVER.distance_km(p) == pytest.approx(500.0, rel=1e-6)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            geodesic_circle_points(DENVER, 0.0)

    def test_rejects_too_few_segments(self):
        with pytest.raises(ValueError):
            geodesic_circle_points(DENVER, 100.0, segments=2)


class TestDiskPolygon:
    def test_area_close_to_circle(self):
        disk = disk_polygon(DENVER, 300.0, PROJ, segments=96)
        assert disk.area() == pytest.approx(math.pi * 300.0**2, rel=0.01)

    def test_contains_center(self):
        disk = disk_polygon(DENVER, 300.0, PROJ)
        assert disk.contains_point(PROJ.forward(DENVER))

    def test_contains_points_within_radius(self):
        disk = disk_polygon(DENVER, 1500.0, PROJ)
        assert disk.contains_point(PROJ.forward(CHICAGO))  # ~1480 km away

    def test_excludes_points_beyond_radius(self):
        disk = disk_polygon(DENVER, 1000.0, PROJ)
        assert not disk.contains_point(PROJ.forward(CHICAGO))

    def test_is_ccw_and_convex(self):
        disk = disk_polygon(DENVER, 500.0, PROJ)
        assert disk.is_ccw()
        assert disk.is_convex()


class TestAnnulus:
    def test_area_is_ring_area(self):
        ring = annulus_polygon(DENVER, 500.0, 200.0, PROJ, segments=96)
        expected = math.pi * (500.0**2 - 200.0**2)
        assert ring.area() == pytest.approx(expected, rel=0.02)

    def test_containment_semantics(self):
        ring = annulus_polygon(DENVER, 500.0, 200.0, PROJ)
        center = PROJ.forward(DENVER)
        assert not ring.contains_point(center)
        on_ring = PROJ.forward(DENVER.destination(90.0, 350.0))
        assert ring.contains_point(on_ring)
        outside = PROJ.forward(DENVER.destination(90.0, 800.0))
        assert not ring.contains_point(outside)

    def test_zero_inner_radius_gives_disk(self):
        disk = annulus_polygon(DENVER, 500.0, 0.0, PROJ)
        assert disk.contains_point(PROJ.forward(DENVER))

    def test_inner_must_be_smaller(self):
        with pytest.raises(ValueError):
            annulus_polygon(DENVER, 300.0, 300.0, PROJ)


class TestDilateErode:
    def test_dilation_contains_original(self):
        poly = planar_circle_polygon(Point2D(0, 0), 100.0, segments=24)
        grown = dilate_polygon(poly, 50.0)
        for v in poly.vertices:
            assert grown.contains_point(v)

    def test_dilation_radius_grows(self):
        poly = planar_circle_polygon(Point2D(0, 0), 100.0, segments=24)
        grown = dilate_polygon(poly, 50.0)
        assert grown.max_distance_to_point(Point2D(0, 0)) == pytest.approx(150.0, rel=0.02)

    def test_dilation_zero_is_identity(self):
        poly = planar_circle_polygon(Point2D(0, 0), 100.0)
        assert dilate_polygon(poly, 0.0) is poly

    def test_erosion_shrinks(self):
        poly = planar_circle_polygon(Point2D(0, 0), 100.0, segments=48)
        shrunk = erode_polygon(poly, 40.0)
        assert shrunk is not None
        assert shrunk.max_distance_to_point(Point2D(0, 0)) == pytest.approx(60.0, rel=0.02)

    def test_erosion_to_nothing_returns_none(self):
        poly = planar_circle_polygon(Point2D(0, 0), 100.0)
        assert erode_polygon(poly, 150.0) is None

    def test_erosion_result_inside_original(self):
        poly = planar_circle_polygon(Point2D(5, 5), 80.0, segments=48)
        shrunk = erode_polygon(poly, 30.0)
        assert shrunk is not None
        assert poly.contains_polygon(shrunk)


class TestRegion:
    def _disk_region(self, radius=300.0, weight=1.0):
        disk = disk_polygon(DENVER, radius, PROJ)
        return Region([RegionPiece(disk, weight)], PROJ)

    def test_empty_region(self):
        region = Region.empty(PROJ)
        assert region.is_empty()
        assert not region
        assert region.area_km2() == 0.0
        assert region.point_estimate() is None

    def test_single_disk_metrics(self):
        region = self._disk_region(300.0)
        assert region.area_km2() == pytest.approx(math.pi * 300.0**2, rel=0.02)
        assert region.area_square_miles() < region.area_km2()

    def test_point_estimate_is_center(self):
        region = self._disk_region(300.0)
        estimate = region.point_estimate()
        assert estimate.distance_km(DENVER) < 10.0

    def test_contains_geopoint(self):
        region = self._disk_region(1500.0)
        assert region.contains_geopoint(CHICAGO)
        assert not region.contains_geopoint(GeoPoint(51.5, -0.12))

    def test_distance_to_geopoint(self):
        region = self._disk_region(500.0)
        assert region.distance_to_geopoint_km(DENVER) == 0.0
        far = region.distance_to_geopoint_km(CHICAGO)
        assert far == pytest.approx(DENVER.distance_km(CHICAGO) - 500.0, rel=0.05)

    def test_intersect_polygon_adds_weight(self):
        region = self._disk_region(300.0, weight=1.0)
        clip = disk_polygon(DENVER.destination(90.0, 200.0), 300.0, PROJ)
        result = region.intersect_polygon(clip, weight_increment=2.0)
        assert not result.is_empty()
        assert result.max_weight() == pytest.approx(3.0)
        assert result.area_km2() < region.area_km2()

    def test_subtract_polygon(self):
        region = self._disk_region(300.0)
        bite = disk_polygon(DENVER, 100.0, PROJ)
        result = region.subtract_polygon(bite)
        assert result.area_km2() == pytest.approx(
            region.area_km2() - math.pi * 100.0**2, rel=0.05
        )
        assert not result.contains_geopoint(DENVER)

    def test_union_with_disjoint(self):
        a = self._disk_region(200.0)
        far_disk = disk_polygon(GeoPoint(51.5, -0.12), 200.0, PROJ)
        b = Region.from_polygon(far_disk, PROJ, weight=0.5)
        union = a.union_with(b)
        assert len(union) == 2
        assert union.area_km2() == pytest.approx(a.area_km2() + b.area_km2(), rel=0.01)

    def test_filter_by_weight(self):
        pieces = [
            RegionPiece(disk_polygon(DENVER, 100.0, PROJ), 1.0),
            RegionPiece(disk_polygon(CHICAGO, 100.0, PROJ), 3.0),
        ]
        region = Region(pieces, PROJ)
        filtered = region.filter_by_weight(2.0)
        assert len(filtered) == 1
        assert filtered.pieces[0].weight == 3.0

    def test_top_pieces(self):
        pieces = [
            RegionPiece(disk_polygon(DENVER, 100.0, PROJ), float(w)) for w in range(5)
        ]
        region = Region(pieces, PROJ)
        top = region.top_pieces(2)
        assert len(top) == 2
        assert top.max_weight() == 4.0

    def test_heaviest_piece(self):
        region = Region(
            [
                RegionPiece(disk_polygon(DENVER, 100.0, PROJ), 0.5),
                RegionPiece(disk_polygon(CHICAGO, 400.0, PROJ), 2.0),
            ],
            PROJ,
        )
        heaviest = region.heaviest_piece()
        assert heaviest.weight == 2.0

    def test_sample_geopoints_inside_region(self):
        region = self._disk_region(300.0)
        samples = region.sample_geopoints(100.0)
        assert samples
        for p in samples:
            assert DENVER.distance_km(p) <= 310.0

    def test_boundary_geopoints(self):
        region = self._disk_region(300.0)
        rings = region.boundary_geopoints()
        assert len(rings) == 1
        for p in rings[0]:
            assert DENVER.distance_km(p) == pytest.approx(300.0, rel=0.02)

    def test_region_without_projection_rejects_geo_queries(self):
        region = Region.from_polygon(planar_circle_polygon(Point2D(0, 0), 10.0))
        with pytest.raises(ValueError):
            region.contains_geopoint(DENVER)


class TestRegionProperties:
    @given(
        radius=st.floats(50, 2000),
        weight=st.floats(0.1, 10),
        bearing=st.floats(0, 360),
        offset=st.floats(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_point_estimate_always_inside_region(self, radius, weight, bearing, offset):
        center = DENVER.destination(bearing, offset)
        disk = disk_polygon(center, radius, PROJ)
        region = Region([RegionPiece(disk, weight)], PROJ)
        estimate = region.point_estimate()
        assert estimate is not None
        assert region.contains_geopoint(estimate)


class TestCircleCache:
    def test_cached_disk_bitwise_identical(self):
        from repro.geometry import CircleCache

        proj = AzimuthalEquidistantProjection(DENVER)
        cache = CircleCache()
        plain = disk_polygon(DENVER, 400.0, proj, 32)
        cached = disk_polygon(DENVER, 400.0, proj, 32, cache=cache)
        assert cached.coords == plain.coords
        assert cached.signed_area() == plain.signed_area()

    def test_boundary_reused_across_projections(self):
        from repro.geometry import CircleCache

        cache = CircleCache()
        lats1, lons1 = cache.boundary_arrays(DENVER, 250.0, 24)
        assert len(cache) == 1
        lats2, lons2 = cache.boundary_arrays(DENVER, 250.0, 24)
        assert lats1 is lats2 and lons1 is lons2  # cache hit, same arrays
        # A different projection reuses the same geodesic boundary.
        proj_a = AzimuthalEquidistantProjection(DENVER)
        proj_b = AzimuthalEquidistantProjection(GeoPoint(41.0, -100.0))
        disk_a = disk_polygon(DENVER, 250.0, proj_a, 24, cache=cache)
        disk_b = disk_polygon(DENVER, 250.0, proj_b, 24, cache=cache)
        assert len(cache) == 1
        assert disk_a.coords != disk_b.coords  # projections differ ...
        assert disk_a.area() == pytest.approx(disk_b.area(), rel=0.01)  # ... shape not

    def test_distinct_keys_distinct_entries(self):
        from repro.geometry import CircleCache

        cache = CircleCache()
        cache.boundary_arrays(DENVER, 250.0, 24)
        cache.boundary_arrays(DENVER, 300.0, 24)
        cache.boundary_arrays(DENVER, 250.0, 32)
        cache.boundary_arrays(GeoPoint(10.0, 10.0), 250.0, 24)
        assert len(cache) == 4

    def test_capacity_bound_evicts_fifo(self):
        from repro.geometry import CircleCache

        cache = CircleCache(capacity=3)
        for radius in (100.0, 200.0, 300.0, 400.0):
            cache.boundary_arrays(DENVER, radius, 16)
        assert len(cache) == 3
        # The oldest entry (100 km) was evicted; re-requesting recomputes.
        lats, _ = cache.boundary_arrays(DENVER, 100.0, 16)
        assert len(lats) == 16
