"""Tests for spherical primitives: distances, bearings, destination points."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    EARTH_CIRCUMFERENCE_KM,
    EARTH_RADIUS_KM,
    FIBER_SPEED_KM_PER_MS,
    GeoPoint,
    destination_point,
    distance_km_to_min_rtt_ms,
    geographic_midpoint,
    haversine_km,
    haversine_miles,
    initial_bearing_deg,
    km_to_miles,
    miles_to_km,
    normalize_latitude,
    normalize_longitude,
    rtt_ms_to_max_distance_km,
)

# Reference city coordinates used in several distance checks.
NEW_YORK = GeoPoint(40.7128, -74.0060)
LOS_ANGELES = GeoPoint(34.0522, -118.2437)
LONDON = GeoPoint(51.5074, -0.1278)
SYDNEY = GeoPoint(-33.8688, 151.2093)


class TestUnitConversions:
    def test_km_miles_roundtrip(self):
        assert miles_to_km(km_to_miles(123.4)) == pytest.approx(123.4)

    def test_mile_is_about_1_6_km(self):
        assert miles_to_km(1.0) == pytest.approx(1.609344)

    def test_fiber_speed_is_two_thirds_c(self):
        assert FIBER_SPEED_KM_PER_MS == pytest.approx(299.792458 * 2.0 / 3.0)

    def test_rtt_to_distance_uses_one_way_time(self):
        # 10 ms RTT -> 5 ms one-way -> ~999 km at 2/3 c.
        assert rtt_ms_to_max_distance_km(10.0) == pytest.approx(5.0 * FIBER_SPEED_KM_PER_MS)

    def test_distance_to_rtt_is_inverse(self):
        assert distance_km_to_min_rtt_ms(rtt_ms_to_max_distance_km(37.0)) == pytest.approx(37.0)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            rtt_ms_to_max_distance_km(-1.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            distance_km_to_min_rtt_ms(-5.0)


class TestNormalization:
    def test_longitude_wraps_eastward(self):
        assert normalize_longitude(190.0) == pytest.approx(-170.0)

    def test_longitude_wraps_westward(self):
        assert normalize_longitude(-185.0) == pytest.approx(175.0)

    def test_longitude_identity_in_range(self):
        assert normalize_longitude(45.0) == pytest.approx(45.0)

    def test_latitude_clamped(self):
        assert normalize_latitude(95.0) == 90.0
        assert normalize_latitude(-95.0) == -90.0


class TestGeoPoint:
    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError):
            GeoPoint(91.0, 0.0)

    @pytest.mark.parametrize(
        "lat, lon",
        [
            (math.nan, 0.0),
            (10.0, math.nan),
            (10.0, math.inf),
            (10.0, -math.inf),
            (math.inf, 0.0),
        ],
    )
    def test_rejects_non_finite_coordinates(self, lat, lon):
        with pytest.raises(ValueError, match="must be finite") as excinfo:
            GeoPoint(lat, lon)
        assert f"lat={lat!r}, lon={lon!r}" in str(excinfo.value)

    def test_normalizes_out_of_range_longitude(self):
        p = GeoPoint(0.0, 200.0)
        assert p.lon == pytest.approx(-160.0)

    def test_known_distance_nyc_la(self):
        # Great-circle NYC to LA is roughly 3940 km.
        assert NEW_YORK.distance_km(LOS_ANGELES) == pytest.approx(3940, rel=0.01)

    def test_known_distance_nyc_london(self):
        assert NEW_YORK.distance_km(LONDON) == pytest.approx(5570, rel=0.01)

    def test_distance_miles_consistent(self):
        d_km = NEW_YORK.distance_km(LONDON)
        assert NEW_YORK.distance_miles(LONDON) == pytest.approx(km_to_miles(d_km))

    def test_distance_to_self_is_zero(self):
        assert NEW_YORK.distance_km(NEW_YORK) == pytest.approx(0.0, abs=1e-9)

    def test_as_tuple(self):
        assert NEW_YORK.as_tuple() == (40.7128, -74.0060)


class TestHaversine:
    def test_symmetry(self):
        d1 = haversine_km(40.0, -74.0, 34.0, -118.0)
        d2 = haversine_km(34.0, -118.0, 40.0, -74.0)
        assert d1 == pytest.approx(d2)

    def test_quarter_circumference_pole_to_equator(self):
        d = haversine_km(90.0, 0.0, 0.0, 0.0)
        assert d == pytest.approx(EARTH_CIRCUMFERENCE_KM / 4.0, rel=1e-6)

    def test_antipodal_is_half_circumference(self):
        d = haversine_km(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(EARTH_CIRCUMFERENCE_KM / 2.0, rel=1e-6)

    def test_miles_variant(self):
        assert haversine_miles(40.0, -74.0, 34.0, -118.0) == pytest.approx(
            km_to_miles(haversine_km(40.0, -74.0, 34.0, -118.0))
        )


class TestBearingsAndDestinations:
    def test_bearing_due_north(self):
        assert initial_bearing_deg(0.0, 0.0, 10.0, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_bearing_due_east(self):
        assert initial_bearing_deg(0.0, 0.0, 0.0, 10.0) == pytest.approx(90.0, abs=1e-6)

    def test_bearing_due_south(self):
        assert initial_bearing_deg(10.0, 5.0, 0.0, 5.0) == pytest.approx(180.0, abs=1e-6)

    def test_destination_zero_distance_is_identity(self):
        p = destination_point(NEW_YORK, 123.0, 0.0)
        assert p.distance_km(NEW_YORK) == pytest.approx(0.0, abs=1e-6)

    def test_destination_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            destination_point(NEW_YORK, 0.0, -1.0)

    def test_destination_distance_preserved(self):
        for bearing in (0.0, 45.0, 90.0, 200.0, 359.0):
            dest = destination_point(LONDON, bearing, 800.0)
            assert LONDON.distance_km(dest) == pytest.approx(800.0, rel=1e-6)

    def test_destination_bearing_matches_request(self):
        dest = destination_point(NEW_YORK, 60.0, 1500.0)
        assert NEW_YORK.bearing_to(dest) == pytest.approx(60.0, abs=0.1)

    @given(
        lat=st.floats(-70, 70),
        lon=st.floats(-179, 179),
        bearing=st.floats(0, 360),
        distance=st.floats(1, 5000),
    )
    @settings(max_examples=100, deadline=None)
    def test_destination_roundtrip_property(self, lat, lon, bearing, distance):
        """Travelling d km always lands exactly d km away (great circle)."""
        origin = GeoPoint(lat, lon)
        dest = destination_point(origin, bearing, distance)
        assert origin.distance_km(dest) == pytest.approx(distance, rel=1e-5, abs=1e-3)


class TestGeographicMidpoint:
    def test_midpoint_of_single_point(self):
        assert geographic_midpoint([LONDON]).distance_km(LONDON) < 1e-6

    def test_midpoint_between_two_points_is_equidistant(self):
        mid = geographic_midpoint([NEW_YORK, LONDON])
        assert mid.distance_km(NEW_YORK) == pytest.approx(mid.distance_km(LONDON), rel=1e-6)

    def test_midpoint_on_segment(self):
        mid = geographic_midpoint([NEW_YORK, LONDON])
        total = NEW_YORK.distance_km(LONDON)
        assert mid.distance_km(NEW_YORK) == pytest.approx(total / 2.0, rel=1e-3)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            geographic_midpoint([])

    def test_midpoint_of_cluster_is_inside_cluster_extent(self):
        cluster = [GeoPoint(40 + i, -100 + i) for i in range(5)]
        mid = geographic_midpoint(cluster)
        assert 40 <= mid.lat <= 44.5
        assert -100 <= mid.lon <= -95.5
