"""Spherical geometry primitives used throughout Octant.

Octant anchors its constraint system to the physical globe: landmarks and
targets live at (latitude, longitude) coordinates, latency measurements are
converted into great-circle distance bounds, and the final location estimate
is a region on the Earth's surface.  This module provides the small set of
spherical operations everything else is built on:

* :class:`GeoPoint` -- an immutable latitude/longitude pair.
* :func:`haversine_km` / :meth:`GeoPoint.distance_km` -- great-circle distance.
* :func:`destination_point` -- travel a distance along an initial bearing.
* Physical constants: Earth radius, speed of light in fiber, and the
  conversion factors used by the paper (miles, the 2/3-c propagation bound).

All distances are in kilometres unless a function name says otherwise; the
paper reports errors in miles, so :data:`KM_PER_MILE` and helpers are provided
for the evaluation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "EARTH_RADIUS_KM",
    "EARTH_CIRCUMFERENCE_KM",
    "KM_PER_MILE",
    "MILES_PER_KM",
    "SPEED_OF_LIGHT_KM_PER_MS",
    "FIBER_SPEED_KM_PER_MS",
    "GeoPoint",
    "haversine_km",
    "haversine_miles",
    "km_to_miles",
    "miles_to_km",
    "rtt_ms_to_max_distance_km",
    "distance_km_to_min_rtt_ms",
    "initial_bearing_deg",
    "destination_point",
    "destination_arrays",
    "geographic_midpoint",
    "normalize_longitude",
    "normalize_latitude",
]

#: Mean Earth radius (km), the value used for all great-circle computations.
EARTH_RADIUS_KM = 6371.0088

#: Earth circumference (km) derived from :data:`EARTH_RADIUS_KM`.
EARTH_CIRCUMFERENCE_KM = 2.0 * math.pi * EARTH_RADIUS_KM

#: Kilometres per statute mile.  The paper reports all errors in miles.
KM_PER_MILE = 1.609344

#: Statute miles per kilometre.
MILES_PER_KM = 1.0 / KM_PER_MILE

#: Speed of light in vacuum, expressed in km per millisecond.
SPEED_OF_LIGHT_KM_PER_MS = 299792.458 / 1000.0

#: Propagation speed of light in fiber, approximately 2/3 of c (km/ms).
#: This is the conservative bound the paper uses to translate a round-trip
#: latency into a maximum great-circle distance.
FIBER_SPEED_KM_PER_MS = SPEED_OF_LIGHT_KM_PER_MS * (2.0 / 3.0)


def km_to_miles(km: float) -> float:
    """Convert kilometres to statute miles."""
    return km * MILES_PER_KM


def miles_to_km(miles: float) -> float:
    """Convert statute miles to kilometres."""
    return miles * KM_PER_MILE


def rtt_ms_to_max_distance_km(rtt_ms: float) -> float:
    """Maximum one-way great-circle distance implied by a round-trip time.

    A round-trip latency of ``rtt_ms`` milliseconds bounds the one-way
    distance by ``rtt_ms / 2`` milliseconds of propagation at 2/3 the speed
    of light.  This is the loose-but-sound positive constraint of Section 2.1.
    """
    if rtt_ms < 0:
        raise ValueError(f"round-trip time must be non-negative, got {rtt_ms!r}")
    return (rtt_ms / 2.0) * FIBER_SPEED_KM_PER_MS


def distance_km_to_min_rtt_ms(distance_km: float) -> float:
    """Minimum round-trip time implied by a one-way great-circle distance."""
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km!r}")
    return 2.0 * distance_km / FIBER_SPEED_KM_PER_MS


def normalize_longitude(lon_deg: float) -> float:
    """Wrap a longitude into the canonical ``[-180, 180)`` range."""
    lon = math.fmod(lon_deg + 180.0, 360.0)
    if lon < 0:
        lon += 360.0
    return lon - 180.0


def normalize_latitude(lat_deg: float) -> float:
    """Clamp a latitude into ``[-90, 90]``.

    Latitudes slightly outside the legal range can be produced by destination
    point computations near the poles; clamping keeps downstream code simple.
    """
    return max(-90.0, min(90.0, lat_deg))


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the surface of the Earth.

    Attributes
    ----------
    lat:
        Latitude in decimal degrees, positive north.
    lon:
        Longitude in decimal degrees, positive east.
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(
                f"coordinates must be finite: lat={self.lat!r}, lon={self.lon!r}"
            )
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range [-90, 90]: {self.lat!r}")
        if not (-180.0 <= self.lon <= 180.0):
            object.__setattr__(self, "lon", normalize_longitude(self.lon))

    # ------------------------------------------------------------------ #
    # Distances and bearings
    # ------------------------------------------------------------------ #
    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)

    def distance_miles(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in statute miles."""
        return km_to_miles(self.distance_km(other))

    def bearing_to(self, other: "GeoPoint") -> float:
        """Initial bearing (degrees clockwise from north) towards ``other``."""
        return initial_bearing_deg(self.lat, self.lon, other.lat, other.lon)

    def destination(self, bearing_deg: float, distance_km: float) -> "GeoPoint":
        """Point reached by travelling ``distance_km`` along ``bearing_deg``."""
        return destination_point(self, bearing_deg, distance_km)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def as_tuple(self) -> tuple[float, float]:
        """Return ``(lat, lon)`` as a plain tuple."""
        return (self.lat, self.lon)

    def __str__(self) -> str:  # pragma: no cover - repr formatting
        ns = "N" if self.lat >= 0 else "S"
        ew = "E" if self.lon >= 0 else "W"
        return f"{abs(self.lat):.4f}{ns} {abs(self.lon):.4f}{ew}"


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon pairs, in kilometres.

    Uses the haversine formula, which is numerically well behaved for the
    small-to-continental distances Octant deals with.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    )
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def haversine_miles(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon pairs, in statute miles."""
    return km_to_miles(haversine_km(lat1, lon1, lat2, lon2))


def initial_bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial great-circle bearing from point 1 to point 2.

    Returns degrees in ``[0, 360)`` measured clockwise from true north.
    """
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dlmb = math.radians(lon2 - lon1)
    y = math.sin(dlmb) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlmb)
    theta = math.degrees(math.atan2(y, x))
    return theta % 360.0


def destination_point(origin: GeoPoint, bearing_deg: float, distance_km: float) -> GeoPoint:
    """Return the point ``distance_km`` away from ``origin`` along ``bearing_deg``.

    The computation follows the standard spherical law of cosines solution for
    the "direct geodesic" problem on a sphere.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km!r}")
    delta = distance_km / EARTH_RADIUS_KM
    theta = math.radians(bearing_deg)
    phi1 = math.radians(origin.lat)
    lmb1 = math.radians(origin.lon)

    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * sin_phi2
    lmb2 = lmb1 + math.atan2(y, x)

    return GeoPoint(
        normalize_latitude(math.degrees(phi2)),
        normalize_longitude(math.degrees(lmb2)),
    )


def destination_arrays(
    lats_deg: "object",
    lons_deg: "object",
    bearings_deg: "object",
    distances_km: "object",
) -> tuple["object", "object"]:
    """Vectorized :func:`destination_point` over aligned coordinate arrays.

    Takes origin latitude/longitude, bearing and distance arrays (or
    broadcastable scalars), returns ``(lat_deg, lon_deg)`` arrays.  Every
    element is bitwise identical to the corresponding
    ``destination_point(GeoPoint(lat, lon), bearing, distance)`` result:
    the elementwise steps run as array operations only on builds whose
    NumPy trig matches libm exactly, the inverse trig always goes through
    ``math.asin``/``math.atan2`` per element, and otherwise the whole
    function falls back to the scalar loop.  This is the realization kernel
    the cohort-axis pipeline uses to pool geodesic circle boundaries across
    a whole batch of targets.
    """
    import numpy as np

    from ._exact import NUMPY_TRIG_MATCHES_LIBM, asin_elementwise, atan2_elementwise

    lats = np.broadcast_arrays(
        np.asarray(lats_deg, dtype=float),
        np.asarray(lons_deg, dtype=float),
        np.asarray(bearings_deg, dtype=float),
        np.asarray(distances_km, dtype=float),
    )
    lat_a, lon_a, bearing_a, dist_a = lats
    if not NUMPY_TRIG_MATCHES_LIBM:
        out_lat = np.empty(lat_a.shape)
        out_lon = np.empty(lat_a.shape)
        flat = zip(
            lat_a.ravel().tolist(),
            lon_a.ravel().tolist(),
            bearing_a.ravel().tolist(),
            dist_a.ravel().tolist(),
        )
        lat_flat = out_lat.ravel()
        lon_flat = out_lon.ravel()
        for i, (lat, lon, bearing, dist) in enumerate(flat):
            p = destination_point(GeoPoint(lat, lon), bearing, dist)
            lat_flat[i] = p.lat
            lon_flat[i] = p.lon
        return lat_flat.reshape(lat_a.shape), lon_flat.reshape(lat_a.shape)

    if dist_a.size and float(np.min(dist_a)) < 0:
        raise ValueError("distance must be non-negative")
    delta = dist_a / EARTH_RADIUS_KM
    theta = np.radians(bearing_a)
    phi1 = np.radians(lat_a)
    lmb1 = np.radians(lon_a)

    sin_phi1 = np.sin(phi1)
    cos_phi1 = np.cos(phi1)
    sin_delta = np.sin(delta)
    cos_delta = np.cos(delta)
    sin_phi2 = sin_phi1 * cos_delta + cos_phi1 * sin_delta * np.cos(theta)
    sin_phi2 = np.minimum(1.0, np.maximum(-1.0, sin_phi2))
    phi2 = asin_elementwise(sin_phi2)
    y = np.sin(theta) * sin_delta * cos_phi1
    x = cos_delta - sin_phi1 * sin_phi2
    lmb2 = lmb1 + atan2_elementwise(y, x)

    out_lat = np.maximum(-90.0, np.minimum(90.0, np.degrees(phi2)))
    lon = np.fmod(np.degrees(lmb2) + 180.0, 360.0)
    lon = np.where(lon < 0, lon + 360.0, lon) - 180.0
    return out_lat, lon


def geographic_midpoint(points: Sequence[GeoPoint] | Iterable[GeoPoint]) -> GeoPoint:
    """Return the geographic midpoint (centroid on the sphere) of ``points``.

    Each point is converted to a 3-D unit vector, the vectors are averaged and
    the mean is projected back to the sphere.  Raises ``ValueError`` on an
    empty input.
    """
    pts = list(points)
    if not pts:
        raise ValueError("geographic_midpoint requires at least one point")
    x = y = z = 0.0
    for p in pts:
        phi = math.radians(p.lat)
        lmb = math.radians(p.lon)
        x += math.cos(phi) * math.cos(lmb)
        y += math.cos(phi) * math.sin(lmb)
        z += math.sin(phi)
    n = float(len(pts))
    x, y, z = x / n, y / n, z / n
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        # Antipodal degenerate configuration; fall back to the first point.
        return pts[0]
    lat = math.degrees(math.asin(z / norm))
    lon = math.degrees(math.atan2(y, x))
    return GeoPoint(normalize_latitude(lat), normalize_longitude(lon))
