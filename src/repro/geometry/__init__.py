"""Geometric substrate for the Octant reproduction.

Everything the constraint solver needs to reason about areas on the globe:
spherical primitives (:class:`GeoPoint`, great-circle math), the projection
between the globe and the local working plane, simple polygons with boolean
algebra (the flattened form of the paper's Bezier-bounded regions),
disks/annuli, and the weighted :class:`Region` abstraction that holds an
estimated location region.
"""

from .bbox import BoundingBox
from .circles import (
    DEFAULT_CIRCLE_SEGMENTS,
    CircleCache,
    annulus_polygon,
    dilate_polygon,
    disk_polygon,
    erode_polygon,
    geodesic_circle_points,
    planar_circle_polygon,
    polygon_from_geopoints,
)
from .clipping import (
    ClippingError,
    clip_convex,
    clip_halfplane,
    intersect_polygons,
    subtract_convex,
    subtract_polygons,
    union_polygons,
)
from .convexhull import convex_hull, is_point_in_convex_hull, lower_hull, upper_hull
from .point import (
    Point2D,
    centroid_of_points,
    cross,
    dot,
    orientation,
    point_segment_distance,
    segment_intersection,
)
from .polygon import Polygon
from .projection import (
    AzimuthalEquidistantProjection,
    EquirectangularProjection,
    Projection,
    projection_for_points,
)
from .region import Region, RegionPiece
from .sphere import (
    EARTH_CIRCUMFERENCE_KM,
    EARTH_RADIUS_KM,
    FIBER_SPEED_KM_PER_MS,
    KM_PER_MILE,
    MILES_PER_KM,
    SPEED_OF_LIGHT_KM_PER_MS,
    GeoPoint,
    destination_arrays,
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

__all__ = [
    # sphere
    "GeoPoint",
    "EARTH_RADIUS_KM",
    "EARTH_CIRCUMFERENCE_KM",
    "KM_PER_MILE",
    "MILES_PER_KM",
    "SPEED_OF_LIGHT_KM_PER_MS",
    "FIBER_SPEED_KM_PER_MS",
    "haversine_km",
    "haversine_miles",
    "km_to_miles",
    "miles_to_km",
    "rtt_ms_to_max_distance_km",
    "distance_km_to_min_rtt_ms",
    "initial_bearing_deg",
    "destination_arrays",
    "destination_point",
    "geographic_midpoint",
    "normalize_latitude",
    "normalize_longitude",
    # planar primitives
    "Point2D",
    "dot",
    "cross",
    "orientation",
    "segment_intersection",
    "point_segment_distance",
    "centroid_of_points",
    "BoundingBox",
    "convex_hull",
    "upper_hull",
    "lower_hull",
    "is_point_in_convex_hull",
    # polygons and clipping
    "Polygon",
    "clip_convex",
    "clip_halfplane",
    "subtract_convex",
    "intersect_polygons",
    "union_polygons",
    "subtract_polygons",
    "ClippingError",
    # projections
    "Projection",
    "AzimuthalEquidistantProjection",
    "EquirectangularProjection",
    "projection_for_points",
    # disks and regions
    "DEFAULT_CIRCLE_SEGMENTS",
    "CircleCache",
    "geodesic_circle_points",
    "disk_polygon",
    "planar_circle_polygon",
    "annulus_polygon",
    "dilate_polygon",
    "erode_polygon",
    "polygon_from_geopoints",
    "Region",
    "RegionPiece",
]
