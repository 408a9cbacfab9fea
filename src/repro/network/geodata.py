"""Geographic ground truth used by the synthetic Internet substrate.

The paper's evaluation runs on 51 PlanetLab hosts whose true positions were
determined externally, plus auxiliary data sources: router DNS names carrying
city codes, WHOIS records carrying zipcodes, and knowledge of oceans and
uninhabited areas.  This module provides the equivalent ground truth for the
simulator:

* :data:`WORLD_CITIES` -- a catalogue of cities (name, country, IATA-style
  code, coordinates, population, postal code) used to place routers, hosts
  and PoPs.  Coordinates are real; the catalogue is intentionally biased
  toward North America and Europe, mirroring the PlanetLab footprint of 2006.
* :data:`OCEAN_REGIONS` -- coarse convex polygons covering open ocean,
  which Octant uses as negative geographic constraints (Section 2.5).
* :data:`UNINHABITED_REGIONS` -- coarse polygons for large uninhabited land
  areas (northern Canada, Greenland, the Sahara) used the same way.
* :func:`city_by_code` / :func:`nearest_city` -- lookup helpers.

Everything here is plain data: no randomness, no network access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..geometry import GeoPoint

__all__ = [
    "City",
    "GeoRegion",
    "WORLD_CITIES",
    "US_CITIES",
    "EUROPEAN_CITIES",
    "OCEAN_REGIONS",
    "UNINHABITED_REGIONS",
    "DETAILED_OCEAN_REGIONS",
    "DETAILED_UNINHABITED_REGIONS",
    "city_by_code",
    "city_by_name",
    "nearest_city",
    "cities_in_bbox",
]


@dataclass(frozen=True)
class City:
    """A city used as an anchor for routers, PoPs and hosts.

    Attributes
    ----------
    name:
        Human-readable city name.
    country:
        ISO-like two-letter country code.
    code:
        Three-letter IATA-style airport code; this is the token embedded in
        router DNS names (``...ord2.core.example.net``) that the undns-style
        parser extracts.
    location:
        Geographic coordinates of the city centre.
    population:
        Approximate metro population, used to weight router placement.
    postal_code:
        A representative postal/zip code for the city centre, used by the
        synthetic WHOIS registry.
    """

    name: str
    country: str
    code: str
    location: GeoPoint
    population: int
    postal_code: str


def _c(name: str, country: str, code: str, lat: float, lon: float, pop: int, zipc: str) -> City:
    return City(name, country, code, GeoPoint(lat, lon), pop, zipc)


#: Cities in the United States and Canada.  Postal codes are real city-centre
#: codes; populations are rounded metro figures.
US_CITIES: tuple[City, ...] = (
    _c("New York", "US", "JFK", 40.7128, -74.0060, 19000000, "10001"),
    _c("Los Angeles", "US", "LAX", 34.0522, -118.2437, 13000000, "90012"),
    _c("Chicago", "US", "ORD", 41.8781, -87.6298, 9500000, "60601"),
    _c("Houston", "US", "IAH", 29.7604, -95.3698, 7000000, "77002"),
    _c("Phoenix", "US", "PHX", 33.4484, -112.0740, 4900000, "85004"),
    _c("Philadelphia", "US", "PHL", 39.9526, -75.1652, 6100000, "19103"),
    _c("San Antonio", "US", "SAT", 29.4241, -98.4936, 2550000, "78205"),
    _c("San Diego", "US", "SAN", 32.7157, -117.1611, 3300000, "92101"),
    _c("Dallas", "US", "DFW", 32.7767, -96.7970, 7600000, "75201"),
    _c("San Jose", "US", "SJC", 37.3382, -121.8863, 2000000, "95113"),
    _c("Austin", "US", "AUS", 30.2672, -97.7431, 2300000, "78701"),
    _c("Seattle", "US", "SEA", 47.6062, -122.3321, 4000000, "98101"),
    _c("Denver", "US", "DEN", 39.7392, -104.9903, 2950000, "80202"),
    _c("Washington", "US", "IAD", 38.9072, -77.0369, 6300000, "20001"),
    _c("Boston", "US", "BOS", 42.3601, -71.0589, 4900000, "02108"),
    _c("Nashville", "US", "BNA", 36.1627, -86.7816, 2000000, "37201"),
    _c("Detroit", "US", "DTW", 42.3314, -83.0458, 4300000, "48226"),
    _c("Portland", "US", "PDX", 45.5152, -122.6784, 2500000, "97204"),
    _c("Las Vegas", "US", "LAS", 36.1699, -115.1398, 2300000, "89101"),
    _c("Memphis", "US", "MEM", 35.1495, -90.0490, 1350000, "38103"),
    _c("Baltimore", "US", "BWI", 39.2904, -76.6122, 2800000, "21202"),
    _c("Milwaukee", "US", "MKE", 43.0389, -87.9065, 1570000, "53202"),
    _c("Albuquerque", "US", "ABQ", 35.0844, -106.6504, 920000, "87102"),
    _c("Kansas City", "US", "MCI", 39.0997, -94.5786, 2200000, "64105"),
    _c("Atlanta", "US", "ATL", 33.7490, -84.3880, 6100000, "30303"),
    _c("Miami", "US", "MIA", 25.7617, -80.1918, 6200000, "33130"),
    _c("Minneapolis", "US", "MSP", 44.9778, -93.2650, 3700000, "55401"),
    _c("Cleveland", "US", "CLE", 41.4993, -81.6944, 2050000, "44113"),
    _c("New Orleans", "US", "MSY", 29.9511, -90.0715, 1270000, "70112"),
    _c("Tampa", "US", "TPA", 27.9506, -82.4572, 3200000, "33602"),
    _c("Pittsburgh", "US", "PIT", 40.4406, -79.9959, 2300000, "15222"),
    _c("St. Louis", "US", "STL", 38.6270, -90.1994, 2800000, "63101"),
    _c("Salt Lake City", "US", "SLC", 40.7608, -111.8910, 1260000, "84101"),
    _c("Raleigh", "US", "RDU", 35.7796, -78.6382, 1450000, "27601"),
    _c("Columbus", "US", "CMH", 39.9612, -82.9988, 2150000, "43215"),
    _c("Indianapolis", "US", "IND", 39.7684, -86.1581, 2100000, "46204"),
    _c("Charlotte", "US", "CLT", 35.2271, -80.8431, 2700000, "28202"),
    _c("Sacramento", "US", "SMF", 38.5816, -121.4944, 2400000, "95814"),
    _c("Cincinnati", "US", "CVG", 39.1031, -84.5120, 2250000, "45202"),
    _c("Orlando", "US", "MCO", 28.5383, -81.3792, 2700000, "32801"),
    _c("Buffalo", "US", "BUF", 42.8864, -78.8784, 1160000, "14202"),
    _c("Rochester", "US", "ROC", 43.1566, -77.6088, 1080000, "14604"),
    _c("Ithaca", "US", "ITH", 42.4440, -76.5019, 105000, "14850"),
    _c("Princeton", "US", "PCT", 40.3431, -74.6551, 31000, "08540"),
    _c("Berkeley", "US", "JBK", 37.8715, -122.2730, 121000, "94704"),
    _c("Ann Arbor", "US", "ARB", 42.2808, -83.7430, 122000, "48104"),
    _c("Madison", "US", "MSN", 43.0731, -89.4012, 270000, "53703"),
    _c("Boulder", "US", "WBU", 40.0150, -105.2705, 108000, "80302"),
    _c("Durham", "US", "RDM", 35.9940, -78.8986, 290000, "27701"),
    _c("Pasadena", "US", "PAS", 34.1478, -118.1445, 140000, "91101"),
    _c("Santa Barbara", "US", "SBA", 34.4208, -119.6982, 92000, "93101"),
    _c("Eugene", "US", "EUG", 44.0521, -123.0868, 172000, "97401"),
    _c("Tucson", "US", "TUS", 32.2226, -110.9747, 545000, "85701"),
    _c("El Paso", "US", "ELP", 31.7619, -106.4850, 680000, "79901"),
    _c("Omaha", "US", "OMA", 41.2565, -95.9345, 480000, "68102"),
    _c("Boise", "US", "BOI", 43.6150, -116.2023, 235000, "83702"),
    _c("Anchorage", "US", "ANC", 61.2181, -149.9003, 290000, "99501"),
    _c("Honolulu", "US", "HNL", 21.3069, -157.8583, 350000, "96813"),
    _c("Toronto", "CA", "YYZ", 43.6532, -79.3832, 6200000, "M5H"),
    _c("Montreal", "CA", "YUL", 45.5017, -73.5673, 4200000, "H2Y"),
    _c("Vancouver", "CA", "YVR", 49.2827, -123.1207, 2600000, "V6B"),
    _c("Ottawa", "CA", "YOW", 45.4215, -75.6972, 1400000, "K1P"),
    _c("Calgary", "CA", "YYC", 51.0447, -114.0719, 1500000, "T2P"),
    _c("Waterloo", "CA", "YKF", 43.4643, -80.5204, 580000, "N2L"),
    _c("Halifax", "CA", "YHZ", 44.6488, -63.5752, 440000, "B3J"),
    _c("Winnipeg", "CA", "YWG", 49.8951, -97.1384, 830000, "R3C"),
    _c("Edmonton", "CA", "YEG", 53.5461, -113.4938, 1400000, "T5J"),
)

#: Cities in Europe.
EUROPEAN_CITIES: tuple[City, ...] = (
    _c("London", "GB", "LHR", 51.5074, -0.1278, 14000000, "EC1A"),
    _c("Cambridge", "GB", "CBG", 52.2053, 0.1218, 130000, "CB2"),
    _c("Manchester", "GB", "MAN", 53.4808, -2.2426, 2800000, "M1"),
    _c("Edinburgh", "GB", "EDI", 55.9533, -3.1883, 540000, "EH1"),
    _c("Dublin", "IE", "DUB", 53.3498, -6.2603, 1400000, "D01"),
    _c("Paris", "FR", "CDG", 48.8566, 2.3522, 12500000, "75001"),
    _c("Lyon", "FR", "LYS", 45.7640, 4.8357, 2300000, "69001"),
    _c("Grenoble", "FR", "GNB", 45.1885, 5.7245, 690000, "38000"),
    _c("Sophia Antipolis", "FR", "NCE", 43.6169, 7.0548, 990000, "06560"),
    _c("Amsterdam", "NL", "AMS", 52.3676, 4.9041, 2480000, "1012"),
    _c("Delft", "NL", "DLF", 52.0116, 4.3571, 104000, "2611"),
    _c("Brussels", "BE", "BRU", 50.8503, 4.3517, 2100000, "1000"),
    _c("Frankfurt", "DE", "FRA", 50.1109, 8.6821, 2300000, "60311"),
    _c("Berlin", "DE", "BER", 52.5200, 13.4050, 3700000, "10115"),
    _c("Munich", "DE", "MUC", 48.1351, 11.5820, 2600000, "80331"),
    _c("Karlsruhe", "DE", "FKB", 49.0069, 8.4037, 310000, "76131"),
    _c("Hamburg", "DE", "HAM", 53.5511, 9.9937, 1850000, "20095"),
    _c("Zurich", "CH", "ZRH", 47.3769, 8.5417, 1400000, "8001"),
    _c("Geneva", "CH", "GVA", 46.2044, 6.1432, 600000, "1201"),
    _c("Lausanne", "CH", "QLS", 46.5197, 6.6323, 420000, "1003"),
    _c("Vienna", "AT", "VIE", 48.2082, 16.3738, 1900000, "1010"),
    _c("Milan", "IT", "MXP", 45.4642, 9.1900, 3200000, "20121"),
    _c("Rome", "IT", "FCO", 41.9028, 12.4964, 4300000, "00184"),
    _c("Pisa", "IT", "PSA", 43.7228, 10.4017, 90000, "56126"),
    _c("Bologna", "IT", "BLQ", 44.4949, 11.3426, 1000000, "40121"),
    _c("Madrid", "ES", "MAD", 40.4168, -3.7038, 6700000, "28013"),
    _c("Barcelona", "ES", "BCN", 41.3874, 2.1686, 5600000, "08002"),
    _c("Lisbon", "PT", "LIS", 38.7223, -9.1393, 2900000, "1100"),
    _c("Stockholm", "SE", "ARN", 59.3293, 18.0686, 2400000, "111 29"),
    _c("Lulea", "SE", "LLA", 65.5848, 22.1567, 78000, "972 38"),
    _c("Gothenburg", "SE", "GOT", 57.7089, 11.9746, 1050000, "411 06"),
    _c("Copenhagen", "DK", "CPH", 55.6761, 12.5683, 2100000, "1050"),
    _c("Oslo", "NO", "OSL", 59.9139, 10.7522, 1050000, "0151"),
    _c("Trondheim", "NO", "TRD", 63.4305, 10.3951, 200000, "7010"),
    _c("Helsinki", "FI", "HEL", 60.1699, 24.9384, 1500000, "00100"),
    _c("Warsaw", "PL", "WAW", 52.2297, 21.0122, 3100000, "00-001"),
    _c("Wroclaw", "PL", "WRO", 51.1079, 17.0385, 640000, "50-001"),
    _c("Prague", "CZ", "PRG", 50.0755, 14.4378, 1300000, "110 00"),
    _c("Budapest", "HU", "BUD", 47.4979, 19.0402, 1750000, "1011"),
    _c("Athens", "GR", "ATH", 37.9838, 23.7275, 3150000, "105 57"),
    _c("Moscow", "RU", "SVO", 55.7558, 37.6173, 12500000, "101000"),
    _c("St. Petersburg", "RU", "LED", 59.9311, 30.3609, 5400000, "190000"),
)

#: Cities in Asia, Oceania and South America.  Kept smaller, as the PlanetLab
#: footprint in 2006 was sparse there, but enough to exercise long routes.
OTHER_CITIES: tuple[City, ...] = (
    _c("Tokyo", "JP", "NRT", 35.6762, 139.6503, 37000000, "100-0001"),
    _c("Osaka", "JP", "KIX", 34.6937, 135.5023, 19000000, "530-0001"),
    _c("Seoul", "KR", "ICN", 37.5665, 126.9780, 25000000, "04524"),
    _c("Beijing", "CN", "PEK", 39.9042, 116.4074, 21500000, "100000"),
    _c("Shanghai", "CN", "PVG", 31.2304, 121.4737, 26300000, "200000"),
    _c("Hong Kong", "HK", "HKG", 22.3193, 114.1694, 7500000, "999077"),
    _c("Taipei", "TW", "TPE", 25.0330, 121.5654, 7000000, "100"),
    _c("Singapore", "SG", "SIN", 1.3521, 103.8198, 5700000, "018989"),
    _c("Bangalore", "IN", "BLR", 12.9716, 77.5946, 13000000, "560001"),
    _c("Mumbai", "IN", "BOM", 19.0760, 72.8777, 20400000, "400001"),
    _c("Sydney", "AU", "SYD", -33.8688, 151.2093, 5300000, "2000"),
    _c("Melbourne", "AU", "MEL", -37.8136, 144.9631, 5000000, "3000"),
    _c("Auckland", "NZ", "AKL", -36.8509, 174.7645, 1650000, "1010"),
    _c("Sao Paulo", "BR", "GRU", -23.5505, -46.6333, 22000000, "01000-000"),
    _c("Rio de Janeiro", "BR", "GIG", -22.9068, -43.1729, 13500000, "20000-000"),
    _c("Buenos Aires", "AR", "EZE", -34.6037, -58.3816, 15000000, "C1002"),
    _c("Santiago", "CL", "SCL", -33.4489, -70.6693, 6800000, "8320000"),
    _c("Mexico City", "MX", "MEX", 19.4326, -99.1332, 21800000, "06000"),
    _c("Tel Aviv", "IL", "TLV", 32.0853, 34.7818, 4000000, "6100000"),
    _c("Cairo", "EG", "CAI", 30.0444, 31.2357, 20900000, "11511"),
    _c("Johannesburg", "ZA", "JNB", -26.2041, 28.0473, 10000000, "2000"),
)

#: The complete city catalogue.
WORLD_CITIES: tuple[City, ...] = US_CITIES + EUROPEAN_CITIES + OTHER_CITIES

_CITIES_BY_CODE = {city.code: city for city in WORLD_CITIES}
_CITIES_BY_NAME = {city.name.lower(): city for city in WORLD_CITIES}


@dataclass(frozen=True)
class GeoRegion:
    """A named closed polygon on the globe used as a geographic constraint.

    Regions are stored as rings of geographic points.  The *coarse*
    catalogue keeps ocean and uninhabited regions convex, which historically
    kept the polygon algebra on its robust fast path; the *detailed*
    catalogue (``DETAILED_OCEAN_REGIONS`` / ``DETAILED_UNINHABITED_REGIONS``)
    follows coastlines with non-convex rings -- excluding strictly more open
    water and desert -- and relies on the solver's batched Greiner-Hormann
    subtraction of non-convex exclusions.  Both err on the side of smaller
    regions, which keeps the constraints sound (they never exclude land a
    target could occupy).
    """

    name: str
    ring: tuple[GeoPoint, ...]
    kind: str = "ocean"

    def __post_init__(self) -> None:
        if len(self.ring) < 3:
            raise ValueError(f"region {self.name!r} needs at least 3 boundary points")


def _region(name: str, kind: str, *latlon: tuple[float, float]) -> GeoRegion:
    return GeoRegion(name, tuple(GeoPoint(lat, lon) for lat, lon in latlon), kind)


#: Coarse convex polygons covering open ocean.  Used as negative constraints:
#: an Internet host is not in the middle of the North Atlantic.
OCEAN_REGIONS: tuple[GeoRegion, ...] = (
    _region(
        "north-atlantic",
        "ocean",
        (50.0, -40.0),
        (45.0, -20.0),
        (35.0, -20.0),
        (25.0, -45.0),
        (30.0, -65.0),
        (40.0, -60.0),
    ),
    _region(
        "mid-atlantic",
        "ocean",
        (25.0, -55.0),
        (20.0, -30.0),
        (5.0, -25.0),
        (0.0, -35.0),
        (10.0, -50.0),
    ),
    _region(
        "north-pacific-east",
        "ocean",
        (45.0, -150.0),
        (45.0, -130.0),
        (25.0, -122.0),
        (15.0, -135.0),
        (20.0, -155.0),
        (35.0, -160.0),
    ),
    _region(
        "north-pacific-west",
        "ocean",
        (42.0, 165.0),
        (42.0, 179.0),
        (15.0, 179.0),
        (10.0, 160.0),
        (25.0, 150.0),
    ),
    _region(
        "gulf-of-mexico",
        "ocean",
        (28.5, -94.0),
        (28.5, -86.0),
        (24.0, -84.0),
        (21.5, -90.0),
        (23.5, -96.0),
    ),
    _region(
        "hudson-bay",
        "ocean",
        (62.0, -92.0),
        (62.0, -80.0),
        (56.0, -78.0),
        (54.0, -84.0),
        (56.0, -92.0),
    ),
    _region(
        "labrador-sea",
        "ocean",
        (60.0, -60.0),
        (58.0, -48.0),
        (50.0, -45.0),
        (48.0, -52.0),
        (54.0, -58.0),
    ),
    _region(
        "norwegian-sea",
        "ocean",
        (70.0, -5.0),
        (68.0, 8.0),
        (63.0, 3.0),
        (62.0, -8.0),
        (66.0, -12.0),
    ),
    _region(
        "bay-of-biscay",
        "ocean",
        (47.5, -8.0),
        (47.5, -3.0),
        (44.5, -2.5),
        (44.0, -7.0),
    ),
    _region(
        "mediterranean-west",
        "ocean",
        (42.0, 4.0),
        (41.0, 9.5),
        (37.5, 9.0),
        (36.5, 2.0),
        (39.0, 0.5),
    ),
    _region(
        "south-atlantic",
        "ocean",
        (-10.0, -30.0),
        (-10.0, -10.0),
        (-35.0, 0.0),
        (-40.0, -30.0),
        (-25.0, -38.0),
    ),
    _region(
        "indian-ocean",
        "ocean",
        (-5.0, 65.0),
        (-5.0, 95.0),
        (-30.0, 100.0),
        (-35.0, 70.0),
        (-20.0, 60.0),
    ),
    _region(
        "tasman-sea",
        "ocean",
        (-32.0, 155.0),
        (-34.0, 170.0),
        (-45.0, 168.0),
        (-45.0, 152.0),
    ),
)

#: Coarse polygons for large, essentially uninhabited land areas.
UNINHABITED_REGIONS: tuple[GeoRegion, ...] = (
    _region(
        "greenland-interior",
        "uninhabited",
        (78.0, -55.0),
        (78.0, -30.0),
        (65.0, -35.0),
        (63.0, -48.0),
        (70.0, -52.0),
    ),
    _region(
        "northern-canada",
        "uninhabited",
        (72.0, -120.0),
        (72.0, -95.0),
        (63.0, -95.0),
        (62.0, -115.0),
        (66.0, -122.0),
    ),
    _region(
        "sahara-interior",
        "uninhabited",
        (28.0, -5.0),
        (28.0, 20.0),
        (18.0, 22.0),
        (16.0, -2.0),
        (22.0, -8.0),
    ),
    _region(
        "australian-outback",
        "uninhabited",
        (-20.0, 125.0),
        (-20.0, 137.0),
        (-29.0, 137.0),
        (-29.0, 124.0),
    ),
    _region(
        "siberian-north",
        "uninhabited",
        (72.0, 80.0),
        (72.0, 120.0),
        (64.0, 118.0),
        (63.0, 82.0),
    ),
)


#: Higher-fidelity *non-convex* ocean rings: each hugs its basin's
#: coastlines instead of inscribing a convex core, so it excludes strictly
#: more open water than its coarse counterpart while staying clear of land.
#: Selected by ``OctantConfig.geographic_detail="detailed"``; the solver
#: subtracts them through the batched Greiner-Hormann exclusion path.
DETAILED_OCEAN_REGIONS: tuple[GeoRegion, ...] = (
    _region(
        "north-atlantic-detailed",
        "ocean",
        (52.0, -38.0),
        (50.0, -18.0),
        (44.0, -14.0),
        (40.0, -16.0),  # concave bend off Iberia
        (34.0, -16.0),
        (26.0, -22.0),
        (23.0, -45.0),
        (27.0, -62.0),
        (33.0, -68.0),
        (36.0, -62.0),  # concave bend around Bermuda's longitude
        (40.0, -62.0),
        (44.0, -52.0),
    ),
    _region(
        "mid-atlantic-detailed",
        "ocean",
        (25.0, -58.0),
        (21.0, -32.0),
        (12.0, -26.0),  # concave step along the African bulge
        (6.0, -22.0),
        (0.0, -30.0),
        (4.0, -40.0),  # concave bend off the Brazilian shoulder
        (12.0, -52.0),
    ),
    _region(
        "north-pacific-detailed",
        "ocean",
        (48.0, -155.0),
        (46.0, -132.0),
        (36.0, -126.0),
        (30.0, -122.0),  # concave hug of the Californian coast
        (22.0, -130.0),
        (14.0, -140.0),
        (18.0, -152.0),  # concave bend north of Hawaii's longitude band
        (28.0, -162.0),
        (40.0, -165.0),
    ),
    _region(
        "gulf-of-mexico-detailed",
        "ocean",
        (28.8, -95.0),
        (28.8, -89.0),
        (26.8, -88.0),  # concave notch below the Mississippi fan
        (27.0, -85.5),
        (24.0, -84.5),
        (23.0, -86.0),  # concave sweep north of the Cuban shelf
        (21.5, -91.0),
        (23.0, -96.0),
        (25.5, -96.5),
    ),
    _region(
        "labrador-sea-detailed",
        "ocean",
        (61.0, -60.0),
        (59.5, -50.0),
        (55.0, -48.0),  # concave bend toward the Greenland tip
        (50.0, -46.0),
        (48.5, -51.0),
        (52.0, -54.0),  # concave hug of the Newfoundland shelf
        (56.0, -58.0),
    ),
    _region(
        "bay-of-biscay-detailed",
        "ocean",
        (47.8, -8.5),
        (47.5, -4.0),
        (46.0, -3.2),  # concave hug of the French coast
        (44.5, -2.2),
        (43.9, -5.0),
        (44.5, -7.5),
        (46.0, -7.0),  # concave bend back toward the shelf edge
    ),
)

#: Higher-fidelity *non-convex* uninhabited-land rings (see above).
DETAILED_UNINHABITED_REGIONS: tuple[GeoRegion, ...] = (
    _region(
        "greenland-interior-detailed",
        "uninhabited",
        (78.5, -55.0),
        (79.0, -40.0),
        (76.0, -28.0),
        (73.0, -36.0),  # concave step into the eastern fjords
        (70.0, -30.0),
        (66.0, -36.0),
        (63.5, -46.0),
        (67.0, -47.0),  # concave step along the western settlements
        (72.0, -54.0),
    ),
    _region(
        "sahara-interior-detailed",
        "uninhabited",
        (28.5, -6.0),
        (29.0, 8.0),
        (26.0, 14.0),  # concave bend around the Hoggar massif
        (27.0, 21.0),
        (19.0, 24.0),
        (16.5, 12.0),  # concave bend north of the Sahel towns
        (15.5, -1.0),
        (21.0, -9.0),
    ),
    _region(
        "australian-outback-detailed",
        "uninhabited",
        (-19.5, 124.5),
        (-20.0, 132.0),
        (-23.0, 134.5),  # concave notch around the Alice Springs corridor
        (-20.5, 137.5),
        (-27.0, 139.0),
        (-29.5, 130.0),
        (-26.0, 126.0),  # concave bend along the western desert tracks
    ),
)


def city_by_code(code: str) -> City:
    """Look a city up by its three-letter code; raises ``KeyError`` if unknown."""
    try:
        return _CITIES_BY_CODE[code.upper()]
    except KeyError:
        raise KeyError(f"unknown city code {code!r}") from None


def city_by_name(name: str) -> City:
    """Look a city up by (case-insensitive) name; raises ``KeyError`` if unknown."""
    try:
        return _CITIES_BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(f"unknown city name {name!r}") from None


def nearest_city(location: GeoPoint, candidates: Sequence[City] | None = None) -> City:
    """The catalogue city closest to ``location`` (great-circle distance)."""
    pool: Sequence[City] = candidates if candidates is not None else WORLD_CITIES
    if not pool:
        raise ValueError("no candidate cities supplied")
    return min(pool, key=lambda c: c.location.distance_km(location))


def cities_in_bbox(
    min_lat: float,
    max_lat: float,
    min_lon: float,
    max_lon: float,
    candidates: Iterable[City] | None = None,
) -> list[City]:
    """All catalogue cities whose coordinates fall in the given box."""
    pool = candidates if candidates is not None else WORLD_CITIES
    return [
        c
        for c in pool
        if min_lat <= c.location.lat <= max_lat and min_lon <= c.location.lon <= max_lon
    ]
