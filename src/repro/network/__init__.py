"""Synthetic Internet substrate: topology, delay model, probes and datasets.

This package stands in for the paper's measurement infrastructure (PlanetLab
hosts probing each other across the 2006 Internet).  It produces the same
kinds of observations -- minimum RTTs, traceroutes with named routers, WHOIS
records -- with a known ground truth, so the localization algorithms can be
evaluated end to end on a laptop.
"""

from .agents import ProbeAgent, run_agents
from .dataset import (
    IngestDelta,
    IngestRecord,
    InvalidMeasurement,
    MeasurementDataset,
    NodeRecord,
    collect_dataset,
)
from .log import MeasurementLog
from .dns import DEFAULT_CITY_ALIASES, DnsLocationHint, UndnsParser
from .geodata import (
    EUROPEAN_CITIES,
    OCEAN_REGIONS,
    UNINHABITED_REGIONS,
    US_CITIES,
    WORLD_CITIES,
    City,
    GeoRegion,
    cities_in_bbox,
    city_by_code,
    city_by_name,
    nearest_city,
)
from .latency import LatencyConfig, LatencyModel
from .planetlab import (
    DEFAULT_HOST_COUNT,
    Deployment,
    DeploymentConfig,
    build_deployment,
    small_deployment,
)
from .probes import PingResult, Prober, TracerouteHop, TracerouteResult
from .topology import (
    Link,
    NetworkNode,
    NetworkTopology,
    NodeKind,
    Provider,
    TopologyConfig,
    build_topology,
)
from .whois import WhoisRecord, WhoisRegistry, build_registry_from_topology

__all__ = [
    # geodata
    "City",
    "GeoRegion",
    "WORLD_CITIES",
    "US_CITIES",
    "EUROPEAN_CITIES",
    "OCEAN_REGIONS",
    "UNINHABITED_REGIONS",
    "city_by_code",
    "city_by_name",
    "nearest_city",
    "cities_in_bbox",
    # topology
    "NodeKind",
    "NetworkNode",
    "Link",
    "Provider",
    "TopologyConfig",
    "NetworkTopology",
    "build_topology",
    # latency and probes
    "LatencyConfig",
    "LatencyModel",
    "PingResult",
    "TracerouteHop",
    "TracerouteResult",
    "Prober",
    # dns / whois
    "DnsLocationHint",
    "UndnsParser",
    "DEFAULT_CITY_ALIASES",
    "WhoisRecord",
    "WhoisRegistry",
    "build_registry_from_topology",
    # deployment and datasets
    "DeploymentConfig",
    "Deployment",
    "build_deployment",
    "small_deployment",
    "DEFAULT_HOST_COUNT",
    "NodeRecord",
    "MeasurementDataset",
    "collect_dataset",
    "IngestRecord",
    "IngestDelta",
    "InvalidMeasurement",
    # streaming measurement plane
    "MeasurementLog",
    "ProbeAgent",
    "run_agents",
]
