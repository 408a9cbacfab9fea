"""Fixtures shared by the core suites."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="module")
def tracked_cohort():
    """The tracked 30-host cohort on the bench-scale topology, seed 42
    (``perfbench/common.py::build_dataset``)."""
    from repro import DeploymentConfig, build_deployment, collect_dataset
    from repro.network import TopologyConfig
    from repro.network.geodata import EUROPEAN_CITIES, US_CITIES

    config = DeploymentConfig(
        host_count=30,
        seed=42,
        topology=TopologyConfig(
            seed=42,
            num_providers=4,
            pops_per_provider=38,
            peering_city_count=8,
            cities=US_CITIES + EUROPEAN_CITIES,
        ),
    )
    return collect_dataset(build_deployment(config))
