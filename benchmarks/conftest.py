"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
section.  They all operate on a single simulated PlanetLab-like deployment
built once per session.

The deployment size defaults to 20 hosts so the whole benchmark suite runs in
a few minutes; set ``OCTANT_BENCH_HOSTS=51`` to reproduce the paper's full
51-node study (the numbers reported in EXPERIMENTS.md were produced that way),
and ``OCTANT_BENCH_TARGETS`` to bound how many targets the heavier benchmarks
localize.  The tracked batch-vs-sequential speedup figure in
``bench_batch_localize.py`` is measured at ``OCTANT_BENCH_HOSTS=30``.
"""

from __future__ import annotations

import os

import pytest

from repro import DeploymentConfig, build_deployment, collect_dataset
from repro.evalx import default_method_factories, run_accuracy_study
from repro.network import TopologyConfig
from repro.network.geodata import EUROPEAN_CITIES, US_CITIES


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


BENCH_HOST_COUNT = _env_int("OCTANT_BENCH_HOSTS", 20)
BENCH_TARGET_COUNT = _env_int("OCTANT_BENCH_TARGETS", BENCH_HOST_COUNT)
BENCH_SEED = _env_int("OCTANT_BENCH_SEED", 42)


@pytest.fixture(scope="session")
def deployment():
    """The simulated measurement infrastructure shared by all benchmarks."""
    config = DeploymentConfig(
        host_count=BENCH_HOST_COUNT,
        seed=BENCH_SEED,
        topology=TopologyConfig(
            seed=BENCH_SEED,
            num_providers=4,
            pops_per_provider=38,
            peering_city_count=8,
            cities=US_CITIES + EUROPEAN_CITIES,
        ),
    )
    return build_deployment(config)


@pytest.fixture(scope="session")
def dataset(deployment):
    """All-pairs ping + traceroute measurements over the deployment."""
    return collect_dataset(deployment)


@pytest.fixture(scope="session")
def target_ids(dataset):
    """The targets localized by the heavier benchmarks."""
    return dataset.host_ids[:BENCH_TARGET_COUNT]


_STUDY_CACHE: dict[int, object] = {}


@pytest.fixture(scope="session")
def accuracy_study(dataset, target_ids):
    """The leave-one-out accuracy study shared by Figure 3 and the error table."""
    key = id(dataset)
    if key not in _STUDY_CACHE:
        _STUDY_CACHE[key] = run_accuracy_study(
            dataset, default_method_factories(), target_ids=target_ids
        )
    return _STUDY_CACHE[key]


def merge_bench_json(
    env_var: str, default_name: str, schema: int, section: str, payload: dict
) -> None:
    """Merge one section into a repo-root benchmark JSON file.

    Shared by every benchmark module that persists results: tests may run
    in any order (or alone), so each writes its own section into the file,
    stamping the module's schema version.  Corrupt or missing files start
    fresh, and so does a file stored under another schema: its sections
    have the old shape, and re-stamping them would pass them off as new.
    """
    import json
    from pathlib import Path

    out_path = Path(os.environ.get(env_var, default_name))
    data: dict = {}
    if out_path.exists():
        try:
            data = json.loads(out_path.read_text())
        except (ValueError, OSError):
            data = {}
    if not isinstance(data, dict) or data.get("schema") != schema:
        data = {}
    data["schema"] = schema
    data[section] = payload
    out_path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"  wrote: {out_path} [{section}]")


def host_ref_loop_ms() -> float:
    """Median of five timings of perfbench's fixed reference loop, in ms.

    ``perfbench/common.py::ref_loop_ms`` times work that never changes, so
    a change in its time is the machine, not the program.  Benchmarks that
    gate on an absolute latency record it before and after their measured
    phases, so a failed gate can be told from a slow stretch of the host.
    """
    import importlib.util
    import statistics
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "common.py"
    spec = importlib.util.spec_from_file_location("perfbench_common", path)
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    return round(statistics.median(common.ref_loop_series(5)), 3)
