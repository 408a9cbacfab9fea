"""Shared pieces of the benchmark: the tracked cohort, statistics, host probes.

Everything here is deterministic given its arguments, so two runs of one
seed see the same dataset, the same request order and the same writes.
"""

from __future__ import annotations

import os
import resource
import statistics
import time

import numpy as np

from repro import DeploymentConfig, build_deployment, collect_dataset
from repro.evalx import ErrorStatistics, containment_rate, percentile
from repro.network import TopologyConfig
from repro.network.geodata import EUROPEAN_CITIES, US_CITIES

#: The tracked cohort: 30 hosts on the bench-scale topology (4 providers x
#: 38 PoPs), seed 42 -- the deployment of ``benchmarks/conftest.py`` at
#: ``OCTANT_BENCH_HOSTS=30``.  The workload seed varies what is sent to the
#: system, never the cohort, so runs of different seeds stay comparable.
COHORT_HOSTS = 30
COHORT_SEED = 42

#: Set-up is repeated this many times per run, spread over the run, and
#: its median reported.
SETUP_REPEATS = 5

#: Concurrent requests a serving workload keeps in flight (= cores here).
CLIENTS = 2

#: Each timed window is cut into blocks; a traced run alternates untraced
#: and traced blocks, so both halves see the same machine drift.
BLOCK_SECONDS = 2.5

#: Below this many samples a p90 has fewer than ten samples beyond it.
MIN_P90_SAMPLES = 100


def build_dataset():
    """Deployment + all-pairs measurement campaign for the tracked cohort."""
    config = DeploymentConfig(
        host_count=COHORT_HOSTS,
        seed=COHORT_SEED,
        topology=TopologyConfig(
            seed=COHORT_SEED,
            num_providers=4,
            pops_per_provider=38,
            peering_city_count=8,
            cities=US_CITIES + EUROPEAN_CITIES,
        ),
    )
    return collect_dataset(build_deployment(config))


def p50(values) -> float:
    return percentile(list(values), 50) if values else 0.0


def p90(values) -> float:
    return percentile(list(values), 90) if values else 0.0


def signature(estimate) -> tuple:
    """What two answers must share to count as the same answer."""
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None if estimate.region is None else estimate.region.area_km2(),
        estimate.details.get("max_weight"),
    )


def is_failure(estimate) -> bool:
    """No point, or an answer taken from a degraded ladder rung."""
    return estimate.point is None or "degraded" in estimate.details


def accuracy(answers: dict, dataset) -> tuple[float, float]:
    """``(error_km_p50, containment_pct)`` against ground truth."""
    errors = []
    flags = []
    for target, estimate in sorted(answers.items()):
        truth = dataset.true_location(target)
        errors.append(estimate.error_km(truth))
        flags.append(estimate.contains_true_location(truth))
    return ErrorStatistics.from_errors(errors).median, 100.0 * containment_rate(flags)


def ref_loop_ms() -> float:
    """Time one fixed pure-Python + NumPy loop: a probe of machine speed.

    The loop's work never changes, so a change in its time between (or
    within) runs is the machine, not the program.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    values = np.linspace(0.0, 1.0, 4096)
    for _ in range(200):
        values = np.sqrt(values * values + 1e-3)
    if acc < 0 or not np.isfinite(values).all():  # keep the work observable
        raise RuntimeError("reference loop went wrong")
    return (time.perf_counter() - started) * 1000.0


def ref_loop_series(reps: int = 5) -> list[float]:
    return [ref_loop_ms() for _ in range(reps)]


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(extra_pids=()) -> float:
    """Peak RSS of this process plus the given live child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_vm_hwm_mb(pid) for pid in extra_pids)


def environment(seed: int) -> dict:
    """What a reader needs to compare a result with another machine's."""
    from repro.geometry.kernel_compiled import kernel_runtime_stats

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    runtime = kernel_runtime_stats("auto")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_backend": runtime.get("backend"),
        "jitted": bool(runtime.get("jit")),
        "seed": seed,
        "cohort_hosts": COHORT_HOSTS,
        "cohort_seed": COHORT_SEED,
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0
