"""Accuracy against ground truth on the tracked cohort, with a drift gate.

Runs the leave-one-out :func:`~repro.evalx.run_accuracy_study` over the
tracked 30-host cohort (``perfbench/common.py::build_dataset``: seed 42, the
bench-scale topology) with Octant and the four baselines, and records per
method:

* median and p80 error in miles.  Percentiles are
  ``repro.evalx.metrics.percentile``: linear interpolation between the
  closest ranks of the sorted errors;
* containment: how many targets lie inside the estimated region (point
  methods never do), reported beside the region's mean and median area in
  square miles, because a large enough region contains anything.

It also records whether the paper's ordering holds: Octant's median error
below every baseline's, and its containment at least GeoLim's.  It does not
hold on this cohort (GeoTrack's median is lower), so it is recorded, not
asserted.

The study is deterministic, so the gate is drift: every figure must equal the
committed ``BENCH_accuracy.json`` -- counts exactly, miles and areas within
``DRIFT_TOLERANCE`` (relative) -- and the ordering flag must match.  The gate
only reads the committed file; a missing or unreadable file, or one of
another schema, fails it.  A change that moves answers on purpose regenerates
the artifact and lists the parent and change rows in CHANGES.md: with
``OCTANT_ACCURACY_BENCH_JSON`` set, the run writes its figures to that path
instead of gating, and the file is copied over the committed one.  The cohort
does not follow ``OCTANT_BENCH_HOSTS``::

    PYTHONPATH=src python -m pytest benchmarks/bench_accuracy.py -x -q -s
    OCTANT_ACCURACY_BENCH_JSON=/tmp/accuracy.json \
        PYTHONPATH=src python -m pytest benchmarks/bench_accuracy.py -x -q -s
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import pytest

from repro.evalx import default_method_factories, percentile, run_accuracy_study

SCHEMA_VERSION = 1

#: Relative tolerance on miles and areas; containment counts must be equal.
DRIFT_TOLERANCE = 1e-4

PERCENTILE_DEFINITION = (
    "repro.evalx.metrics.percentile: linear interpolation between closest ranks"
)


COMMITTED_PATH = Path(__file__).resolve().parent.parent / "BENCH_accuracy.json"


def _committed() -> dict:
    """The committed figures; any reason they cannot be read fails the gate."""
    try:
        committed = json.loads(COMMITTED_PATH.read_text())
    except (OSError, ValueError) as exc:
        pytest.fail(f"cannot read the committed {COMMITTED_PATH.name}: {exc}")
    if committed.get("schema") != SCHEMA_VERSION:
        pytest.fail(
            f"{COMMITTED_PATH.name} has schema {committed.get('schema')!r}, "
            f"this gate reads {SCHEMA_VERSION}"
        )
    return committed


def summarize(study) -> dict:
    """Per-method rows plus the paper-ordering flag."""
    methods = {}
    for method in study.methods():
        results = [r for r in study.results if r.method == method]
        errors = [r.error_miles for r in results]
        areas = [r.region_area_sq_mi for r in results]
        methods[method] = {
            "targets": len(results),
            "median_mi": round(percentile(errors, 50), 3),
            "p80_mi": round(percentile(errors, 80), 3),
            "contained": sum(1 for r in results if r.contains_truth),
            "mean_area_sq_mi": round(statistics.fmean(areas), 1),
            "median_area_sq_mi": round(statistics.median(areas), 1),
        }
    octant = methods["octant"]
    ordering = all(
        octant["median_mi"] < row["median_mi"]
        for name, row in methods.items()
        if name != "octant"
    ) and octant["contained"] >= methods["geolim"]["contained"]
    return {"methods": methods, "paper_ordering": ordering}


def _drift(committed: dict, measured: dict) -> list[str]:
    problems = []
    if committed.get("paper_ordering") != measured["paper_ordering"]:
        problems.append(
            f"paper_ordering {committed.get('paper_ordering')} -> {measured['paper_ordering']}"
        )
    old_methods = committed.get("methods", {})
    if set(old_methods) != set(measured["methods"]):
        problems.append(f"methods {sorted(old_methods)} -> {sorted(measured['methods'])}")
    for method, row in measured["methods"].items():
        old = old_methods.get(method, {})
        for field, value in row.items():
            before = old.get(field)
            if isinstance(value, int):
                same = before == value
            else:
                same = before is not None and abs(value - before) <= DRIFT_TOLERANCE * max(
                    1.0, abs(before)
                )
            if not same:
                problems.append(f"{method}.{field}: {before} -> {value}")
    return problems


def test_accuracy_drift_gate():
    from conftest import perfbench_common

    regenerate = os.environ.get("OCTANT_ACCURACY_BENCH_JSON")
    committed = None if regenerate else _committed()
    dataset = perfbench_common().build_dataset()
    study = run_accuracy_study(dataset, default_method_factories())
    measured = summarize(study)

    print()
    print(f"{'method':<14} {'median mi':>10} {'p80 mi':>9} {'contain':>8} "
          f"{'mean area':>11} {'median area':>12}")
    for method, row in measured["methods"].items():
        print(
            f"{method:<14} {row['median_mi']:>10.1f} {row['p80_mi']:>9.1f} "
            f"{row['contained']:>4}/{row['targets']:<3} "
            f"{row['mean_area_sq_mi']:>11.0f} {row['median_area_sq_mi']:>12.0f}"
        )
    print(f"  paper ordering holds: {measured['paper_ordering']}")

    if regenerate:
        Path(regenerate).write_text(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "hosts": len(dataset.host_ids),
                    "percentile": PERCENTILE_DEFINITION,
                    **measured,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"  wrote: {regenerate} (not gated)")
        return
    problems = _drift(committed, measured)
    assert not problems, "accuracy drifted from the committed artifact: " + "; ".join(
        problems
    )
