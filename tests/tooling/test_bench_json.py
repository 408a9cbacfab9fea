"""``benchmarks/conftest.py::merge_bench_json``: sections merge per schema.

The helper is loaded by path (``benchmarks/`` is not a package) and writes
to a temporary file named by an environment variable, as the benchmarks'
``OCTANT_*_BENCH_JSON`` overrides do.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

CONFTEST = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
ENV_VAR = "OCTANT_TEST_BENCH_JSON"


@pytest.fixture(scope="module")
def merge_bench_json():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.merge_bench_json


@pytest.fixture
def out(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_test.json"
    monkeypatch.setenv(ENV_VAR, str(path))
    return path


def test_old_schema_sections_are_dropped(merge_bench_json, out):
    out.write_text(json.dumps({"schema": 7, "gh_exclusion": {"ms": 4.9}}))
    merge_bench_json(ENV_VAR, "unused.json", 8, "cohort_engines", {"ms": 1.0})
    assert json.loads(out.read_text()) == {"schema": 8, "cohort_engines": {"ms": 1.0}}


def test_same_schema_sections_are_kept(merge_bench_json, out):
    out.write_text(json.dumps({"schema": 8, "single_target": {"s": 0.1}}))
    merge_bench_json(ENV_VAR, "unused.json", 8, "cohort_engines", {"ms": 1.0})
    assert json.loads(out.read_text()) == {
        "schema": 8,
        "single_target": {"s": 0.1},
        "cohort_engines": {"ms": 1.0},
    }


def test_missing_or_corrupt_file_starts_fresh(merge_bench_json, out):
    merge_bench_json(ENV_VAR, "unused.json", 8, "a", {"x": 1})
    assert json.loads(out.read_text()) == {"schema": 8, "a": {"x": 1}}
    out.write_text("{not json")
    merge_bench_json(ENV_VAR, "unused.json", 8, "b", {"y": 2})
    assert json.loads(out.read_text()) == {"schema": 8, "b": {"y": 2}}
