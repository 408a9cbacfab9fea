"""Ingest payload validation: bad measurements are rejected before any write.

``MeasurementDataset.ingest`` and ``IngestRecord.capture`` share one
validator, so a NaN, infinite, negative or empty RTT sample, a self-pair
ping or a bad router sample is refused at the call that carries it: the
dataset keeps its pings, version and delta log, and the measurement log
enqueues nothing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math

import pytest

from repro import LocalizationService
from repro.network import (
    IngestRecord,
    InvalidMeasurement,
    MeasurementLog,
    collect_dataset,
)
from repro.network.planetlab import small_deployment
from repro.network.probes import PingResult


@pytest.fixture(scope="module")
def deployment():
    return small_deployment(host_count=6, seed=31)


@pytest.fixture()
def dataset(deployment):
    return collect_dataset(deployment)


def bad_pings(dataset):
    """One invalid ping per rule, each on a real measured pair."""
    (src, dst), ping = sorted(dataset.pings.items())[0]
    return {
        "nan": dataclasses.replace(ping, rtts_ms=(12.0, math.nan)),
        "inf": dataclasses.replace(ping, rtts_ms=(math.inf,)),
        "negative": dataclasses.replace(ping, rtts_ms=(-5.0, 10.0)),
        "empty": dataclasses.replace(ping, rtts_ms=()),
        "self_pair": PingResult(src, src, (1.0, 2.0)),
    }


@pytest.mark.parametrize("kind", ["nan", "inf", "negative", "empty", "self_pair"])
def test_rejected_ingest_leaves_dataset_unchanged(dataset, kind):
    bad = bad_pings(dataset)[kind]
    # A valid ping ahead of the bad one in the same call must not land.
    key = sorted(dataset.pings)[1]
    good = dataclasses.replace(
        dataset.pings[key], rtts_ms=tuple(r + 3.0 for r in dataset.pings[key].rtts_ms)
    )
    pings_before = dict(dataset.pings)
    version_before = dataset.version
    with pytest.raises(InvalidMeasurement):
        dataset.ingest(pings=iter([good, bad]))
    assert dataset.pings == pings_before
    assert dataset.version == version_before
    assert dataset.deltas_since(version_before) == ()
    # The dataset still takes a valid ingest afterwards.
    dataset.ingest(pings=[good])
    assert dataset.version == version_before + 1


@pytest.mark.parametrize("rtt", [math.nan, -1.0, math.inf])
def test_rejected_router_ping_leaves_dataset_unchanged(dataset, rtt):
    key = next(iter(dataset.router_pings))
    router_pings_before = dict(dataset.router_pings)
    version_before = dataset.version
    with pytest.raises(InvalidMeasurement):
        dataset.ingest(router_pings={key: rtt})
    assert dataset.router_pings == router_pings_before
    assert dataset.version == version_before


def test_invalid_measurement_is_a_value_error():
    assert issubclass(InvalidMeasurement, ValueError)


@pytest.mark.parametrize("kind", ["nan", "inf", "negative", "empty", "self_pair"])
def test_capture_rejects(dataset, kind):
    with pytest.raises(InvalidMeasurement):
        IngestRecord.capture(pings=[bad_pings(dataset)[kind]])


@pytest.mark.parametrize("kind", ["nan", "negative", "empty", "self_pair"])
def test_rejected_append_enqueues_nothing(dataset, kind):
    applied = []
    log = MeasurementLog(lambda record: applied.append(record) or dataset.version)
    with pytest.raises(InvalidMeasurement):
        log.append(pings=[bad_pings(dataset)[kind]])
    stats = log.stats()
    assert stats["appended"] == 0
    assert stats["pending"] == 0
    log.flush()
    assert applied == []
    assert log.stats()["apply_failures"] == 0


def test_service_ingest_nowait_rejects_at_caller(dataset):
    """The serving write path refuses the payload before it is buffered."""
    bad = bad_pings(dataset)["negative"]

    async def main():
        async with LocalizationService(dataset, workers=1) as service:
            with pytest.raises(InvalidMeasurement):
                service.ingest_nowait(pings=[bad])
            with pytest.raises(InvalidMeasurement):
                await service.ingest(pings=[bad])
            await service.flush_ingest()
            return service.cache_stats()["ingest"]["log"], dataset.version

    log_stats, version = asyncio.run(main())
    assert log_stats["appended"] == 0
    assert log_stats["apply_failures"] == 0
    assert version == 0
