"""Metamorphic invariants: transformations that must not move an answer.

* **Landmark order.**  A landmark pool is a set: permuting it must leave
  the estimate bit-identical, through both entry points that take a pool
  (:meth:`BatchLocalizer.localize_one` and :meth:`Octant.localize`).  Each
  order runs on fresh localizers, so no cache carries one order's state
  into another's.
"""

from __future__ import annotations

import random

import pytest

from repro import BatchLocalizer, Octant, collect_dataset, small_deployment


def full_signature(estimate):
    """The answer bit for bit: point, counts, weights and every vertex."""
    region = estimate.region
    return (
        None if estimate.point is None else (estimate.point.lat, estimate.point.lon),
        estimate.constraints_used,
        estimate.constraints_dropped,
        None
        if region is None
        else tuple((p.weight, tuple(p.polygon.coords)) for p in region.pieces),
        estimate.details.get("max_weight"),
        estimate.details.get("landmark_count"),
        estimate.details.get("target_height_ms"),
    )


@pytest.fixture(scope="module")
def dataset():
    return collect_dataset(small_deployment(host_count=12, seed=23))


def test_landmark_pool_order_does_not_change_the_answer(dataset):
    targets = dataset.host_ids[:6]
    pools = {t: [h for h in dataset.host_ids if h != t] for t in targets}
    orders = [pools]
    for seed in range(3):
        rng = random.Random(seed)
        shuffled = {}
        for target, pool in pools.items():
            permuted = list(pool)
            rng.shuffle(permuted)
            assert permuted != pool
            shuffled[target] = permuted
        orders.append(shuffled)

    answers = []
    for order in orders:
        localizer = BatchLocalizer(Octant(dataset))
        octant = Octant(dataset)
        batch = {t: full_signature(localizer.localize_one(t, order[t])) for t in targets}
        single = {
            t: full_signature(octant.localize(t, landmark_ids=order[t]))
            for t in targets
        }
        assert batch == single
        answers.append(batch)
    assert all(point is not None for point, *_ in answers[0].values())
    for permuted in answers[1:]:
        assert permuted == answers[0]
