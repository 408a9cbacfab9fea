"""The work ledger: deterministic work counts of one leave-one-out pass.

Wall time on a shared box cannot tell a small change from the box's own
drift, but the work a pass does is deterministic.  This test pins the work
counters of one leave-one-out :meth:`BatchLocalizer.localize_all` pass over a
small fixed cohort at the default configuration:

* every ``details["kernel"]`` work counter, summed over targets (the fused
  pass counters are cohort-level, so each member of a chunk repeats them);
* the constraints each solve applied and dropped;
* the :class:`~repro.core.pipeline.PipelineStats` counters of the pass.

A change that alters the work a pass does updates the ledger in the same
commit, and its description lists each count, before against after.  A
change that means to do the same work must leave it as it is.
"""

from __future__ import annotations

from repro import BatchLocalizer, Octant, collect_dataset, small_deployment

KERNEL_COUNTERS = (
    "prefilter_bbox",
    "prefilter_inside",
    "prefilter_outside",
    "pieces_clipped",
    "vertices_clipped",
    "fallback_pieces",
    "fallback_vertices",
    "step_pieces",
    "shared_pieces",
    "fused_pass_count",
    "fused_rows_clipped",
)

PIPELINE_COUNTERS = (
    "constraints_assembled",
    "constraints_planarized",
    "planar_memo_hits",
    "planar_memo_misses",
    "prepared_hits",
    "prepared_misses",
)

#: ``small_deployment(host_count=10, seed=23)``, default ``OctantConfig``.
LEDGER = {
    "prefilter_bbox": 262,
    "prefilter_inside": 452,
    "prefilter_outside": 90,
    "pieces_clipped": 394,
    "vertices_clipped": 912960,
    "fallback_pieces": 0,
    "fallback_vertices": 0,
    "step_pieces": 1132,
    "shared_pieces": 479,
    "fused_pass_count": 3630,
    "fused_rows_clipped": 43190,
    "constraints_used": 100,
    "constraints_dropped": 0,
    "constraints_assembled": 280,
    "constraints_planarized": 100,
    "planar_memo_hits": 0,
    "planar_memo_misses": 10,
    "prepared_hits": 0,
    "prepared_misses": 0,
}


def test_leave_one_out_work_ledger():
    dataset = collect_dataset(small_deployment(host_count=10, seed=23))
    octant = Octant(dataset)
    estimates = BatchLocalizer(octant).localize_all()
    assert all(e.point is not None for e in estimates.values())

    ledger = {
        name: sum(e.details["kernel"][name] for e in estimates.values())
        for name in KERNEL_COUNTERS
    }
    ledger["constraints_used"] = sum(e.constraints_used for e in estimates.values())
    ledger["constraints_dropped"] = sum(
        e.constraints_dropped for e in estimates.values()
    )
    stats = octant.pipeline.stats.snapshot()
    ledger.update({name: stats[name] for name in PIPELINE_COUNTERS})
    assert ledger == LEDGER
