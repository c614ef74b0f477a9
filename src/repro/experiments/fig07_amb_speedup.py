"""Figure 7: overall performance of AMB prefetching.

Per-workload SMT speedups of FB-DIMM with (FBD-AP) and without (FBD) AMB
prefetching, default configuration: two logic channels, four-cacheline
interleaving, 64-entry fully associative AMB cache, software prefetching
on.  Expected shape: AP improves every workload (no negative speedups),
averaging in the mid-teens percent.
"""

from __future__ import annotations

from repro.config import fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments.runner import ExperimentContext, ResultTable, mean

CORE_COUNTS = (1, 2, 4, 8)


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 7 needs, for :meth:`ExperimentContext.prefetch`."""
    pairs = ctx.reference_plan()
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            pairs.append((fbdimm_baseline(num_cores=cores), programs))
            pairs.append((fbdimm_amb_prefetch(num_cores=cores), programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """FBD vs FBD-AP SMT speedups for every workload."""
    table = ResultTable(
        title="Figure 7: AMB prefetching performance",
        columns=["workload", "cores", "fbd", "fbd_ap", "improvement"],
    )
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            fbd = ctx.smt_speedup(ctx.run(fbdimm_baseline(num_cores=cores), programs))
            ap = ctx.smt_speedup(
                ctx.run(fbdimm_amb_prefetch(num_cores=cores), programs)
            )
            table.add(
                workload=workload,
                cores=cores,
                fbd=fbd,
                fbd_ap=ap,
                improvement=ap / fbd - 1.0,
            )
    return table


def group_means(table: ResultTable) -> ResultTable:
    """Average improvement per core count (paper: 16.0/19.4/16.3/15.0 %)."""
    summary = ResultTable(
        title="Figure 7 summary: average AP improvement per core count",
        columns=["cores", "fbd", "fbd_ap", "improvement"],
    )
    for cores in CORE_COUNTS:
        rows = [r for r in table.rows if r["cores"] == cores]
        if not rows:
            continue
        fbd = mean([float(r["fbd"]) for r in rows])
        ap = mean([float(r["fbd_ap"]) for r in rows])
        summary.add(cores=cores, fbd=fbd, fbd_ap=ap, improvement=ap / fbd - 1.0)
    return summary
