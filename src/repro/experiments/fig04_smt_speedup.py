"""Figure 4: SMT speedup of 1-, 2-, 4- and 8-core execution, DDR2 vs FB-DIMM.

Reference points are single-threaded execution on DDR2, so the single-core
DDR2 bars are 1.0 by construction.  Expected shape: FB-DIMM performs
comparably or slightly worse for 1-2 cores and better for 4-8 cores.
"""

from __future__ import annotations

from repro.config import ddr2_baseline, fbdimm_baseline
from repro.experiments.runner import ExperimentContext, ResultTable, mean

CORE_COUNTS = (1, 2, 4, 8)


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 4 needs, for :meth:`ExperimentContext.prefetch`."""
    pairs = ctx.reference_plan()
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            pairs.append((ddr2_baseline(num_cores=cores), programs))
            pairs.append((fbdimm_baseline(num_cores=cores), programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """SMT speedup of every workload on both memory systems."""
    table = ResultTable(
        title="Figure 4: SMT speedup, DDR2 vs FB-DIMM",
        columns=["workload", "cores", "ddr2", "fbdimm"],
    )
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            ddr2 = ctx.run(ddr2_baseline(num_cores=cores), programs)
            fbd = ctx.run(fbdimm_baseline(num_cores=cores), programs)
            table.add(
                workload=workload,
                cores=cores,
                ddr2=ctx.smt_speedup(ddr2),
                fbdimm=ctx.smt_speedup(fbd),
            )
    return table


def group_means(table: ResultTable) -> ResultTable:
    """Per-core-count average speedups (the paper's summary sentences)."""
    summary = ResultTable(
        title="Figure 4 summary: average SMT speedup per core count",
        columns=["cores", "ddr2", "fbdimm", "fbd_over_ddr2"],
    )
    for cores in CORE_COUNTS:
        rows = [r for r in table.rows if r["cores"] == cores]
        if not rows:
            continue
        ddr2 = mean([float(r["ddr2"]) for r in rows])
        fbd = mean([float(r["fbdimm"]) for r in rows])
        summary.add(cores=cores, ddr2=ddr2, fbdimm=fbd, fbd_over_ddr2=fbd / ddr2)
    return summary
