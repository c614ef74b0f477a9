"""Figure 5: average utilised bandwidth vs average read latency, DDR2 vs
FB-DIMM.

Reuses Figure 4's runs (the context memoises them).  Expected shape: at low
utilised bandwidth (single-core) DDR2's latency is slightly lower; at high
utilised bandwidth (8-core) FB-DIMM moves more data at lower latency.
"""

from __future__ import annotations

from repro.config import ddr2_baseline, fbdimm_baseline
from repro.experiments.fig04_smt_speedup import CORE_COUNTS
from repro.experiments.runner import ExperimentContext, ResultTable, mean


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 5 needs (Figure 4's, minus the SMT references)."""
    pairs = []
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            pairs.append((ddr2_baseline(num_cores=cores), programs))
            pairs.append((fbdimm_baseline(num_cores=cores), programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Per-workload (bandwidth, latency) points for both systems."""
    table = ResultTable(
        title="Figure 5: utilised bandwidth (GB/s) vs average latency (ns)",
        columns=[
            "workload", "cores",
            "ddr2_bw", "ddr2_latency", "fbd_bw", "fbd_latency",
        ],
    )
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            ddr2 = ctx.run(ddr2_baseline(num_cores=cores), programs)
            fbd = ctx.run(fbdimm_baseline(num_cores=cores), programs)
            table.add(
                workload=workload,
                cores=cores,
                ddr2_bw=ddr2.utilized_bandwidth_gbs,
                ddr2_latency=ddr2.avg_read_latency_ns,
                fbd_bw=fbd.utilized_bandwidth_gbs,
                fbd_latency=fbd.avg_read_latency_ns,
            )
    return table


def group_means(table: ResultTable) -> ResultTable:
    """Average bandwidth/latency per core count (the paper's text values)."""
    summary = ResultTable(
        title="Figure 5 summary: averages per core count",
        columns=["cores", "ddr2_bw", "ddr2_latency", "fbd_bw", "fbd_latency"],
    )
    for cores in CORE_COUNTS:
        rows = [r for r in table.rows if r["cores"] == cores]
        if not rows:
            continue
        summary.add(
            cores=cores,
            ddr2_bw=mean([float(r["ddr2_bw"]) for r in rows]),
            ddr2_latency=mean([float(r["ddr2_latency"]) for r in rows]),
            fbd_bw=mean([float(r["fbd_bw"]) for r in rows]),
            fbd_latency=mean([float(r["fbd_latency"]) for r in rows]),
        )
    return summary
