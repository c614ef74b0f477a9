"""Figure 10: utilised bandwidth vs average latency, FB-DIMM with and
without AMB prefetching.

Reuses Figure 7's runs.  Expected shape: for every workload FBD-AP moves
more data per second at lower average read latency than FBD.
"""

from __future__ import annotations

from repro.config import fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments.fig07_amb_speedup import CORE_COUNTS
from repro.experiments.runner import ExperimentContext, ResultTable


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 10 needs (Figure 7's, minus the SMT references)."""
    pairs = []
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            pairs.append((fbdimm_baseline(num_cores=cores), programs))
            pairs.append((fbdimm_amb_prefetch(num_cores=cores), programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Per-workload (bandwidth, latency) pairs for FBD and FBD-AP."""
    table = ResultTable(
        title="Figure 10: bandwidth vs latency, FBD vs FBD-AP",
        columns=[
            "workload", "cores",
            "fbd_bw", "fbd_latency", "ap_bw", "ap_latency",
        ],
    )
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            fbd = ctx.run(fbdimm_baseline(num_cores=cores), programs)
            ap = ctx.run(fbdimm_amb_prefetch(num_cores=cores), programs)
            table.add(
                workload=workload,
                cores=cores,
                fbd_bw=fbd.utilized_bandwidth_gbs,
                fbd_latency=fbd.avg_read_latency_ns,
                ap_bw=ap.utilized_bandwidth_gbs,
                ap_latency=ap.avg_read_latency_ns,
            )
    return table
