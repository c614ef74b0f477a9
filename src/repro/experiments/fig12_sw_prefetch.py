"""Figure 12: AMB prefetching and software cache prefetching are
complementary.

Four systems per core count, all FB-DIMM, all normalised to
no-prefetching-at-all:

* NONE  — neither prefetcher;
* SP    — software cache prefetching only;
* AP    — AMB prefetching only;
* AP+SP — both (the paper's default configuration).

Expected shapes: SP > AP for 1-4 cores, AP > SP at 8 cores (SP's extra
channel traffic hurts when bandwidth is scarce); AP+SP is close to the sum
of the individual gains.
"""

from __future__ import annotations

import dataclasses

from repro.config import SystemConfig, fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments.runner import ExperimentContext, ResultTable, mean

CORE_COUNTS = (1, 2, 4, 8)


def _with_sp(config: SystemConfig, enabled: bool) -> SystemConfig:
    return dataclasses.replace(config, software_prefetch=enabled)


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 12 needs, for :meth:`ExperimentContext.prefetch`."""
    pairs = ctx.reference_plan()
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            base = fbdimm_baseline(num_cores=cores)
            ap_cfg = fbdimm_amb_prefetch(num_cores=cores)
            for config in (base, ap_cfg):
                for enabled in (False, True):
                    pairs.append((_with_sp(config, enabled), programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Average relative SMT speedup of NONE/SP/AP/AP+SP per core count."""
    table = ResultTable(
        title="Figure 12: relative speedup of AP, SP and AP+SP",
        columns=["cores", "sp", "ap", "ap_sp", "additivity"],
    )
    for cores in CORE_COUNTS:
        sums = {"none": [], "sp": [], "ap": [], "ap_sp": []}
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            base = fbdimm_baseline(num_cores=cores)
            ap_cfg = fbdimm_amb_prefetch(num_cores=cores)
            sums["none"].append(
                ctx.smt_speedup(ctx.run(_with_sp(base, False), programs))
            )
            sums["sp"].append(ctx.smt_speedup(ctx.run(_with_sp(base, True), programs)))
            sums["ap"].append(
                ctx.smt_speedup(ctx.run(_with_sp(ap_cfg, False), programs))
            )
            sums["ap_sp"].append(
                ctx.smt_speedup(ctx.run(_with_sp(ap_cfg, True), programs))
            )
        none = mean(sums["none"])
        sp = mean(sums["sp"]) / none
        ap = mean(sums["ap"]) / none
        ap_sp = mean(sums["ap_sp"]) / none
        # additivity ~ 1.0 means the combined gain equals the sum of the
        # individual gains (the paper's complementarity claim).
        expected = 1.0 + (sp - 1.0) + (ap - 1.0)
        table.add(cores=cores, sp=sp, ap=ap, ap_sp=ap_sp, additivity=ap_sp / expected)
    return table
