"""Ablations beyond the paper's figures (DESIGN.md Section 5).

* **VRL** — Variable Read Latency on vs off under AMB prefetching.  The
  paper reports "very similar" improvement either way.
* **Page interleaving** — AMB prefetching over open-page + page
  interleaving, Figure 2's alternative layout.
* **Replacement** — FIFO (the paper's choice) vs LRU for the AMB cache.
  The paper argues LRU is wrong at this level because a block that just
  hit is now cached on-chip.
"""

from __future__ import annotations


from repro.config import (
    AmbPrefetchConfig,
    InterleaveScheme,
    PagePolicy,
    ReplacementPolicy,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.experiments.runner import ExperimentContext, ResultTable, mean

CORE_COUNTS = (1, 4)


def plan(ctx: ExperimentContext) -> list:
    """Every run the three ablations need, for prefetching as one batch."""
    pairs = ctx.reference_plan()
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            for vrl in (False, True):
                pairs.append(
                    (fbdimm_baseline(num_cores=cores, variable_read_latency=vrl),
                     programs)
                )
                pairs.append(
                    (fbdimm_amb_prefetch(num_cores=cores, variable_read_latency=vrl),
                     programs)
                )
            pairs.append(
                (fbdimm_amb_prefetch(
                    num_cores=cores,
                    interleave=InterleaveScheme.PAGE,
                    page_policy=PagePolicy.OPEN_PAGE,
                ), programs)
            )
            for policy in (ReplacementPolicy.FIFO, ReplacementPolicy.LRU):
                prefetch = AmbPrefetchConfig(replacement=policy)
                pairs.append(
                    (fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch),
                     programs)
                )
    return pairs


def run_vrl(ctx: ExperimentContext) -> ResultTable:
    """AP improvement with and without Variable Read Latency."""
    table = ResultTable(
        title="Ablation: AMB prefetching with/without VRL",
        columns=["cores", "improvement_no_vrl", "improvement_vrl"],
    )
    for cores in CORE_COUNTS:
        rows = {"off": [], "on": []}
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            for key, vrl in (("off", False), ("on", True)):
                base = fbdimm_baseline(num_cores=cores, variable_read_latency=vrl)
                ap = fbdimm_amb_prefetch(num_cores=cores, variable_read_latency=vrl)
                ratio = ctx.smt_speedup(ctx.run(ap, programs)) / ctx.smt_speedup(
                    ctx.run(base, programs)
                )
                rows[key].append(ratio)
        table.add(
            cores=cores,
            improvement_no_vrl=mean(rows["off"]) - 1.0,
            improvement_vrl=mean(rows["on"]) - 1.0,
        )
    return table


def run_page_interleave(ctx: ExperimentContext) -> ResultTable:
    """AP over open-page/page-interleaved FB-DIMM vs the close-page default."""
    table = ResultTable(
        title="Ablation: AP with page interleaving (open page)",
        columns=["cores", "multi_cacheline_ap", "page_interleave_ap"],
    )
    for cores in CORE_COUNTS:
        multi, page = [], []
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            multi.append(
                ctx.smt_speedup(ctx.run(fbdimm_amb_prefetch(num_cores=cores), programs))
            )
            page_cfg = fbdimm_amb_prefetch(
                num_cores=cores,
                interleave=InterleaveScheme.PAGE,
                page_policy=PagePolicy.OPEN_PAGE,
            )
            page.append(ctx.smt_speedup(ctx.run(page_cfg, programs)))
        table.add(cores=cores, multi_cacheline_ap=mean(multi), page_interleave_ap=mean(page))
    return table


def run_replacement(ctx: ExperimentContext) -> ResultTable:
    """FIFO vs LRU AMB-cache replacement."""
    table = ResultTable(
        title="Ablation: AMB-cache replacement policy",
        columns=["cores", "fifo", "lru"],
    )
    for cores in CORE_COUNTS:
        values = {ReplacementPolicy.FIFO: [], ReplacementPolicy.LRU: []}
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            for policy in values:
                prefetch = AmbPrefetchConfig(replacement=policy)
                cfg = fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch)
                values[policy].append(ctx.smt_speedup(ctx.run(cfg, programs)))
        table.add(
            cores=cores,
            fifo=mean(values[ReplacementPolicy.FIFO]),
            lru=mean(values[ReplacementPolicy.LRU]),
        )
    return table
