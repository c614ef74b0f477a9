"""Figure 9: decomposing the AMB-prefetching gain.

Three systems per core count:

* FBD      — plain FB-DIMM;
* FBD-APFL — AMB prefetching with *full-latency* hits: a hit still pays
  tRCD + tCL but performs no bank activity, so any gain over FBD comes
  purely from better bandwidth utilisation (fewer bank conflicts);
* FBD-AP   — the real thing; its gain over FBD-APFL is the idle-latency
  reduction.

Expected shape: both components contribute comparably, with the
bandwidth-utilisation share growing with the core count.
"""

from __future__ import annotations

from repro.config import AmbPrefetchConfig, fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments.runner import ExperimentContext, ResultTable, mean

CORE_COUNTS = (1, 2, 4, 8)

APFL = AmbPrefetchConfig(enabled=True, full_latency_hits=True)


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 9 needs, for :meth:`ExperimentContext.prefetch`."""
    pairs = ctx.reference_plan()
    for cores in CORE_COUNTS:
        for workload in ctx.workloads_for(cores):
            programs = tuple(ctx.programs_of(workload))
            pairs.append((fbdimm_baseline(num_cores=cores), programs))
            pairs.append(
                (fbdimm_amb_prefetch(num_cores=cores, prefetch=APFL), programs)
            )
            pairs.append((fbdimm_amb_prefetch(num_cores=cores), programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Average SMT speedups of FBD / FBD-APFL / FBD-AP per core count."""
    table = ResultTable(
        title="Figure 9: decomposition of the AP performance gain",
        columns=[
            "cores", "fbd", "fbd_apfl", "fbd_ap",
            "bandwidth_gain", "latency_gain",
        ],
    )
    for cores in CORE_COUNTS:
        fbd_vals, apfl_vals, ap_vals = [], [], []
        for workload in ctx.workloads_for(cores):
            programs = ctx.programs_of(workload)
            fbd_vals.append(
                ctx.smt_speedup(ctx.run(fbdimm_baseline(num_cores=cores), programs))
            )
            apfl_vals.append(
                ctx.smt_speedup(
                    ctx.run(fbdimm_amb_prefetch(num_cores=cores, prefetch=APFL), programs)
                )
            )
            ap_vals.append(
                ctx.smt_speedup(
                    ctx.run(fbdimm_amb_prefetch(num_cores=cores), programs)
                )
            )
        fbd, apfl, ap = mean(fbd_vals), mean(apfl_vals), mean(ap_vals)
        table.add(
            cores=cores,
            fbd=fbd,
            fbd_apfl=apfl,
            fbd_ap=ap,
            bandwidth_gain=apfl / fbd - 1.0,
            latency_gain=ap / apfl - 1.0,
        )
    return table
