"""Figure 8: prefetch coverage and efficiency across AMB-cache variants.

Varies, one axis at a time around the default (#CL=4, 64 entries, fully
associative):

* region size / interleave granularity #CL in {2, 4, 8};
* AMB-cache entries in {32, 64, 128};
* tag-store associativity in {direct, 2-way, full}.

Expected shapes: coverage rises with #CL (bounded by (K-1)/K) while
efficiency falls; more entries and more associativity help both, mildly.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import AmbPrefetchConfig, Associativity, fbdimm_amb_prefetch
from repro.experiments.runner import ExperimentContext, ResultTable, mean

#: (label, prefetch-config) variants, the figure's bar groups.
VARIANTS: List[Tuple[str, AmbPrefetchConfig]] = [
    ("#CL=2", AmbPrefetchConfig(region_cachelines=2)),
    ("#CL=4 (default)", AmbPrefetchConfig(region_cachelines=4)),
    ("#CL=8", AmbPrefetchConfig(region_cachelines=8)),
    ("#entry=32", AmbPrefetchConfig(cache_entries=32)),
    ("#entry=128", AmbPrefetchConfig(cache_entries=128)),
    ("Set=direct", AmbPrefetchConfig(associativity=Associativity.DIRECT)),
    ("Set=2", AmbPrefetchConfig(associativity=Associativity.TWO_WAY)),
]

CORE_COUNTS = (1, 4)


def plan(ctx: ExperimentContext) -> list:
    """Every run Figure 8 needs (coverage/efficiency need no references)."""
    pairs = []
    for _, prefetch in VARIANTS:
        for cores in CORE_COUNTS:
            for workload in ctx.workloads_for(cores):
                programs = tuple(ctx.programs_of(workload))
                config = fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch)
                pairs.append((config, programs))
    return pairs


def run(ctx: ExperimentContext) -> ResultTable:
    """Average coverage/efficiency of each variant."""
    table = ResultTable(
        title="Figure 8: AMB-prefetch coverage and efficiency",
        columns=["variant", "cores", "coverage", "efficiency", "bound"],
    )
    for label, prefetch in VARIANTS:
        for cores in CORE_COUNTS:
            coverages, efficiencies = [], []
            for workload in ctx.workloads_for(cores):
                programs = ctx.programs_of(workload)
                config = fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch)
                result = ctx.run(config, programs)
                coverages.append(result.prefetch_coverage)
                efficiencies.append(result.prefetch_efficiency)
            k = prefetch.region_cachelines
            table.add(
                variant=label,
                cores=cores,
                coverage=mean(coverages),
                efficiency=mean(efficiencies),
                bound=(k - 1) / k,
            )
    return table


def lifecycle_crosscheck(ctx: ExperimentContext) -> List[str]:
    """Recompute Figure 8's coverage from the lifecycle taxonomy.

    Re-runs every variant with ``AmbPrefetchConfig.lifecycle=True`` and
    checks, per run, that (a) the conservation invariant holds and
    (b) :func:`repro.stats.metrics.lifecycle_coverage` — coverage rebuilt
    from the per-prefetch outcome counters — equals the legacy
    ``prefetch_coverage`` *exactly* (``pf_hits`` is set from
    ``amb_hits`` at finalize, so any drift is a lifecycle-accounting bug,
    not noise).

    Returns human-readable mismatches; empty means the cross-check
    passed.  Deliberately separate from :func:`plan`/:func:`run`, whose
    lifecycle-off runs stay digest-pinned.
    """
    import dataclasses

    from repro.prefetch.lifecycle import conservation_delta
    from repro.stats import metrics

    problems: List[str] = []
    for label, prefetch in VARIANTS:
        for cores in CORE_COUNTS:
            for workload in ctx.workloads_for(cores):
                programs = ctx.programs_of(workload)
                config = fbdimm_amb_prefetch(
                    num_cores=cores,
                    prefetch=dataclasses.replace(prefetch, lifecycle=True),
                )
                result = ctx.run(config, programs)
                where = f"{label} cores={cores} workload={workload}"
                delta = conservation_delta(result.mem)
                if delta != 0:
                    problems.append(
                        f"{where}: conservation delta {delta:+d}"
                    )
                legacy = metrics.prefetch_coverage(result.mem)
                rebuilt = metrics.lifecycle_coverage(result.mem)
                if rebuilt != legacy:
                    problems.append(
                        f"{where}: lifecycle coverage {rebuilt!r}"
                        f" != legacy {legacy!r}"
                    )
    return problems
