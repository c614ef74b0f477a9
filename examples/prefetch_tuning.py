#!/usr/bin/env python3
"""Tune the AMB prefetcher for a workload.

Sweeps the three design knobs of Section 5.3 — region size K, AMB-cache
entries, and tag-store associativity — on a four-core workload, and prints
performance, coverage, efficiency and relative DRAM power for each
configuration, ending with a recommendation in the spirit of the paper's
conclusion ("four-way associativity, 64 cache lines, four-cacheline
interleaving is a good choice").

Run:  python examples/prefetch_tuning.py [--workload 4C-1] [--insts N]
"""

import argparse
import dataclasses

from repro import (
    AmbPrefetchConfig,
    Associativity,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
    run_system,
)
from repro.power import relative_dynamic_power_from_commands
from repro.workloads.multiprog import workload_programs

VARIANTS = [
    ("K=2", AmbPrefetchConfig(region_cachelines=2)),
    ("K=4", AmbPrefetchConfig(region_cachelines=4)),
    ("K=8", AmbPrefetchConfig(region_cachelines=8)),
    ("K=4, 32 entries", AmbPrefetchConfig(cache_entries=32)),
    ("K=4, 128 entries", AmbPrefetchConfig(cache_entries=128)),
    ("K=4, direct", AmbPrefetchConfig(associativity=Associativity.DIRECT)),
    ("K=4, 2-way", AmbPrefetchConfig(associativity=Associativity.TWO_WAY)),
    ("K=4, 4-way", AmbPrefetchConfig(associativity=Associativity.FOUR_WAY)),
]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="4C-1")
    parser.add_argument("--insts", type=int, default=30_000)
    args = parser.parse_args()

    programs = workload_programs(args.workload)
    cores = len(programs)

    base_cfg = dataclasses.replace(
        fbdimm_baseline(cores), instructions_per_core=args.insts
    )
    baseline = run_system(base_cfg, programs)
    base_ipc = sum(baseline.core_ipcs)
    print(f"workload {args.workload}: plain FB-DIMM sum-IPC = {base_ipc:.3f}\n")

    header = (
        f"{'variant':<18} {'speedup':>8} {'coverage':>9} "
        f"{'efficiency':>11} {'rel power':>10}"
    )
    print(header)
    print("-" * len(header))
    scored = []
    for label, prefetch in VARIANTS:
        config = dataclasses.replace(
            fbdimm_amb_prefetch(cores, prefetch=prefetch),
            instructions_per_core=args.insts,
        )
        result = run_system(config, programs)
        speedup = sum(result.core_ipcs) / base_ipc
        power = relative_dynamic_power_from_commands(result.mem, baseline.mem)
        scored.append((label, speedup, power))
        print(
            f"{label:<18} {speedup:>8.3f} {result.prefetch_coverage:>9.3f} "
            f"{result.prefetch_efficiency:>11.3f} {power:>10.3f}"
        )

    # Recommend the variant with the best speedup-per-power balance.
    best = max(scored, key=lambda item: item[1] / item[2])
    print(
        f"\nrecommendation: '{best[0]}' "
        f"(speedup {best[1]:.3f} at {best[2]:.2f}x relative DRAM power)"
    )


if __name__ == "__main__":
    main()
