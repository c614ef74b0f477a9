#!/usr/bin/env python3
"""Performance vs DRAM power across region sizes (Section 5.5).

AMB-cache hits skip the activate/precharge pair — the 4x-cost DRAM
operation — but group fetches add speculative column accesses.  This
example traces that trade-off for K in {1, 2, 4, 8} (K=1 disables
prefetching) on a single-core and an eight-core workload, printing the
ACT/CAS balance the paper's Figure 13 is built from.

Run:  python examples/power_study.py [--insts N]
"""

import argparse
import dataclasses

from repro import AmbPrefetchConfig, fbdimm_amb_prefetch, fbdimm_baseline, run_system
from repro.power import (
    CommandEnergyModel,
    MicronPowerCalculator,
    relative_dynamic_power_from_commands,
)
from repro.workloads.multiprog import workload_programs


def run(config, programs, insts):
    return run_system(
        dataclasses.replace(config, instructions_per_core=insts), programs
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--insts", type=int, default=30_000)
    args = parser.parse_args()

    calc = MicronPowerCalculator()
    model = CommandEnergyModel(act_pre_units=round(calc.act_to_column_ratio(), 1))
    print(
        f"Micron-style calculator: ACT/PRE pair = {calc.act_pre_energy_nj():.1f} nJ, "
        f"column burst = {calc.column_energy_nj():.1f} nJ "
        f"(ratio {calc.act_to_column_ratio():.1f}:1; the paper uses ~4:1)\n"
    )

    for workload in ("swim", "8C-1"):
        programs = workload_programs(workload)
        cores = len(programs)
        baseline = run(fbdimm_baseline(cores), programs, args.insts)
        base_ipc = sum(baseline.core_ipcs)
        print(f"workload {workload}:")
        print(f"  {'config':<8} {'speedup':>8} {'ACT':>7} {'CAS':>7} {'rel power':>10}")
        print(f"  {'FBD':<8} {1.0:>8.3f} {baseline.mem.activates:>7} "
              f"{baseline.mem.column_accesses:>7} {1.0:>10.3f}")
        for k in (2, 4, 8):
            prefetch = AmbPrefetchConfig(region_cachelines=k)
            result = run(fbdimm_amb_prefetch(cores, prefetch=prefetch), programs, args.insts)
            power = relative_dynamic_power_from_commands(result.mem, baseline.mem, model)
            print(
                f"  {'K=' + str(k):<8} {sum(result.core_ipcs) / base_ipc:>8.3f} "
                f"{result.mem.activates:>7} {result.mem.column_accesses:>7} "
                f"{power:>10.3f}"
            )
        print()

    print("Expected shape: ACT falls and CAS rises with K; the power saving")
    print("peaks around K=4 and erodes at K=8 as wasted prefetches pile up.")


if __name__ == "__main__":
    main()
