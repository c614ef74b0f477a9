"""Section 4's idle-latency claim: 63 ns per miss, 33 ns per AMB-cache hit.

Drives a bare memory controller (no cores) with single requests on an
otherwise idle system, so the measured latencies are pure service times:

* FB-DIMM miss:  12 controller + 3 command + 15 tRCD + 15 tCL + 6 data
  + 4 x 3 AMB hops = 63 ns;
* FB-DIMM AMB-cache hit: the tRCD + tCL disappear = 33 ns;
* DDR2 reference: 12 + 3 command + 3 latch + 30 + 12 burst = 60 ns.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import (
    MemoryConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.controller.controller import MemoryController
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.engine.simulator import Simulator
from repro.experiments.runner import ExperimentContext, ResultTable


def _idle_read_latency_ns(memory: MemoryConfig, line_addrs: List[int]) -> float:
    """Latency of the *last* of a sequence of back-to-back idle reads.

    Earlier reads warm the AMB cache; each read fully drains before the
    next is injected, so no queueing ever occurs.
    """
    sim = Simulator()
    controller = MemoryController(sim, memory)
    finished: List[MemoryRequest] = []
    inject_at = 0
    frame = memory.frame_ps
    for line in line_addrs:
        request = MemoryRequest(
            kind=RequestKind.DEMAND_READ,
            line_addr=line,
            core_id=0,
            arrival=inject_at,
            on_complete=finished.append,
        )
        sim.schedule_fire(inject_at, lambda r=request: controller.submit(r))
        sim.run(max_events=10_000)
        # A quiet microsecond between reads, frame-aligned so the idle
        # latency is not inflated by up to one frame of grid alignment.
        inject_at = -(-(sim.now + 1_000_000) // frame) * frame
    assert len(finished) == len(line_addrs)
    return finished[-1].latency / 1000.0


def plan(ctx: Optional[ExperimentContext] = None) -> list:
    """Nothing to prefetch: this experiment drives a bare controller with
    single injected requests, not ``run_system`` sweeps."""
    return []


def run(ctx: Optional[ExperimentContext] = None) -> ResultTable:
    """Measure the idle read latencies of all three systems."""
    table = ResultTable(
        title="Idle memory read latency (Section 4)",
        columns=["system", "case", "latency_ns"],
    )
    ddr2 = ddr2_baseline().memory
    fbd = fbdimm_baseline().memory
    ap = fbdimm_amb_prefetch().memory

    table.add(system="DDR2", case="miss", latency_ns=_idle_read_latency_ns(ddr2, [0]))
    table.add(system="FBD", case="miss", latency_ns=_idle_read_latency_ns(fbd, [0]))
    # First read of a region misses and fills the AMB cache; the second
    # read, one line over, is the AMB-cache hit.
    table.add(
        system="FBD-AP", case="miss", latency_ns=_idle_read_latency_ns(ap, [0])
    )
    table.add(
        system="FBD-AP", case="amb hit", latency_ns=_idle_read_latency_ns(ap, [0, 1])
    )
    return table
