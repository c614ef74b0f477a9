"""Core-model tests with scripted traces and a fake memory controller."""

import pytest

from repro.config import CpuConfig
from repro.controller.transaction import RequestKind
from repro.cpu.core import Core
from repro.cpu.l2 import L2FillTable
from repro.cpu.mshr import Limiter
from repro.engine.simulator import Simulator
from repro.workloads.trace import TraceEvent, TraceKind


class FakeMemory:
    """Completes every request after a fixed service time."""

    def __init__(self, sim, latency_ps=63_000):
        self.sim = sim
        self.latency_ps = latency_ps
        self.submitted = []

    def submit(self, req):
        self.submitted.append(req)
        self.sim.schedule(self.latency_ps, lambda: req.complete(self.sim.now))


def run_core(events, *, config=None, base_ipc=1.0, target=10_000, latency=63_000):
    sim = Simulator()
    memory = FakeMemory(sim, latency)
    l2 = L2FillTable(1024)
    finished = []
    core = Core(
        sim=sim,
        core_id=0,
        config=config or CpuConfig(),
        base_ipc=base_ipc,
        trace=iter(events),
        controller=memory,
        l2=l2,
        l2_mshr=Limiter(64),
        target_instructions=target,
        on_finished=finished.append,
    )
    core.start()
    sim.run(max_events=1_000_000)
    return core, memory, sim, finished


def endless(events):
    """Pad a scripted prefix with far-future no-op reads."""
    tail_start = max((e.inst for e in events), default=0) + 10**9

    def gen():
        yield from events
        i = tail_start
        while True:
            yield TraceEvent(i, TraceKind.READ, 99_000_000 + i)
            i += 1000

    return gen()


class TestComputeBound:
    def test_finishes_at_base_rate_without_memory_events(self):
        core, _, sim, finished = run_core(endless([]), base_ipc=2.0, target=8_000)
        assert finished, "core must reach its target"
        # 8000 instructions at IPC 2 and 250 ps/cycle -> 1_000_000 ps.
        assert sim.now == 1_000_000
        assert core.committed_instructions == 8_000

    def test_ipc_metric(self):
        core, _, sim, _ = run_core(endless([]), base_ipc=2.0, target=8_000)
        assert core.ipc(sim.now) == pytest.approx(2.0)


class TestDemandReads:
    def test_early_miss_is_fully_hidden(self):
        events = [TraceEvent(1000, TraceKind.READ, 42)]
        core, memory, sim, finished = run_core(
            endless(events), base_ipc=1.0, target=2_000
        )
        assert finished
        assert len(memory.submitted) == 1
        assert memory.submitted[0].kind is RequestKind.DEMAND_READ
        # The 63 ns latency overlaps 1000 instructions of compute entirely.
        assert sim.now == 2_000 * 250

    def test_late_miss_stalls_commit(self):
        events = [TraceEvent(1900, TraceKind.READ, 42)]
        core, memory, sim, finished = run_core(
            endless(events), base_ipc=1.0, target=2_000
        )
        assert finished
        # Miss issues at 475_000 ps and completes 63 ns later; the target
        # instruction cannot commit before that.
        assert sim.now == 1_900 * 250 + 63_000

    def test_mlp_overlaps_misses_within_rob(self):
        """Two misses 10 instructions apart overlap; total stall ~1 latency."""
        events = [
            TraceEvent(1000, TraceKind.READ, 42),
            TraceEvent(1010, TraceKind.READ, 4242),
        ]
        core, memory, sim, _ = run_core(endless(events), target=2_000)
        base = 2_000 * 250
        assert len(memory.submitted) == 2
        assert sim.now < base + 2 * 63_000  # overlapped, not serial

    def test_rob_blocks_distant_run_ahead(self):
        """A miss must stall the core once it runs ROB-entries ahead."""
        config = CpuConfig(rob_entries=64)
        events = [TraceEvent(1000, TraceKind.READ, 42)]
        core, _, sim, _ = run_core(endless(events), config=config, target=2_000)
        assert core.stats.rob_stalls >= 1

    def test_mshr_exhaustion_stalls(self):
        config = CpuConfig(data_mshr_entries=1, rob_entries=100_000)
        events = [
            TraceEvent(10, TraceKind.READ, 1),
            TraceEvent(20, TraceKind.READ, 2),
        ]
        core, _, _, _ = run_core(endless(events), config=config, target=2_000)
        assert core.stats.mshr_stalls >= 1
        assert core.stats.demand_misses == 2


class TestTraceOrder:
    @pytest.mark.parametrize("second", [50, 49], ids=["repeated", "earlier"])
    def test_non_increasing_trace_is_rejected(self, second):
        """The ROB window reads the oldest outstanding read as the first
        one, which needs strictly increasing instruction order."""
        events = [TraceEvent(50, TraceKind.READ, 1),
                  TraceEvent(second, TraceKind.READ, 2)]
        with pytest.raises(ValueError, match=f"core 0: trace order violated: "
                                             f"inst {second} after 50"):
            run_core(events)


class TestSoftwarePrefetch:
    def test_prefetch_turns_demand_into_hit(self):
        events = [
            TraceEvent(10, TraceKind.PREFETCH, 42),
            TraceEvent(2000, TraceKind.READ, 42),
        ]
        core, memory, _, _ = run_core(endless(events), target=4_000)
        assert core.stats.sw_prefetches_issued == 1
        assert core.stats.l2_prefetch_hits == 1
        assert core.stats.demand_misses == 0

    def test_close_demand_merges_with_inflight_prefetch(self):
        events = [
            TraceEvent(10, TraceKind.PREFETCH, 42),
            TraceEvent(20, TraceKind.READ, 42),  # fill still in flight
        ]
        core, memory, _, _ = run_core(endless(events), target=4_000)
        assert core.stats.l2_merges == 1
        assert len([r for r in memory.submitted if r.kind is RequestKind.DEMAND_READ]) == 0

    def test_prefetch_dropped_when_mshrs_full(self):
        config = CpuConfig(data_mshr_entries=1, rob_entries=100_000)
        events = [
            TraceEvent(10, TraceKind.READ, 1),
            TraceEvent(11, TraceKind.PREFETCH, 2),
        ]
        core, _, _, _ = run_core(endless(events), config=config, target=2_000)
        assert core.stats.sw_prefetches_dropped == 1

    def test_duplicate_prefetch_squashed(self):
        events = [
            TraceEvent(10, TraceKind.PREFETCH, 42),
            TraceEvent(11, TraceKind.PREFETCH, 42),
        ]
        core, memory, _, _ = run_core(endless(events), target=2_000)
        assert core.stats.sw_prefetches_issued == 1
        assert core.stats.sw_prefetches_squashed == 1


class TestWrites:
    def test_write_is_posted(self):
        events = [TraceEvent(1000, TraceKind.WRITE, 7)]
        core, memory, sim, _ = run_core(endless(events), target=2_000)
        assert core.stats.writes_issued == 1
        assert sim.now == 2_000 * 250  # no stall from one posted write

    def test_store_buffer_fills_and_stalls(self):
        config = CpuConfig(store_buffer_entries=2)
        events = [TraceEvent(10 + i, TraceKind.WRITE, i) for i in range(5)]
        core, _, _, _ = run_core(endless(events), config=config, target=2_000)
        assert core.stats.store_stalls >= 1
        assert core.stats.writes_issued == 5


class TestFinish:
    def test_on_finished_called_once_with_core(self):
        core, _, _, finished = run_core(endless([]), target=1_000)
        assert finished == [core]
        assert core.finished
        assert core.committed_instructions == 1_000

    def test_invalid_base_ipc(self):
        with pytest.raises(ValueError):
            run_core(endless([]), base_ipc=0.0)
