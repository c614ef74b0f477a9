"""Targeted edge-case tests across the timing-critical modules."""

import dataclasses
from collections import deque


from repro.config import (
    DramTimings,
    MemoryConfig,
    MemoryKind,
    PagePolicy,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.controller.controller import MemoryController
from repro.controller.scheduler import HitFirstScheduler
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.dram.bank import Bank, RankTimer
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator
from repro.system import run_system

T = TimingPs.from_config(DramTimings(), 3000, 4)


class TestBankEdges:
    def test_tras_limits_early_precharge(self):
        """A single fast read still holds the row open tRAS before PRE."""
        bank = Bank(0, T, PagePolicy.CLOSE_PAGE)
        bank.read(0, 5, 1, BusResource("b"), RankTimer())
        # PRE at max(tRAS, RD+tRPD) = max(39, 15+9) = 39; ready at
        # max(tRC, 39+tRP) = max(54, 54) = 54 ns.
        assert bank.ready_at == 54_000

    def test_twpd_dominates_write_precharge(self):
        bank = Bank(0, T, PagePolicy.CLOSE_PAGE)
        bank.write(0, 5, BusResource("b"), RankTimer())
        # WR at tRCD=15; PRE at max(ACT+tRAS, WR+tWPD)=max(39, 51)=51;
        # ready at max(tRC, 51+tRP)=66 ns.
        assert bank.ready_at == 66_000

    def test_group_read_with_congested_bus_stretches_tail(self):
        bank = Bank(0, T, PagePolicy.CLOSE_PAGE)
        bus = BusResource("b")
        bus.reserve(30_000, 24_000)  # busy [30, 54) ns
        result = bank.read(0, 5, 2, bus, RankTimer())
        # First burst wants 30 ns but the bus is busy until 54 ns.
        assert result.data_starts[0] == 54_000
        assert result.data_starts[1] == 66_000

    def test_open_page_write_then_read_same_row(self):
        bank = Bank(0, T, PagePolicy.OPEN_PAGE)
        bus, rank = BusResource("b"), RankTimer()
        bank.write(0, 5, bus, rank)
        result = bank.read(bank.column_ok, 5, 1, bus, rank)
        assert result.row_hit
        # tWTR after the write burst still gates the read command.
        write_data_end = T.tRCD + T.tWL + T.burst
        assert result.data_starts[0] - T.tCL >= write_data_end + T.tWTR

    def test_back_to_back_different_rows_close_page(self):
        bank = Bank(0, T, PagePolicy.CLOSE_PAGE)
        bus, rank = BusResource("b"), RankTimer()
        first = bank.read(0, 5, 1, bus, rank)
        second = bank.read(0, 99, 1, bus, rank)
        assert second.command_start - first.command_start >= T.tRC

    def test_estimate_is_consistent_with_actual_issue(self):
        bank = Bank(0, T, PagePolicy.CLOSE_PAGE)
        bus, rank = BusResource("b"), RankTimer()
        bank.read(0, 5, 1, bus, rank)
        est, _ = bank.probe(10_000, 6, rank)
        result = bank.read(10_000, 6, 1, bus, rank)
        assert result.command_start == est


class TestSchedulerEdges:
    def req(self, kind=RequestKind.DEMAND_READ, line=0):
        r = MemoryRequest(kind=kind, line_addr=line, core_id=0, arrival=0)
        r.schedulable_at = 0
        return r

    def test_single_write_no_reads_issues_immediately(self):
        s = HitFirstScheduler(write_drain_threshold=16)
        w = deque([self.req(RequestKind.WRITE)])
        chosen, est, is_write = s.select(0, deque(), w, lambda r: (0, False))
        assert is_write and est == 0

    def test_sw_prefetch_goes_through_read_queue(self):
        s = HitFirstScheduler(write_drain_threshold=16)
        r = deque([self.req(RequestKind.SW_PREFETCH)])
        chosen, _, is_write = s.select(0, r, deque(), lambda r: (0, False))
        assert not is_write

    def test_selection_is_stable_under_equal_keys(self):
        s = HitFirstScheduler(write_drain_threshold=16)
        reads = deque(self.req(line=i) for i in range(5))
        chosen, _, _ = s.select(0, reads, deque(), lambda r: (0, False))
        assert chosen is reads[0]  # FIFO among ties

    def test_hysteresis_resets_after_full_drain(self):
        s = HitFirstScheduler(write_drain_threshold=2)
        reads = deque([self.req()])
        s.select(0, reads, deque(self.req(RequestKind.WRITE) for _ in range(2)),
                 lambda r: (0, False))
        assert s._draining_writes
        # Queue fully drained: flag clears even with reads present.
        s.select(0, reads, deque(), lambda r: (0, False))
        assert not s._draining_writes


class TestControllerEdges:
    def drive(self, memory, reqs):
        sim = Simulator()
        controller = MemoryController(sim, memory)
        done = []
        for kind, line, at in reqs:
            r = MemoryRequest(kind=kind, line_addr=line, core_id=0,
                              arrival=at, on_complete=done.append)
            sim.schedule_at(at, lambda rr=r: controller.submit(rr))
        sim.run(max_events=500_000)
        return controller, done

    def test_same_line_twice_without_prefetch(self):
        memory = MemoryConfig(kind=MemoryKind.FBDIMM)
        controller, done = self.drive(
            memory,
            [(RequestKind.DEMAND_READ, 7, 0), (RequestKind.DEMAND_READ, 7, 0)],
        )
        assert len(done) == 2
        controller.finalize()
        assert controller.stats.activates == 2  # no magic dedup

    def test_write_then_read_same_line_ordering(self):
        memory = fbdimm_amb_prefetch().memory
        controller, done = self.drive(
            memory,
            [(RequestKind.WRITE, 3, 0), (RequestKind.DEMAND_READ, 3, 0)],
        )
        assert len(done) == 2

    def test_burst_of_64_reads_all_complete(self):
        memory = fbdimm_baseline().memory
        reqs = [(RequestKind.DEMAND_READ, i * 7, 0) for i in range(64)]
        controller, done = self.drive(memory, reqs)
        assert len(done) == 64
        assert controller.drained()

    def test_backlog_is_fifo(self):
        memory = dataclasses.replace(fbdimm_baseline().memory, buffer_entries=1)
        reqs = [(RequestKind.DEMAND_READ, i, 0) for i in range(5)]
        controller, done = self.drive(memory, reqs)
        finish_order = [r.line_addr for r in done]
        assert finish_order == sorted(finish_order)

    def test_inflight_caps_respected(self):
        memory = fbdimm_baseline().memory
        sim = Simulator()
        controller = MemoryController(sim, memory)
        for i in range(200):
            r = MemoryRequest(kind=RequestKind.DEMAND_READ, line_addr=i,
                              core_id=0, arrival=0)
            controller.submit(r)
        peak = [0]

        def watch():
            current = max(
                ch.inflight_reads + ch.inflight_writes
                for ch in controller.channels
            )
            peak[0] = max(peak[0], current)
            if controller.outstanding():
                sim.schedule(1_000, watch)

        sim.schedule(1_000, watch)
        sim.run(max_events=2_000_000)
        cap = controller.channels[0].max_read_inflight + \
            controller.channels[0].max_write_inflight
        assert 0 < peak[0] <= cap

    def test_region_spanning_writes_invalidate_only_their_line(self):
        memory = fbdimm_amb_prefetch().memory
        controller, done = self.drive(
            memory,
            [
                (RequestKind.DEMAND_READ, 0, 0),  # fetches region 0-3
                (RequestKind.WRITE, 1, 1_200_000),
                (RequestKind.DEMAND_READ, 2, 2_400_000),  # line 2 still cached
                (RequestKind.DEMAND_READ, 1, 3_600_000),  # line 1 was killed
            ],
        )
        reads = [r for r in done if r.kind is RequestKind.DEMAND_READ]
        by_line = {r.line_addr: r for r in reads}
        assert by_line[2].amb_hit
        assert not by_line[1].amb_hit


class TestSystemEdges:
    def test_one_instruction_target(self):
        config = dataclasses.replace(
            fbdimm_baseline(1), instructions_per_core=1
        )
        result = run_system(config, ["swim"])
        assert result.core_instructions == [1]

    def test_identical_programs_on_all_cores(self):
        config = dataclasses.replace(
            fbdimm_baseline(2), instructions_per_core=4_000
        )
        result = run_system(config, ["swim", "swim"])
        # Same program, disjoint address spaces: similar but not identical
        # progress (different per-core seeds).
        assert all(i > 0 for i in result.core_instructions)

    def test_software_prefetch_off_increases_demand_reads(self):
        base = dataclasses.replace(
            fbdimm_baseline(1), instructions_per_core=8_000
        )
        with_sp = run_system(base, ["swim"])
        without_sp = run_system(
            dataclasses.replace(base, software_prefetch=False), ["swim"]
        )
        assert without_sp.mem.demand_reads > with_sp.mem.demand_reads
        assert without_sp.mem.sw_prefetch_reads == 0
