"""Channel-controller integration tests, driven through MemoryController.

These exercise full request paths against an idle or lightly loaded system
where exact latencies are predictable from Table 2, including the paper's
headline 63 ns / 33 ns idle-latency claim.
"""


from repro.config import (
    AmbPrefetchConfig,
    MemoryConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.controller.controller import MemoryController
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.engine.simulator import Simulator


class Harness:
    """Drives a bare memory controller with hand-placed requests."""

    def __init__(self, memory: MemoryConfig):
        self.sim = Simulator()
        self.controller = MemoryController(self.sim, memory)
        self.done = []

    def submit(self, line, kind=RequestKind.DEMAND_READ, at=0):
        req = MemoryRequest(
            kind=kind, line_addr=line, core_id=0, arrival=at,
            on_complete=self.done.append,
        )
        self.sim.schedule_at(at, lambda: self.controller.submit(req))
        return req

    def run(self):
        self.sim.run(max_events=1_000_000)


class TestIdleLatencies:
    def test_fbd_miss_is_63ns(self):
        h = Harness(fbdimm_baseline().memory)
        req = h.submit(0)
        h.run()
        assert req.latency == 63_000

    def test_fbd_ap_hit_is_33ns(self):
        h = Harness(fbdimm_amb_prefetch().memory)
        first = h.submit(0, at=0)
        second = h.submit(1, at=1_200_000)  # frame-aligned quiet point
        h.run()
        assert first.latency == 63_000
        assert second.latency == 33_000
        assert second.amb_hit

    def test_ddr2_miss_is_57ns(self):
        h = Harness(ddr2_baseline().memory)
        req = h.submit(0)
        h.run()
        assert req.latency == 57_000

    def test_apfl_hit_pays_full_latency(self):
        memory = fbdimm_amb_prefetch(
            prefetch=AmbPrefetchConfig(full_latency_hits=True)
        ).memory
        h = Harness(memory)
        h.submit(0, at=0)
        second = h.submit(1, at=1_200_000)  # frame-aligned
        h.run()
        assert second.amb_hit
        assert second.latency == 63_000  # hit, but at miss latency

    def test_vrl_shortens_near_dimm_reads(self):
        base = fbdimm_baseline().memory
        h_fix = Harness(base)
        req_fix = h_fix.submit(0)
        h_fix.run()
        import dataclasses

        h_vrl = Harness(dataclasses.replace(base, variable_read_latency=True))
        req_vrl = h_vrl.submit(0)  # line 0 -> DIMM 0, one hop away
        h_vrl.run()
        assert req_vrl.latency < req_fix.latency


class TestPrefetchBehaviour:
    def test_merge_with_inflight_fill(self):
        """A read arriving while its region streams in must not re-fetch."""
        h = Harness(fbdimm_amb_prefetch().memory)
        h.submit(0, at=0)
        merged = h.submit(1, at=40_000)  # fills land ~63-75 ns
        h.run()
        assert merged.amb_hit
        h.controller.finalize()
        acts = h.controller.stats.activates
        assert acts == 1, "merged read must not trigger a second ACT"

    def test_write_invalidates_amb_line(self):
        h = Harness(fbdimm_amb_prefetch().memory)
        h.submit(0, at=0)
        h.submit(1, kind=RequestKind.WRITE, at=1_000_000)
        third = h.submit(1, at=2_000_000)
        h.run()
        assert not third.amb_hit, "stale AMB copy must not serve the read"

    def test_group_fetch_counts_k_column_accesses(self):
        h = Harness(fbdimm_amb_prefetch().memory)
        h.submit(0, at=0)
        h.run()
        h.controller.finalize()
        assert h.controller.stats.activates == 1
        assert h.controller.stats.column_accesses == 4
        assert h.controller.stats.prefetched_lines == 3

    def test_sw_prefetch_request_can_hit_amb_cache(self):
        h = Harness(fbdimm_amb_prefetch().memory)
        h.submit(0, at=0)
        pf = h.submit(1, kind=RequestKind.SW_PREFETCH, at=1_000_000)
        h.run()
        assert pf.amb_hit


class TestSchedulerProbe:
    """Submit binds what the scheduler's one probe per candidate reads."""

    def bound_read(self, h, line):
        req = MemoryRequest(RequestKind.DEMAND_READ, line, 0, h.sim.now)
        req.mapped = h.controller.mapper.map(line)
        channel = h.controller.channels[req.mapped.channel]
        channel.submit(req)
        return channel, req

    def test_submit_binds_bank_timer_and_tag_set(self):
        h = Harness(fbdimm_amb_prefetch().memory)
        channel, req = self.bound_read(h, 0)
        amb = channel.ambs[req.mapped.dimm]
        assert req.bank is amb.bank_of(req.mapped)
        assert req.rank_timer is amb.timer_of(req.mapped)
        assert req.tag_set is amb.table.set_for(0)
        assert req.pending_fills is amb.pending_fills

    def test_writes_and_plain_fbd_reads_bind_no_tag_set(self):
        h = Harness(fbdimm_baseline().memory)
        _, read = self.bound_read(h, 0)
        assert read.bank is not None and read.tag_set is None
        h = Harness(fbdimm_amb_prefetch().memory)
        write = MemoryRequest(RequestKind.WRITE, 0, 0, 0)
        write.mapped = h.controller.mapper.map(0)
        h.controller.channels[write.mapped.channel].submit(write)
        assert write.bank is not None and write.tag_set is None

    def test_buffered_line_is_a_ready_hit_until_the_channel_degrades(self):
        h = Harness(fbdimm_amb_prefetch().memory)
        h.submit(0)
        h.run()  # line 0's group fetch leaves lines 1-3 in the AMB cache
        channel, req = self.bound_read(h, 1)
        assert channel._probe(req) == (h.sim.now, True)

        class Degraded:
            degraded = True

        channel.faults = Degraded()
        assert channel._probe(req) == req.bank.probe(
            h.sim.now, req.mapped.row, req.rank_timer
        )


class TestQueueing:
    def test_bank_conflict_reorders(self):
        """Two reads to one bank, one to another: the other-bank read must
        not wait for the conflicting pair (FR-FCFS behaviour)."""
        memory = fbdimm_baseline().memory
        h = Harness(memory)
        # Cacheline interleave: lines 0 and 256 share channel 0 / dimm 0 /
        # bank 0 (64 banks x 4 lines rotation); line 16 is bank 1.
        a = h.submit(0, at=0)
        b = h.submit(256, at=100)
        c = h.submit(16, at=200)
        h.run()
        assert c.finish_time < b.finish_time

    def test_completion_metrics_recorded(self):
        h = Harness(fbdimm_baseline().memory)
        h.submit(0, at=0)
        h.submit(1, kind=RequestKind.WRITE, at=0)
        h.run()
        stats = h.controller.stats
        assert stats.demand_reads == 1
        assert stats.writes == 1
        assert stats.bytes_read == 64
        assert stats.bytes_written == 64
        assert stats.demand_latency_sum_ps == 63_000


class TestControllerBuffer:
    def test_overhead_applied(self):
        h = Harness(fbdimm_baseline().memory)
        req = h.submit(0, at=5_000)
        h.run()
        assert req.schedulable_at == 5_000 + 12_000

    def test_backlog_beyond_capacity(self):
        import dataclasses

        memory = dataclasses.replace(fbdimm_baseline().memory, buffer_entries=2)
        h = Harness(memory)
        reqs = [h.submit(i * 4, at=0) for i in range(6)]
        h.run()
        assert all(r.finish_time > 0 for r in reqs)
        assert h.controller.drained()

    def test_outstanding_counts(self):
        h = Harness(fbdimm_baseline().memory)
        h.submit(0, at=0)
        assert h.controller.outstanding() == 0  # not yet submitted
        h.run()
        assert h.controller.drained()
