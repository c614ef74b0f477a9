"""Controller-side prefetch buffering (PrefetchLocation.CONTROLLER)."""

import dataclasses


from repro.config import (
    AmbPrefetchConfig,
    PrefetchLocation,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.controller.controller import MemoryController
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.engine.simulator import Simulator
from repro.system import run_system

MC = AmbPrefetchConfig(location=PrefetchLocation.CONTROLLER)


class Harness:
    def __init__(self, memory):
        self.sim = Simulator()
        self.controller = MemoryController(self.sim, memory)
        self.done = []

    def submit(self, line, kind=RequestKind.DEMAND_READ, at=0):
        req = MemoryRequest(kind=kind, line_addr=line, core_id=0, arrival=at,
                            on_complete=self.done.append)
        self.sim.schedule_at(at, lambda: self.controller.submit(req))
        return req

    def run(self):
        self.sim.run(max_events=1_000_000)


def mc_memory():
    return fbdimm_amb_prefetch(prefetch=MC).memory


class TestControllerBufferPaths:
    def test_miss_still_costs_63ns(self):
        h = Harness(mc_memory())
        req = h.submit(0)
        h.run()
        assert req.latency == 63_000

    def test_hit_is_served_at_controller_overhead_only(self):
        h = Harness(mc_memory())
        h.submit(0, at=0)
        hit = h.submit(1, at=1_000_000)
        h.run()
        assert hit.amb_hit
        # No channel round trip at all: just the 12 ns controller overhead.
        assert hit.latency == 12_000

    def test_amb_tables_absent(self):
        h = Harness(mc_memory())
        channel = h.controller.channels[0]
        # Every DIMM's reads go to the one channel buffer.
        (shared,) = channel.prefetch_buffers
        assert all(buffer is shared for buffer in channel.buffers)

    def test_miss_moves_whole_region_over_channel(self):
        h = Harness(mc_memory())
        h.submit(0, at=0)
        h.run()
        h.controller.finalize()
        stats = h.controller.stats
        # 1 demanded + 3 prefetched lines crossed the channel.
        assert stats.bytes_read == 4 * 64
        assert stats.prefetched_lines == 3
        assert stats.activates == 1
        assert stats.column_accesses == 4

    def test_amb_placement_moves_only_demanded_line(self):
        h = Harness(fbdimm_amb_prefetch().memory)
        h.submit(0, at=0)
        h.run()
        h.controller.finalize()
        assert h.controller.stats.bytes_read == 64

    def test_write_invalidates_controller_buffer(self):
        h = Harness(mc_memory())
        h.submit(0, at=0)
        h.submit(1, kind=RequestKind.WRITE, at=1_000_000)
        third = h.submit(1, at=2_000_000)
        h.run()
        assert not third.amb_hit

    def test_merge_with_inflight_region(self):
        h = Harness(mc_memory())
        h.submit(0, at=0)
        merged = h.submit(1, at=40_000)
        h.run()
        assert merged.amb_hit
        h.controller.finalize()
        assert h.controller.stats.activates == 1

    def test_capacity_scales_with_dimms(self):
        h = Harness(mc_memory())
        channel = h.controller.channels[0]
        memory = mc_memory()
        expected = memory.prefetch.cache_entries * memory.dimms_per_channel
        assert channel.buffers[0].table.config.cache_entries == expected


class TestEndToEndComparison:
    def test_controller_placement_loses_at_high_core_count(self):
        """The paper's argument: buffering in front of the channel burns
        the bandwidth multi-core processors are short of."""
        def total_ipc(prefetch, cores, programs):
            cfg = fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch)
            cfg = dataclasses.replace(cfg, instructions_per_core=15_000)
            return sum(run_system(cfg, programs).core_ipcs)

        programs = [
            "wupwise", "swim", "mgrid", "applu", "vpr", "equake",
            "facerec", "lucas",
        ]
        amb = total_ipc(AmbPrefetchConfig(), 8, programs)
        mc = total_ipc(MC, 8, programs)
        assert amb > mc

    def test_controller_placement_viable_at_one_core(self):
        def total_ipc(config):
            cfg = dataclasses.replace(config, instructions_per_core=15_000)
            return sum(run_system(cfg, ["swim"]).core_ipcs)

        base = total_ipc(fbdimm_baseline(1))
        mc = total_ipc(fbdimm_amb_prefetch(1, prefetch=MC))
        assert mc > base  # with bandwidth to spare it still helps
