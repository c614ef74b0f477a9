"""FB-DIMM link and DDR2-channel component tests."""


from repro.channel.ddr2_bus import Ddr2Dimm
from repro.channel.fbdimm_link import FbdimmLinks
from repro.config import MemoryConfig, MemoryKind
from repro.controller.channel_controller import Ddr2ChannelController
from repro.controller.mapping import AddressMapper
from repro.dram.resources import BusResource, TaggedBusResource
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator
from repro.stats.collector import MemSystemStats


def fbd_config(**kw):
    return MemoryConfig(kind=MemoryKind.FBDIMM, **kw)


class TestFbdimmLinks:
    def test_frame_arithmetic_at_667(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        assert links.frame_ps == 6000
        assert links.read_frames == 2  # 64 B at 32 B per frame
        assert links.write_frames == 4  # 64 B at 16 B per frame

    def test_hop_penalty_without_vrl_is_farthest(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        # 4 DIMMs x 3 ns regardless of target DIMM.
        assert links.hop_penalty[0] == 12_000
        assert links.hop_penalty[3] == 12_000

    def test_hop_penalty_with_vrl_scales_with_distance(self):
        links = FbdimmLinks(fbd_config(variable_read_latency=True), channel_id=0)
        assert links.hop_penalty[0] == 3_000
        assert links.hop_penalty[3] == 12_000

    def test_three_commands_share_one_frame(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        # Frame [0, 6000) carries up to three commands, all arriving with
        # the same command delay; the fourth spills to the next frame.
        assert links.send_command_ps(0) == 3_000
        assert links.send_command_ps(0) == 3_000
        assert links.send_command_ps(0) == 3_000
        assert links.send_command_ps(0) == 6_000 + 3_000

    def test_command_waits_for_frame_boundary(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        assert links.send_command_ps(1) == 6_000 + 3_000  # next frame at 6 ns

    def test_send_write_streams_four_frames(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        arrival = links.send_write_ps(0, dimm=0)
        assert arrival == 4 * 6000 + 3000 + 12_000

    def test_return_read_critical_word(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        # Northbound grid is phase-locked at the command delay: 9000 is a
        # frame boundary (6000 + 3000 phase).
        ret = links.return_read(data_ready=9_000, dimm=1)
        assert ret.link_start == 9_000
        assert ret.critical_at_mc == 9_000 + 6000 + 12_000
        assert ret.full_at_mc == 9_000 + 12_000 + 12_000

    def test_return_read_waits_for_frame_boundary(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        ret = links.return_read(data_ready=10_000, dimm=0)
        assert ret.link_start == 15_000  # next phase-3000 boundary

    def test_northbound_serialises_reads(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        first = links.return_read(3_000, dimm=0)
        second = links.return_read(3_000, dimm=1)
        assert second.link_start >= first.link_start + 12_000

    def test_command_rides_in_write_data_frame(self):
        links = FbdimmLinks(fbd_config(), channel_id=0)
        links.send_write_ps(0, dimm=0)  # data in frames 0-3, one cmd slot each
        assert links.send_command_ps(0) == 3_000  # shares frame 0
        # A second command cannot share a data-carrying frame... and the
        # next three frames carry data with one spare command slot each.
        assert links.send_command_ps(0) == 6_000 + 3_000

    def test_frame_scales_with_data_rate(self):
        links = FbdimmLinks(fbd_config(data_rate_mts=800), channel_id=0)
        assert links.frame_ps == 5000


class TestDdr2Dimm:
    def make(self):
        config = MemoryConfig(kind=MemoryKind.DDR2)
        timing = TimingPs.from_config(
            config.timings, config.dram_clock_ps, config.burst_clocks
        )
        data = TaggedBusResource("data", switch_gap_ps=timing.clock)
        cmd = BusResource("cmd")
        dimm = Ddr2Dimm(config, timing, 0, 0, data, cmd)
        mapper = AddressMapper(config)
        return dimm, mapper, timing, data

    def dimm0_line(self, mapper):
        return 0  # line 0 -> channel 0, dimm 0 under cacheline interleave

    def test_read_timeline_includes_command_latch(self):
        dimm, mapper, t, _ = self.make()
        result = dimm.read_line(0, mapper.map(self.dimm0_line(mapper)))
        # cmd bus at 0, latch +1 clock, ACT, RD at +tRCD, data at +tCL.
        assert result.data_starts[0] == t.clock + t.tRCD + t.tCL

    def test_shared_data_bus_switch_gap(self):
        dimm, mapper, t, data = self.make()
        line = self.dimm0_line(mapper)
        first = dimm.read_line(0, mapper.map(line))
        # A write burst after a read burst pays the turnaround gap.
        second = dimm.write_line(first.data_times[0], mapper.map(line + 64))
        assert second.data_starts[0] >= first.data_times[0] + t.clock

    def test_bank_op_counts(self):
        config = MemoryConfig(kind=MemoryKind.DDR2)
        timing = TimingPs.from_config(
            config.timings, config.dram_clock_ps, config.burst_clocks
        )
        channel = Ddr2ChannelController(
            Simulator(), config, timing, 0, MemSystemStats()
        )
        dimm, mapper = channel.dimms[0], AddressMapper(config)
        line = self.dimm0_line(mapper)
        dimm.read_line(0, mapper.map(line))
        dimm.write_line(100_000, mapper.map(line + 64))
        counters = channel.collect_device_counters()
        assert (counters["activates"], counters["column_accesses"]) == (2, 2)
