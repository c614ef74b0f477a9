"""AMB tests: group fetch, pending fills, cache lookups, invalidation.

The AMB cache is the AMB placement's :class:`PrefetchBuffer`: these cases
drive one channel's first DIMM and its buffer directly, composing a group
fetch the way the channel controller does.
"""


from repro.config import (
    AmbPrefetchConfig,
    InterleaveScheme,
    MemoryConfig,
    MemoryKind,
)
from repro.controller.channel_controller import FbdimmChannelController
from repro.controller.mapping import AddressMapper
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator
from repro.stats.collector import MemSystemStats


def make_channel(k=4, entries=64, enabled=True):
    config = MemoryConfig(
        kind=MemoryKind.FBDIMM,
        interleave=InterleaveScheme.MULTI_CACHELINE,
        prefetch=AmbPrefetchConfig(
            enabled=enabled, region_cachelines=k, cache_entries=entries
        ),
    )
    timing = TimingPs.from_config(
        config.timings, config.dram_clock_ps, config.burst_clocks
    )
    channel = FbdimmChannelController(
        Simulator(), config, timing, 0, MemSystemStats()
    )
    return channel, AddressMapper(config), timing


def make_amb(k=4, entries=64):
    """DIMM 0 of channel 0, its AMB cache, the mapper and the timing."""
    channel, mapper, timing = make_channel(k, entries)
    return channel.ambs[0], channel.buffers[0], mapper, timing


def line_on_dimm0(mapper, region_index=0):
    """A demanded line whose region maps to channel 0 / DIMM 0."""
    # Regions rotate channel first, then dimm: region r=0 -> ch0, dimm0.
    region = region_index * mapper.channels * mapper.dimms
    return region * mapper.region_lines


def group_fetch(amb, buffer, line, mapper):
    """Fetch ``line`` and its companions into the AMB cache at time 0;
    returns the group read and the booked ``{line: fill time}``."""
    order = buffer.miss(line)
    result = amb.group_read(0, mapper.map(line), len(order))
    fills = dict(zip(order[1:], result.data_times[1:]))
    buffer.start_fills(line // mapper.region_lines, fills)
    return result, fills


class TestGroupFetch:
    def test_demanded_line_comes_first(self):
        amb, buffer, mapper, timing = make_amb()
        demanded = line_on_dimm0(mapper) + 2
        result, fills = group_fetch(amb, buffer, demanded, mapper)
        # The demanded line's burst starts at tRCD + tCL; fills trail it.
        demanded_start = result.data_starts[0]
        assert demanded_start == timing.tRCD + timing.tCL
        assert all(t > demanded_start for t in fills.values())

    def test_fills_cover_rest_of_region(self):
        amb, buffer, mapper, _ = make_amb()
        base = line_on_dimm0(mapper)
        _, fills = group_fetch(amb, buffer, base + 2, mapper)
        assert set(fills) == {base, base + 1, base + 3}
        assert buffer.prefetched_lines == 3

    def test_one_activate_k_column_accesses(self):
        channel, mapper, _ = make_channel()
        base = line_on_dimm0(mapper)
        group_fetch(channel.ambs[0], channel.buffers[0], base, mapper)
        counters = channel.collect_device_counters()
        assert counters["activates"] == 1
        assert counters["column_accesses"] == 4

    def test_last_fill_is_max(self):
        amb, buffer, mapper, _ = make_amb()
        base = line_on_dimm0(mapper)
        result, fills = group_fetch(amb, buffer, base, mapper)
        assert result.data_times[-1] == max(fills.values())


class TestCacheLookup:
    def test_miss_before_fetch(self):
        _, buffer, _, _ = make_amb()
        assert buffer.lookup(0) is None

    def test_pending_fill_counts_as_hit_with_fill_time(self):
        amb, buffer, mapper, _ = make_amb()
        base = line_on_dimm0(mapper)
        _, fills = group_fetch(amb, buffer, base, mapper)
        assert buffer.lookup(base + 1) == fills[base + 1]

    def test_committed_fill_hits_immediately(self):
        amb, buffer, mapper, _ = make_amb()
        base = line_on_dimm0(mapper)
        group_fetch(amb, buffer, base, mapper)
        buffer.commit(base // 4)
        assert buffer.lookup(base + 1) == 0
        assert not buffer.pending

    def test_demanded_line_itself_is_not_cached(self):
        amb, buffer, mapper, _ = make_amb()
        base = line_on_dimm0(mapper)
        group_fetch(amb, buffer, base, mapper)
        buffer.commit(base // 4)
        assert buffer.lookup(base) is None

    def test_lookup_counts_stats(self):
        _, buffer, mapper, _ = make_amb()
        buffer.lookup(line_on_dimm0(mapper))
        assert buffer.table.stats.lookups == 1


class TestInvalidate:
    def test_write_invalidates_committed_line(self):
        amb, buffer, mapper, _ = make_amb()
        base = line_on_dimm0(mapper)
        group_fetch(amb, buffer, base, mapper)
        buffer.commit(base // 4)
        buffer.invalidate(base + 1)
        assert buffer.lookup(base + 1) is None

    def test_write_invalidates_pending_fill(self):
        amb, buffer, mapper, _ = make_amb()
        base = line_on_dimm0(mapper)
        group_fetch(amb, buffer, base, mapper)
        buffer.invalidate(base + 1)
        assert buffer.lookup(base + 1) is None
        # Other pending lines survive.
        assert buffer.lookup(base + 2) is not None

    def test_invalidate_without_prefetch_is_noop(self):
        channel, mapper, _ = make_channel(enabled=False)
        assert channel.buffers == [] and channel.prefetch_buffers == ()
        write = MemoryRequest(RequestKind.WRITE, 0, 0, 0)
        write.mapped = mapper.map(0)
        channel.submit(write)  # must not raise
        channel.sim.run(max_events=1_000)
        assert write.finish_time > 0


class TestPlainAccess:
    def test_read_line_uses_bank(self):
        amb, _, mapper, timing = make_amb()
        base = line_on_dimm0(mapper)
        result = amb.read_line(0, mapper.map(base))
        assert result.data_starts[0] == timing.tRCD + timing.tCL

    def test_write_line_counts(self):
        channel, mapper, _ = make_channel()
        amb = channel.ambs[0]
        amb.write_line(0, mapper.map(line_on_dimm0(mapper)))
        counters = channel.collect_device_counters()
        assert (counters["activates"], counters["column_accesses"]) == (1, 1)
