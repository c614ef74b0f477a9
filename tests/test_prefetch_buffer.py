"""The prefetch buffer shared by both placements (AMB cache and
controller-side buffer): late hits, K=1 groups, policy ownership, parity
and the channel's counter fold.  ``test_amb.py`` drives the same buffer
through an AMB's group reads."""

import pytest

from repro.config import (
    AmbPrefetchConfig,
    FaultConfig,
    PrefetchLocation,
    fbdimm_amb_prefetch,
)
from repro.controller.channel_controller import FbdimmChannelController
from repro.controller.prefetch_buffer import PrefetchBuffer
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator
from repro.prefetch.policy import RegionPrefetchPolicy
from repro.stats.collector import MemSystemStats

K = 4


class RecordingPolicy(RegionPrefetchPolicy):
    """The region policy, logging every training call it receives."""

    def __init__(self) -> None:
        super().__init__(K)
        self.calls = []

    def observe_hit(self, line_addr):
        self.calls.append(("hit", line_addr))

    def observe_miss(self, line_addr):
        self.calls.append(("miss", line_addr))


class FlipAll:
    """Stand-in fault state whose every parity probe detects a flip."""

    def __init__(self) -> None:
        self.probes = 0

    def cached_line_flipped(self):
        self.probes += 1
        return True


def make_buffer(faults=None):
    buffer = PrefetchBuffer(AmbPrefetchConfig(region_cachelines=K), faults)
    buffer.policy = RecordingPolicy()
    return buffer


def fill(buffer, line, fill_time=1_000):
    """Group-fetch ``line`` and book its companions to fill at one time."""
    order = buffer.miss(line)
    buffer.start_fills(line // K, dict.fromkeys(order[1:], fill_time))


def channel(location, faults=None):
    memory = fbdimm_amb_prefetch(
        prefetch=AmbPrefetchConfig(location=location)
    ).memory
    timing = TimingPs.from_config(
        memory.timings, memory.dram_clock_ps, memory.burst_clocks
    )
    return FbdimmChannelController(
        Simulator(), memory, timing, 0, MemSystemStats(), faults
    )


class TestLookup:
    def test_late_merge_counts_a_table_hit(self):
        buffer = make_buffer()
        fill(buffer, 0)
        assert buffer.lookup(2) == 1_000
        assert (buffer.table.stats.lookups, buffer.table.stats.hits) == (1, 1)

    def test_group_without_companions_books_nothing(self):
        buffer = PrefetchBuffer(AmbPrefetchConfig(region_cachelines=1))
        assert buffer.miss(9) == [9]
        buffer.start_fills(9, {})
        assert not buffer.pending and buffer.prefetched_lines == 0
        buffer.commit(9)  # the AMB placement still schedules this no-op
        assert buffer.table.occupancy() == 0


class TestPolicyOwnership:
    def test_training_calls_come_from_the_buffer(self):
        buffer = make_buffer()
        fill(buffer, 0)
        buffer.commit(0)
        buffer.lookup(1)
        buffer.lookup(12)  # a miss trains nothing until it is fetched
        assert buffer.policy.calls == [("miss", 0), ("hit", 1)]

    def test_late_merge_is_not_a_training_hit(self):
        buffer = make_buffer()
        fill(buffer, 0)
        buffer.lookup(1)
        assert buffer.policy.calls == [("miss", 0)]

    def test_controller_placement_shares_one_policy(self):
        ch = channel(PrefetchLocation.CONTROLLER)
        policies = {id(buffer.policy) for buffer in ch.buffers}
        assert len(ch.buffers) > 1 and len(policies) == 1

    def test_amb_placement_has_one_policy_per_dimm(self):
        ch = channel(PrefetchLocation.AMB)
        assert len({id(buffer.policy) for buffer in ch.buffers}) == len(ch.ambs)


class TestParity:
    def test_flipped_resident_line_is_voided_and_missed(self):
        faults = FlipAll()
        buffer = make_buffer(faults)
        fill(buffer, 0)
        buffer.commit(0)
        assert buffer.lookup(1) is None
        assert faults.probes == 1
        assert buffer.table.stats.invalidations == 1
        assert buffer.policy.calls == [("miss", 0)]

    def test_no_parity_probe_without_a_resident_copy(self):
        faults = FlipAll()
        buffer = make_buffer(faults)
        buffer.lookup(1)  # miss
        fill(buffer, 0)
        buffer.lookup(1)  # still filling
        assert faults.probes == 0

    @pytest.mark.parametrize("location, checked", [
        (PrefetchLocation.AMB, True),
        (PrefetchLocation.CONTROLLER, False),
    ])
    def test_only_the_amb_placement_checks_parity(self, location, checked):
        ch = channel(location, FaultConfig(enabled=True, amb_bitflip_rate=0.5))
        assert ch.faults is not None
        assert all((b.faults is ch.faults) is checked for b in ch.buffers)


class TestChannelFold:
    def test_shared_controller_buffer_folds_once(self):
        ch = channel(PrefetchLocation.CONTROLLER)
        ch.buffers[0].start_fills(0, {1: 10, 2: 20, 3: 30})
        assert ch.collect_device_counters()["prefetched_lines"] == 3
