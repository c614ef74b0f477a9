"""The conventional DDR2 channel used as the paper's baseline.

Unlike FB-DIMM, every DIMM of a DDR2 channel hangs off one shared command
bus and one shared bidirectional data bus (the stub-bus structure whose
signal-integrity limits motivated FB-DIMM in the first place, Section 2).
The data bus pays switching bubbles between bursts of different direction
or rank — the efficiency tax FB-DIMM's unidirectional links avoid.
"""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.controller.mapping import MappedAddress
from repro.dram.bank import AccessResult, Bank, RankTimer
from repro.dram.resources import BusResource, BusView, TaggedBusResource
from repro.dram.timing import TimingPs


class Ddr2Dimm:
    """One DIMM (one rank) on a shared DDR2 channel."""

    __slots__ = (
        "config", "timing", "dimm_id", "data_bus", "command_bus",
        "_views", "rank_timers", "banks", "_banks_per_dimm", "_clock",
    )

    def __init__(
        self,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        dimm_id: int,
        shared_data_bus: TaggedBusResource,
        shared_command_bus: BusResource,
    ) -> None:
        self.config = config
        self.timing = timing
        self.dimm_id = dimm_id
        self._banks_per_dimm = config.banks_per_dimm
        self._clock = timing.clock
        self.data_bus = shared_data_bus
        self.command_bus = shared_command_bus
        # Bursts from another rank or of the other direction pay the
        # channel's switching bubble; same-tag bursts stream gaplessly.
        self._views = {
            (rank, direction): BusView(shared_data_bus, (dimm_id, rank, direction))
            for rank in range(config.ranks_per_dimm)
            for direction in ("rd", "wr")
        }
        self.rank_timers = [RankTimer() for _ in range(config.ranks_per_dimm)]
        self.banks = [
            Bank(bank_id=b, timing=timing, page_policy=config.page_policy)
            for b in range(config.ranks_per_dimm * config.banks_per_dimm)
        ]

    def bank_of(self, mapped: MappedAddress) -> Bank:
        """The logic bank a mapped address lives in."""
        return self.banks[mapped.rank * self._banks_per_dimm + mapped.bank]

    def timer_of(self, mapped: MappedAddress) -> RankTimer:
        """The rank-level timing tracker for a mapped address."""
        return self.rank_timers[mapped.rank]

    def read_line(self, earliest: int, mapped: MappedAddress) -> AccessResult:
        """Read one cacheline; the command bus carries the ACT/RD pair."""
        clock = self._clock
        rank = mapped.rank
        start = self.command_bus.reserve(earliest, clock)
        # The command is latched at the next DRAM clock edge.
        return self.banks[rank * self._banks_per_dimm + mapped.bank].read(
            start + clock,
            mapped.row,
            1,
            self._views[(rank, "rd")],
            self.rank_timers[rank],
        )

    def write_line(self, earliest: int, mapped: MappedAddress) -> AccessResult:
        """Write one cacheline over the shared data bus."""
        clock = self._clock
        rank = mapped.rank
        start = self.command_bus.reserve(earliest, clock)
        return self.banks[rank * self._banks_per_dimm + mapped.bank].write(
            start + clock,
            mapped.row,
            self._views[(rank, "wr")],
            self.rank_timers[rank],
        )
