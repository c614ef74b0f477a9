"""The Advanced Memory Buffer of one DIMM: its DDR2 bus and logic banks.

Under AMB prefetching the AMB executes the *group fetch* of Section 3.2:
one special command from the controller becomes one ACT plus K pipelined
column accesses (:meth:`Amb.group_read`).  The buffer the prefetched lines
land in, with its tags at the controller, is
:class:`~repro.controller.prefetch_buffer.PrefetchBuffer`.
"""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.controller.mapping import MappedAddress
from repro.dram.bank import AccessResult, Bank, RankTimer
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs


class Amb:
    """One DIMM behind its Advanced Memory Buffer."""

    __slots__ = (
        "config", "timing", "dimm_id", "data_bus", "rank_timers", "banks",
        "_banks_per_dimm",
    )

    def __init__(
        self,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        dimm_id: int,
    ) -> None:
        self.config = config
        self.timing = timing
        self.dimm_id = dimm_id
        self._banks_per_dimm = config.banks_per_dimm
        self.data_bus = BusResource(f"ch{channel_id}.dimm{dimm_id}.ddr2")
        # All ranks of the DIMM share the AMB's DDR2 bus; each rank has
        # its own cross-bank timer (tRRD/tWTR) and logic banks.
        self.rank_timers = [RankTimer() for _ in range(config.ranks_per_dimm)]
        self.banks = [
            Bank(bank_id=b, timing=timing, page_policy=config.page_policy)
            for b in range(config.ranks_per_dimm * config.banks_per_dimm)
        ]

    # ------------------------------------------------------------------
    # Rank/bank resolution
    # ------------------------------------------------------------------

    def bank_of(self, mapped: MappedAddress) -> Bank:
        """The logic bank a mapped address lives in."""
        return self.banks[mapped.rank * self._banks_per_dimm + mapped.bank]

    def timer_of(self, mapped: MappedAddress) -> RankTimer:
        """The rank-level timing tracker for a mapped address."""
        return self.rank_timers[mapped.rank]

    # ------------------------------------------------------------------
    # Reads and writes
    # ------------------------------------------------------------------

    def read_line(self, earliest: int, mapped: MappedAddress) -> AccessResult:
        """Plain single-line read (FB-DIMM baseline)."""
        return self.bank_of(mapped).read(
            earliest, mapped.row, 1, self.data_bus, self.timer_of(mapped)
        )

    def write_line(self, earliest: int, mapped: MappedAddress) -> AccessResult:
        """Single-line write (the controller invalidates buffered copies)."""
        return self.bank_of(mapped).write(
            earliest, mapped.row, self.data_bus, self.timer_of(mapped)
        )

    def group_read(
        self, earliest: int, mapped: MappedAddress, lines: int
    ) -> AccessResult:
        """One ACT plus ``lines`` column accesses, fully pipelined on the
        DIMM's DDR2 bus (Section 3.2: the burst length is unchanged, the
        AMB simply issues several column accesses)."""
        return self.bank_of(mapped).read(
            earliest, mapped.row, lines, self.data_bus, self.timer_of(mapped)
        )
