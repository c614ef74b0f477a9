"""The Advanced Memory Buffer of one DIMM: its DDR2 bus and logic banks.

Under AMB prefetching the AMB executes the *group fetch* of Section 3.2:
one special command from the controller becomes one ACT plus K pipelined
column accesses on the DIMM's DDR2 bus (one ``Bank.read`` of K lines; the
burst length is unchanged).  The channel controller issues every access
to the bank and rank timer its request bound at submit.  The buffer the
prefetched lines land in, with its tags at the controller, is
:class:`~repro.controller.prefetch_buffer.PrefetchBuffer`.
"""

from __future__ import annotations

from repro.config import MemoryConfig
from repro.dram.bank import Bank, RankTimer
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs


class Amb:
    """One DIMM behind its Advanced Memory Buffer."""

    __slots__ = ("config", "timing", "dimm_id", "data_bus", "rank_timers", "banks")

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
        self.data_bus = BusResource(f"ch{channel_id}.dimm{dimm_id}.ddr2")
        # All ranks of the DIMM share the AMB's DDR2 bus; each rank has
        # its own cross-bank timer (tRRD/tWTR) and logic banks, the bank
        # of a mapped address being banks[rank * banks_per_dimm + bank].
        self.rank_timers = [RankTimer() for _ in range(config.ranks_per_dimm)]
        self.banks = [
            Bank(bank_id=b, timing=timing, page_policy=config.page_policy)
            for b in range(config.ranks_per_dimm * config.banks_per_dimm)
        ]
