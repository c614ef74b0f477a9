"""Address interleaving: laying cachelines onto channels, DIMMs and banks.

Three schemes from Section 3.2 (Figure 2):

* **cacheline**: consecutive cachelines round-robin across channels, then
  DIMMs, then banks — maximum concurrency, no DRAM-level spatial locality.
* **multi_cacheline**: groups of K consecutive cachelines (a *region*) map to
  the same DRAM page of the same bank; consecutive regions round-robin like
  cachelines.  This is the layout AMB prefetching requires: one ACT serves
  all K lines of a region.
* **page**: the region is a whole DRAM page (open-page mode).

Addresses are cacheline indices in a flat physical space; the mapper is pure
arithmetic and fully invertible (tested by a hypothesis round-trip property).
"""

from __future__ import annotations

from typing import Any

from repro.config import MemoryConfig


class MappedAddress:
    """Where one cacheline lives in the memory system.

    A plain ``__slots__`` class: one is built per memory request on the
    submit hot path, where slot assignment beats a frozen dataclass's
    per-field ``object.__setattr__``.  Instances are value-equal and
    hashable like the old frozen dataclass, but not immutable — nothing
    in the simulator mutates a mapped address after construction.

    Attributes:
        channel: Physical channel index.
        dimm: DIMM index on that channel.
        rank: Rank on that DIMM (Table 1 uses one rank per DIMM).
        bank: Logic bank index within the rank.
        row: DRAM row (page) within the bank.
        line_in_page: Cacheline slot within the row.
        region: Global region id — lines that share a region share a row and
            are fetched together by AMB prefetching.
        line_in_region: Position of this line within its region.
    """

    __slots__ = (
        "channel", "dimm", "rank", "bank", "row",
        "line_in_page", "region", "line_in_region",
    )

    def __init__(
        self,
        channel: int,
        dimm: int,
        rank: int,
        bank: int,
        row: int,
        line_in_page: int,
        region: int,
        line_in_region: int,
    ) -> None:
        self.channel = channel
        self.dimm = dimm
        self.rank = rank
        self.bank = bank
        self.row = row
        self.line_in_page = line_in_page
        self.region = region
        self.line_in_region = line_in_region

    def _key(self) -> "tuple[int, ...]":
        return (
            self.channel, self.dimm, self.rank, self.bank, self.row,
            self.line_in_page, self.region, self.line_in_region,
        )

    def __repr__(self) -> str:
        return (
            "MappedAddress(channel={}, dimm={}, rank={}, bank={}, row={},"
            " line_in_page={}, region={}, line_in_region={})".format(*self._key())
        )

    def __eq__(self, other: Any) -> Any:
        if not isinstance(other, MappedAddress):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class AddressMapper:
    """Maps flat cacheline addresses to physical DRAM coordinates."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.region_lines = config.interleave_lines
        self.channels = config.physical_channels
        self.dimms = config.dimms_per_channel
        self.ranks = config.ranks_per_dimm
        self.banks = config.banks_per_dimm
        self.lines_per_page = config.lines_per_page
        self.regions_per_page = self.lines_per_page // self.region_lines
        self.rows = config.rows_per_bank

    def map(self, line_addr: int) -> MappedAddress:
        """Map a cacheline address (line index) to DRAM coordinates."""
        if line_addr < 0:
            raise ValueError(f"line address must be non-negative: {line_addr}")
        region_lines = self.region_lines
        region, line_in_region = divmod(line_addr, region_lines)
        rest, channel = divmod(region, self.channels)
        rest, dimm = divmod(rest, self.dimms)
        rest, rank = divmod(rest, self.ranks)
        local_region, bank = divmod(rest, self.banks)
        row_seq, region_in_page = divmod(local_region, self.regions_per_page)
        return MappedAddress(
            channel,
            dimm,
            rank,
            bank,
            row_seq % self.rows,
            region_in_page * region_lines + line_in_region,
            region,
            line_in_region,
        )

    def region_of(self, line_addr: int) -> int:
        """Region id of a cacheline (fast path used by the tag store)."""
        return line_addr // self.region_lines

    def region_lines_of(self, region: int) -> "list[int]":
        """All cacheline addresses belonging to ``region``, in order."""
        base = region * self.region_lines
        return list(range(base, base + self.region_lines))

    def unmap(self, mapped: MappedAddress) -> int:
        """Inverse of :meth:`map` (modulo row aliasing beyond capacity)."""
        local_region = (
            mapped.row * self.regions_per_page
            + mapped.line_in_page // self.region_lines
        )
        rest = local_region * self.banks + mapped.bank
        rest = rest * self.ranks + mapped.rank
        rest = rest * self.dimms + mapped.dimm
        region = rest * self.channels + mapped.channel
        return region * self.region_lines + mapped.line_in_region
