"""The prefetch information table: tags of one AMB cache, held at the
memory controller (Section 3.2, Figure 3).

The data lives on the DIMM in the AMB's SRAM; the controller holds the tags
and status bits so that hit/miss is decided *before* any command crosses the
channel.  Replacement is FIFO by default — the paper argues LRU is wrong
here because a block that just hit is now cached on-chip and will not be
re-requested soon.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.config import AmbPrefetchConfig, ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prefetch.lifecycle import PrefetchLifecycle


@dataclass
class TableStats:
    """Tag-store event counters (feed coverage/efficiency metrics)."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0
    invalidations: int = 0


class PrefetchTable:
    """Set-associative tag store for a single AMB cache.

    Keys are cacheline addresses.  ``Associativity.FULL`` collapses to a
    single set covering every entry.  Within a set, an :class:`OrderedDict`
    keeps insertion order (FIFO) or recency order (LRU).
    """

    def __init__(self, config: AmbPrefetchConfig) -> None:
        self.config = config
        self.ways = config.associativity.ways(config.cache_entries)
        self.num_sets = config.cache_entries // self.ways
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = TableStats()
        #: Optional per-prefetch lifecycle tracker; only the eviction hook
        #: fires from here (the victim address is known nowhere else).
        self.lifecycle: "Optional[PrefetchLifecycle]" = None

    def set_for(self, line_addr: int) -> OrderedDict:
        """The set that holds ``line_addr``'s tag.

        Sets are created once and only ever mutated in place, so a caller
        may keep the returned object and test ``line_addr in it`` later
        (the channel controller binds it to each read at submit).
        """
        return self._sets[line_addr % self.num_sets]

    def lookup(self, line_addr: int) -> bool:
        """Probe for a line; counts a lookup and updates LRU order on hit."""
        self.stats.lookups += 1
        cache_set = self.set_for(line_addr)
        if line_addr in cache_set:
            self.stats.hits += 1
            if self.config.replacement is ReplacementPolicy.LRU:
                cache_set.move_to_end(line_addr)
            return True
        return False

    def contains(self, line_addr: int) -> bool:
        """Probe without touching statistics or replacement state."""
        return line_addr in self.set_for(line_addr)

    def insert(self, line_addrs: Iterable[int]) -> int:
        """Install prefetched lines; returns the number of evictions.

        Lines already present are refreshed in place (moved to the back of
        the replacement order, since the AMB rewrote the data).
        """
        evicted = 0
        for line_addr in line_addrs:
            cache_set = self.set_for(line_addr)
            if line_addr in cache_set:
                cache_set.move_to_end(line_addr)
                continue
            if len(cache_set) >= self.ways:
                victim, _ = cache_set.popitem(last=False)
                evicted += 1
                if self.lifecycle is not None:
                    self.lifecycle.on_evict(victim)
            cache_set[line_addr] = True
            self.stats.inserts += 1
        self.stats.evictions += evicted
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (a write made the AMB copy stale); True if present."""
        cache_set = self.set_for(line_addr)
        if line_addr in cache_set:
            del cache_set[line_addr]
            self.stats.invalidations += 1
            return True
        return False

    def occupancy(self) -> int:
        """Number of valid lines currently tracked."""
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> "Dict[int, bool]":
        """Snapshot of all resident line addresses (testing/debug aid)."""
        snapshot: Dict[int, bool] = {}
        for cache_set in self._sets:
            snapshot.update(cache_set)
        return snapshot
