"""Frozen copy of ``repro.cpu.l2`` before its two-dict rewrite — a
test-only oracle.

This is the fill table that kept one ``FillEntry`` dataclass (ready time
plus its own waiter list) per line in an ``OrderedDict``.
``test_l2_differential.py`` drives random operation sequences through
both tables and asserts identical statuses, counters, evictions and
waiter wake order.  Do not modernise this file: its value is being
exactly the old code.

Shared-L2 fill tracking for software cache prefetching.

The synthetic traces are *L2 miss streams*, so ordinary demand reuse is
already filtered out; the only L2 behaviour the simulation must model is
the interaction the paper studies in Section 5.4 — a software prefetch
fills the L2 ahead of its demand access, turning that access into an L2
hit (or a shorter wait, if the fill is still in flight).

The table holds both in-flight and completed fills, evicting completed
ones FIFO beyond the L2's capacity in lines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass
class FillEntry:
    """State of one prefetched line."""

    ready_time: Optional[int]  # None while the memory request is in flight
    waiters: List[Callable[[], None]]


class L2FillTable:
    """Tracks lines brought into the shared L2 by software prefetches."""

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity_lines
        self._entries: "OrderedDict[int, FillEntry]" = OrderedDict()
        self.fills_started = 0
        self.fills_completed = 0
        self.demand_hits = 0
        self.demand_merges = 0  # demand arrived while the fill was in flight

    def start_fill(self, line_addr: int) -> None:
        """Register an in-flight prefetch for ``line_addr``."""
        if line_addr in self._entries:
            return
        self._entries[line_addr] = FillEntry(ready_time=None, waiters=[])
        self.fills_started += 1
        self._evict_beyond_capacity()

    def complete_fill(self, line_addr: int, time_ps: int) -> None:
        """The prefetch's memory request finished; wake merged demands."""
        entry = self._entries.get(line_addr)
        if entry is None:  # evicted or invalidated while in flight
            return
        entry.ready_time = time_ps
        self.fills_completed += 1
        if entry.waiters:
            waiters, entry.waiters = entry.waiters, []
            for waiter in waiters:
                waiter()

    def probe(self, line_addr: int, now: int) -> "tuple[str, Optional[FillEntry]]":
        """Classify a demand access against the fill table.

        Returns one of:
            ("hit", entry)    — line resident, demand is an L2 hit;
            ("inflight", entry) — fill outstanding, demand merges with it;
            ("miss", None)    — no fill, demand must go to memory.
        """
        entry = self._entries.get(line_addr)
        if entry is None:
            return "miss", None
        if entry.ready_time is not None and entry.ready_time <= now:
            self.demand_hits += 1
            return "hit", entry
        self.demand_merges += 1
        return "inflight", entry

    def has_line(self, line_addr: int) -> bool:
        """True when a fill (in flight or done) exists — used to squash a
        redundant software prefetch."""
        return line_addr in self._entries

    def invalidate(self, line_addr: int) -> None:
        """A store overwrote the line.

        Any demand that had merged with the in-flight fill is satisfied by
        store forwarding, so its waiters are woken rather than dropped.
        """
        entry = self._entries.pop(line_addr, None)
        if entry is not None and entry.waiters:
            for waiter in entry.waiters:
                waiter()

    def _evict_beyond_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            # Evict the oldest fill that nobody waits on; in-flight state
            # with merged demands must never be dropped.
            for line_addr, entry in self._entries.items():
                if entry.ready_time is not None and not entry.waiters:
                    del self._entries[line_addr]
                    break
            else:
                break
