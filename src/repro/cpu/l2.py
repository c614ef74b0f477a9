"""Shared-L2 fill tracking for software cache prefetching.

The synthetic traces are *L2 miss streams*, so ordinary demand reuse is
already filtered out; the only L2 behaviour the simulation must model is
the interaction the paper studies in Section 5.4 — a software prefetch
fills the L2 ahead of its demand access, turning that access into an L2
hit (or a shorter wait, if the fill is still in flight).

The table holds both in-flight and completed fills, evicting completed
ones FIFO beyond the L2's capacity in lines.  A fill is one slot of a
plain dict (line -> completion time, in fill order); the few lines with
merged demands also have a waiter list in a second dict.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: The ready time of a fill still in flight: above every completion time,
#: so one ``<=`` tells a hit from an in-flight fill.
_IN_FLIGHT = float("inf")
#: Evictions between rebuilds of the fill dict.  A dict keeps a hole for
#: each deleted slot until it resizes, and the FIFO walk starts by
#: stepping over every hole left at the front, so without the rebuild a
#: table held at capacity would pay a walk as long as its recent
#: eviction history on every fill.
_COMPACT_EVERY = 2048

Waiters = List[Callable[[], None]]


class L2FillTable:
    """Tracks lines brought into the shared L2 by software prefetches."""

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity_lines
        #: line -> completion time (``_IN_FLIGHT`` until it completes),
        #: oldest fill first.
        self._ready: Dict[int, float] = {}
        #: line -> demands merged with its fill; only lines that have some.
        self._waiters: Dict[int, Waiters] = {}
        self._evictions = 0
        self.fills_started = 0
        self.fills_completed = 0
        self.demand_hits = 0
        self.demand_merges = 0  # demand arrived while the fill was in flight

    def start_fill(self, line_addr: int) -> None:
        """Register an in-flight prefetch for ``line_addr``."""
        if line_addr in self._ready:
            return
        self._ready[line_addr] = _IN_FLIGHT
        self.fills_started += 1
        if len(self._ready) > self.capacity:
            self._evict_beyond_capacity()

    def complete_fill(self, line_addr: int, time_ps: int) -> None:
        """The prefetch's memory request finished; wake merged demands."""
        if line_addr not in self._ready:  # evicted or invalidated in flight
            return
        self._ready[line_addr] = time_ps
        self.fills_completed += 1
        waiters = self._waiters.pop(line_addr, None)
        if waiters:
            for waiter in waiters:
                waiter()

    def probe(self, line_addr: int, now: int) -> Tuple[str, Optional[Waiters]]:
        """Classify a demand access against the fill table.

        Returns one of:
            ("hit", None)          — line resident, demand is an L2 hit;
            ("inflight", waiters)  — fill outstanding: the demand merges
                                     by appending its wake-up callback to
                                     ``waiters``;
            ("miss", None)         — no fill, demand must go to memory.
        """
        ready = self._ready.get(line_addr)
        if ready is None:
            return "miss", None
        if ready <= now:
            self.demand_hits += 1
            return "hit", None
        self.demand_merges += 1
        waiters = self._waiters.get(line_addr)
        if waiters is None:
            waiters = self._waiters[line_addr] = []
        return "inflight", waiters

    def has_line(self, line_addr: int) -> bool:
        """True when a fill (in flight or done) exists — used to squash a
        redundant software prefetch."""
        return line_addr in self._ready

    def invalidate(self, line_addr: int) -> None:
        """A store overwrote the line.

        Any demand that had merged with the in-flight fill is satisfied by
        store forwarding, so its waiters are woken rather than dropped.
        """
        if self._ready.pop(line_addr, None) is None:
            return
        waiters = self._waiters.pop(line_addr, None)
        if waiters:
            for waiter in waiters:
                waiter()

    def _evict_beyond_capacity(self) -> None:
        ready, waiters = self._ready, self._waiters
        while len(ready) > self.capacity:
            # Evict the oldest fill that nobody waits on; in-flight state
            # with merged demands must never be dropped.
            for line_addr, ready_time in ready.items():
                if ready_time is not _IN_FLIGHT and not waiters.get(line_addr):
                    del ready[line_addr]
                    break
            else:
                break
            self._evictions += 1
            if self._evictions % _COMPACT_EVERY == 0:
                self._ready = ready = dict(ready)
