"""Counting resource limiter with hand-off wake-ups.

Models MSHR files (per-core data-cache MSHRs and the shared L2 MSHRs of
Table 1).  Acquirers that find the pool full register as a waiter.  A
release hands the freed slot on in FIFO order: it wakes waiters while a
slot is free, and then each next waiter that no longer needs one (its
line reached the L2 meanwhile, so it merges).  The first waiter that
still needs a slot of the full pool ends the scan; it and every waiter
behind it keep their places without being asked.  That is exact for
both pools a core waits on: a per-core data pool has at most one waiter,
and no line enters the L2 while the shared L2 pool is full, since every
fill start (``L2FillTable.start_fill``) holds an L2 slot.  A release
thus costs O(1) predicate calls, not one per still-blocked waiter.
"""

from __future__ import annotations

from typing import List, Protocol


class Waiter(Protocol):
    """What a blocked acquirer exposes to the pool it waits on."""

    def resume(self) -> None:
        """Retry the blocked acquisition; re-register on failure."""

    def needs_slot(self) -> bool:
        """False when a retry would now succeed without taking a slot."""


class Limiter:
    """A pool of ``capacity`` identical slots."""

    def __init__(self, capacity: int, name: str = "limiter") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: List[Waiter] = []

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def try_acquire(self) -> bool:
        """Take a slot if one is free; returns success."""
        if self.in_use >= self.capacity:
            return False
        self.in_use += 1
        return True

    def release(self) -> None:
        """Return a slot and wake, in FIFO order, each waiter whose retry
        can succeed: while a slot is free, or while the next needs none.
        The first that needs a slot of the full pool stays queued with
        every waiter behind it, in the same order."""
        if self.in_use <= 0:
            raise RuntimeError(f"{self.name}: release without acquire")
        self.in_use -= 1
        queue = self._waiters
        if not queue:
            return
        # A woken waiter that blocks here again re-registers ahead of the
        # waiters still queued.
        self._waiters = []
        woken = 0
        for waiter in queue:
            if self.in_use >= self.capacity and waiter.needs_slot():
                break
            woken += 1
            waiter.resume()
        del queue[:woken]
        if self._waiters:
            queue[:0] = self._waiters
        self._waiters = queue

    def add_waiter(self, waiter: Waiter) -> None:
        """Queue a one-shot wake-up for a later release."""
        self._waiters.append(waiter)
