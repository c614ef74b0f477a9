"""Counting resource limiter with hand-off wake-ups.

Models MSHR files (per-core data-cache MSHRs and the shared L2 MSHRs of
Table 1).  Acquirers that find the pool full register as a waiter.  A
release hands the freed slot on in FIFO order: it wakes waiters while a
slot is free, plus any waiter that no longer needs one (its line reached
the L2 meanwhile, so it merges).  Every other waiter keeps its place in
the queue without being woken, so a release costs one predicate call per
still-blocked waiter instead of a failed retry each.
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
        can succeed: while a slot is free, or when it needs none.  The
        others stay queued in the same order."""
        if self.in_use <= 0:
            raise RuntimeError(f"{self.name}: release without acquire")
        self.in_use -= 1
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                if self.in_use < self.capacity or not waiter.needs_slot():
                    waiter.resume()
                else:
                    self._waiters.append(waiter)

    def add_waiter(self, waiter: Waiter) -> None:
        """Queue a one-shot wake-up for a later release."""
        self._waiters.append(waiter)
