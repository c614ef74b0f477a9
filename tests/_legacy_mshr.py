"""Frozen wake-all copy of the MSHR limiter and the core's retry path — a
test-only oracle.

This is the ``Limiter`` whose every release woke every waiter, each of
which re-ran its whole dispatch (L2 probe, data-cache MSHR, L2 MSHR) and
counted one more ``mshr_stalls`` for each failed attempt, together with
the ROB window that took ``min()`` over every outstanding read.  The
hand-off limiter and the first-entry window replaced them;
``test_mshr_differential.py`` runs both over random multi-core systems and
asserts identical results apart from ``mshr_stalls``.  Do not modernise
this file: its value is being exactly the old code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional
from unittest import mock

import repro.cpu.core
import repro.system
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.cpu.core import Core
from repro.workloads.trace import TraceEvent


class Limiter:
    """A pool of ``capacity`` identical slots."""

    def __init__(self, capacity: int, name: str = "limiter") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self.peak = 0
        self._waiters: List[Callable[[], None]] = []

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def try_acquire(self) -> bool:
        """Take a slot if one is free; returns success."""
        if self.in_use >= self.capacity:
            return False
        self.in_use += 1
        if self.in_use > self.peak:
            self.peak = self.in_use
        return True

    def release(self) -> None:
        """Return a slot and wake every registered waiter once."""
        if self.in_use <= 0:
            raise RuntimeError(f"{self.name}: release without acquire")
        self.in_use -= 1
        if self._waiters:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter()

    def add_waiter(self, callback: Callable[[], None]) -> None:
        """Register a one-shot wake-up fired on the next release."""
        self._waiters.append(callback)


class LegacyCore(Core):
    """``Core`` with the wake-all retry path and the ``min()`` window."""

    __slots__ = ()

    def _window_limit(self) -> Optional[int]:
        if not self.outstanding_reads:
            return None
        return min(self.outstanding_reads.values()) + self.config.rob_entries

    def resume(self) -> None:
        if self.finished or self.blocked is None:
            return
        if self.blocked == "rob":
            self._schedule_pending()
            return
        self.blocked = None
        self._pending_action()

    def _acquire_mshrs(self) -> bool:
        if not self.data_mshr.try_acquire():
            self.data_mshr.add_waiter(self.resume)
            return False
        if not self.l2_mshr.try_acquire():
            self.data_mshr.release()
            self.l2_mshr.add_waiter(self.resume)
            return False
        return True

    def _dispatch_read(self, event: TraceEvent) -> bool:
        status, waiters = self.l2.probe(event.line_addr, self.sim.now)
        if status == "hit":
            self.stats.l2_prefetch_hits += 1
            return True
        if status == "inflight":
            assert waiters is not None
            self.stats.l2_merges += 1
            token = -next(self._merge_tokens)
            self.outstanding_reads[token] = event.inst
            waiters.append(lambda t=token: self._read_settled(t))
            return True
        if not self._acquire_mshrs():
            self.stats.mshr_stalls += 1
            self.blocked = "mshr"
            return False
        self.stats.demand_misses += 1
        request = MemoryRequest(
            kind=RequestKind.DEMAND_READ,
            line_addr=event.line_addr,
            core_id=self.core_id,
            arrival=self.sim.now,
            on_complete=lambda req, i=event.inst: self._demand_done(req, i),
        )
        self.outstanding_reads[request.req_id] = event.inst
        self.controller.submit(request)
        self._maybe_hw_prefetch(event.line_addr)
        return True


@contextmanager
def legacy_cores() -> Iterator[None]:
    """Build systems with the wake-all limiter and ``LegacyCore`` while
    the context is open."""
    with mock.patch.object(repro.system, "Limiter", Limiter), \
            mock.patch.object(repro.cpu.core, "Limiter", Limiter), \
            mock.patch.object(repro.system, "Core", LegacyCore):
        yield
