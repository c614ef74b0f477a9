"""Unit tests for the limiter (MSHRs), the L2 fill table, and transactions."""

import pytest

from repro.controller.transaction import MemoryRequest, RequestKind
from repro.cpu.l2 import L2FillTable
from repro.cpu.mshr import Limiter


class _Waiter:
    """A limiter waiter that logs its wake-ups and, given a pool, takes a
    slot from it when it needs one."""

    def __init__(self, name, calls, pool=None):
        self.name, self.calls, self.pool = name, calls, pool
        self.slot = True

    def needs_slot(self):
        return self.slot

    def resume(self):
        self.calls.append(self.name)
        if self.pool is not None and self.slot:
            assert self.pool.try_acquire()


class TestLimiter:
    def test_acquire_until_full(self):
        lim = Limiter(2)
        assert lim.try_acquire()
        assert lim.try_acquire()
        assert not lim.try_acquire()
        assert lim.available == 0

    def test_release_frees_slot(self):
        lim = Limiter(1)
        lim.try_acquire()
        lim.release()
        assert lim.try_acquire()

    def test_release_without_acquire_raises(self):
        with pytest.raises(RuntimeError):
            Limiter(1).release()

    def test_waiters_fire_once_on_release(self):
        lim = Limiter(1)
        lim.try_acquire()
        calls = []
        lim.add_waiter(_Waiter("a", calls))
        lim.release()
        assert calls == ["a"]
        lim.try_acquire()
        lim.release()
        assert calls == ["a"]  # one-shot

    def test_release_hands_the_slot_to_the_oldest_waiter(self):
        """One free slot wakes the first waiter that takes it; the rest
        stay queued, in order, without being woken."""
        lim = Limiter(1)
        lim.try_acquire()
        calls = []
        waiters = [_Waiter(name, calls, lim) for name in "abc"]
        for waiter in waiters:
            lim.add_waiter(waiter)
        lim.release()
        assert calls == ["a"]
        assert lim._waiters == waiters[1:]
        lim.release()
        assert calls == ["a", "b"]
        assert lim._waiters == waiters[2:]

    def test_release_wakes_waiters_that_need_no_slot(self):
        """A waiter that no longer needs a slot is woken even when the
        pool stays full, and keeps the others' order intact."""
        lim = Limiter(1)
        lim.try_acquire()
        calls = []
        a, b, c = (_Waiter(name, calls, lim) for name in "abc")
        b.slot = False
        for waiter in (a, b, c):
            lim.add_waiter(waiter)
        lim.release()  # a takes the slot, b merges, c waits
        assert calls == ["a", "b"]
        assert lim._waiters == [c]

    def test_full_pool_asks_only_the_first_blocked_waiter(self):
        """Once the freed slot is taken, the scan stops at the first
        waiter that needs one: the others are neither woken nor asked."""
        lim = Limiter(1)
        lim.try_acquire()
        calls, asked = [], []
        waiters = [_Waiter(name, calls, lim) for name in "abcde"]
        for waiter in waiters:
            waiter.needs_slot = lambda w=waiter: asked.append(w.name) or True
            lim.add_waiter(waiter)
        lim.release()
        assert calls == ["a"]
        assert asked == ["b"]
        assert lim._waiters == waiters[1:]

    def test_waiter_that_blocks_again_keeps_its_turn(self):
        """A woken waiter that re-registers goes ahead of those it was
        queued before."""
        lim = Limiter(1)
        lim.try_acquire()
        calls = []

        class Again(_Waiter):
            def resume(self):
                super().resume()
                lim.add_waiter(self)

        a = Again("a", calls, lim)
        b, c = (_Waiter(name, calls, lim) for name in "bc")
        for waiter in (a, b, c):
            lim.add_waiter(waiter)
        lim.release()
        assert calls == ["a"]
        assert lim._waiters == [a, b, c]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Limiter(0)


class TestL2FillTable:
    def test_miss_before_fill(self):
        l2 = L2FillTable(16)
        assert l2.probe(5, now=0) == ("miss", None)

    def test_inflight_then_hit(self):
        l2 = L2FillTable(16)
        l2.start_fill(5)
        status, waiters = l2.probe(5, now=10)
        assert status == "inflight"
        assert waiters == []
        l2.complete_fill(5, time_ps=20)
        status, _ = l2.probe(5, now=30)
        assert status == "hit"
        assert l2.demand_hits == 1
        assert l2.demand_merges == 1

    def test_future_ready_time_counts_as_inflight(self):
        l2 = L2FillTable(16)
        l2.start_fill(5)
        l2.complete_fill(5, time_ps=100)
        status, _ = l2.probe(5, now=50)
        assert status == "inflight"

    def test_waiters_fire_on_completion(self):
        l2 = L2FillTable(16)
        l2.start_fill(5)
        _, waiters = l2.probe(5, now=0)
        woken = []
        waiters.append(lambda: woken.append(1))
        l2.complete_fill(5, time_ps=10)
        assert woken == [1]

    def test_invalidate_wakes_waiters(self):
        """A store to an in-flight fill must not strand merged demands."""
        l2 = L2FillTable(16)
        l2.start_fill(5)
        _, waiters = l2.probe(5, now=0)
        woken = []
        waiters.append(lambda: woken.append(1))
        l2.invalidate(5)
        assert woken == [1]
        assert not l2.has_line(5)

    def test_capacity_evicts_completed_only(self):
        l2 = L2FillTable(2)
        l2.start_fill(1)
        l2.complete_fill(1, 0)
        l2.start_fill(2)  # in flight
        l2.start_fill(3)  # exceeds capacity -> evict line 1 (completed)
        assert not l2.has_line(1)
        assert l2.has_line(2) and l2.has_line(3)

    def test_eviction_skips_entries_with_waiters(self):
        l2 = L2FillTable(1)
        l2.start_fill(1)
        l2.complete_fill(1, 100)
        _, waiters = l2.probe(1, now=0)  # inflight (ready in future)
        waiters.append(lambda: None)
        l2.start_fill(2)
        assert l2.has_line(1), "waited-on entry must survive eviction"

    def test_duplicate_start_fill_is_idempotent(self):
        l2 = L2FillTable(16)
        l2.start_fill(5)
        l2.start_fill(5)
        assert l2.fills_started == 1

    def test_complete_unknown_fill_is_noop(self):
        l2 = L2FillTable(16)
        l2.complete_fill(9, 10)
        assert l2.fills_completed == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            L2FillTable(0)


class TestMemoryRequest:
    def test_latency_requires_completion(self):
        r = MemoryRequest(RequestKind.DEMAND_READ, 1, 0, arrival=100)
        with pytest.raises(ValueError):
            _ = r.latency

    def test_complete_sets_latency_and_fires_callback(self):
        done = []
        r = MemoryRequest(
            RequestKind.DEMAND_READ, 1, 0, arrival=100, on_complete=done.append
        )
        r.complete(163)
        assert r.latency == 63
        assert done == [r]

    def test_kind_is_read(self):
        assert RequestKind.DEMAND_READ.is_read
        assert RequestKind.SW_PREFETCH.is_read
        assert not RequestKind.WRITE.is_read

    def test_request_ids_unique(self):
        a = MemoryRequest(RequestKind.WRITE, 1, 0, arrival=0)
        b = MemoryRequest(RequestKind.WRITE, 1, 0, arrival=0)
        assert a.req_id != b.req_id
