"""Scheduler policy tests: hit-first, read priority, write-drain hysteresis."""

from collections import deque

from repro.controller.scheduler import SCAN_WINDOW, HitFirstScheduler
from repro.controller.transaction import MemoryRequest, RequestKind


def req(kind=RequestKind.DEMAND_READ, line=0):
    r = MemoryRequest(kind=kind, line_addr=line, core_id=0, arrival=0)
    r.schedulable_at = 0
    return r


def reads(n):
    return deque(req(RequestKind.DEMAND_READ, i) for i in range(n))


def writes(n):
    return deque(req(RequestKind.WRITE, 100 + i) for i in range(n))


def never_hit(_):
    return False


def ready_now(_):
    return 0


def probe(estimate=ready_now, hit=never_hit):
    """A scheduler probe answering from separate estimate and hit rules."""
    return lambda r: (estimate(r), hit(r))


class TestReadPriority:
    def test_reads_win_below_threshold(self):
        s = HitFirstScheduler(write_drain_threshold=4)
        r, w = reads(2), writes(3)
        chosen, _, is_write = s.select(0, r, w, probe())
        assert not is_write
        assert chosen is r[0]

    def test_writes_win_when_no_reads(self):
        s = HitFirstScheduler(write_drain_threshold=4)
        w = writes(1)
        chosen, _, is_write = s.select(0, deque(), w, probe())
        assert is_write

    def test_empty_queues_return_none(self):
        s = HitFirstScheduler(write_drain_threshold=4)
        assert s.select(0, deque(), deque(), probe()) is None


class TestWriteDrainHysteresis:
    def test_drain_starts_at_threshold(self):
        s = HitFirstScheduler(write_drain_threshold=4)
        _, _, is_write = s.select(0, reads(2), writes(4), probe())
        assert is_write

    def test_drain_continues_until_half(self):
        s = HitFirstScheduler(write_drain_threshold=4)
        s.select(0, reads(2), writes(4), probe())
        # 3 writes left: still above threshold/2 -> keep draining.
        _, _, is_write = s.select(0, reads(2), writes(3), probe())
        assert is_write

    def test_drain_stops_at_half(self):
        s = HitFirstScheduler(write_drain_threshold=4)
        s.select(0, reads(2), writes(4), probe())
        _, _, is_write = s.select(0, reads(2), writes(2), probe())
        assert not is_write

    def test_drain_flag_clears_when_writes_empty(self):
        s = HitFirstScheduler(write_drain_threshold=2)
        s.select(0, reads(1), writes(2), probe())
        _, _, is_write = s.select(0, reads(1), deque(), probe())
        assert not is_write


class TestHitFirst:
    def test_hit_beats_older_miss(self):
        s = HitFirstScheduler(write_drain_threshold=8)
        r = reads(3)
        hits = {r[2].req_id}
        chosen, _, _ = s.select(
            0, r, deque(), probe(hit=lambda x: x.req_id in hits)
        )
        assert chosen is r[2]

    def test_fifo_among_equal(self):
        s = HitFirstScheduler(write_drain_threshold=8)
        r = reads(3)
        chosen, _, _ = s.select(0, r, deque(), probe())
        assert chosen is r[0]


class TestReadiness:
    def test_ready_now_beats_future_hit(self):
        s = HitFirstScheduler(write_drain_threshold=8)
        r = reads(2)
        future_hits = {r[0].req_id}

        def estimate(x):
            return 500 if x.req_id in future_hits else 0

        chosen, est, _ = s.select(
            0, r, deque(), probe(estimate, lambda x: x.req_id in future_hits)
        )
        assert chosen is r[1]
        assert est == 0

    def test_future_only_returns_earliest(self):
        s = HitFirstScheduler(write_drain_threshold=8)
        r = reads(3)
        times = {r[0].req_id: 300, r[1].req_id: 100, r[2].req_id: 200}
        chosen, est, _ = s.select(
            0, r, deque(), probe(lambda x: times[x.req_id])
        )
        assert chosen is r[1]
        assert est == 100

    def test_ready_write_beats_stalled_reads(self):
        s = HitFirstScheduler(write_drain_threshold=8)
        r, w = reads(2), writes(1)

        def estimate(x):
            return 999 if x.kind is RequestKind.DEMAND_READ else 0

        chosen, est, is_write = s.select(0, r, w, probe(estimate))
        assert is_write
        assert est == 0


class TestScanWindow:
    def test_only_first_window_considered(self):
        s = HitFirstScheduler(write_drain_threshold=8)
        r = reads(SCAN_WINDOW + 5)
        beyond = r[SCAN_WINDOW + 2]
        # Even if a request beyond the window would be a hit, it is unseen.
        chosen, _, _ = s.select(
            0, r, deque(), probe(hit=lambda x: x is beyond)
        )
        assert chosen is r[0]
