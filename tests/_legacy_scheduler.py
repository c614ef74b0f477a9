"""Frozen two-callback copy of ``repro.controller.scheduler`` — a test-only
oracle.

This is the ``select(now, reads, writes, estimate, row_hit)`` scheduler
that the one-probe ``select(now, reads, writes, probe)`` replaced.  The
hypothesis suite in ``test_scheduler_differential.py`` drives random
queues and call sequences through both and asserts identical picks and
write-drain state.  Do not modernise this file: its value is being
exactly the old code.

Request reordering policy: hit-first with read priority.

The simulated controller follows the paper's policy (Section 4.1): pending
row-buffer hits are scheduled before row-buffer misses (hit-first, after
Rixner et al.), and reads are scheduled before writes unless the number of
outstanding writes exceeds a threshold — with hysteresis, so the write
drain empties half the queue before reads regain priority.

Under close-page mode there are no row hits, so hit-first degrades to
earliest-bank-ready-first, which reorders around bank conflicts the same
way (FR-FCFS without the row-hit term).
"""

from __future__ import annotations

from typing import Callable, Deque, Optional, Tuple

from repro.controller.transaction import MemoryRequest

#: How deep into each queue the scheduler looks.  Real controllers have a
#: bounded associative search; 16 keeps the model O(1)-ish per decision.
SCAN_WINDOW = 16


class HitFirstScheduler:
    """Chooses the next request from a channel's read and write queues."""

    def __init__(self, write_drain_threshold: int) -> None:
        self.write_drain_threshold = max(1, write_drain_threshold)
        self._draining_writes = False

    def _writes_win(self, reads: Deque[MemoryRequest], writes: Deque[MemoryRequest]) -> bool:
        if not writes:
            self._draining_writes = False
            return False
        if not reads:
            return True
        if self._draining_writes:
            if len(writes) <= self.write_drain_threshold // 2:
                self._draining_writes = False
        elif len(writes) >= self.write_drain_threshold:
            self._draining_writes = True
        return self._draining_writes

    def select(
        self,
        now: int,
        reads: Deque[MemoryRequest],
        writes: Deque[MemoryRequest],
        estimate: Callable[[MemoryRequest], int],
        row_hit: Callable[[MemoryRequest], bool],
    ) -> Optional[Tuple[MemoryRequest, int, bool]]:
        """Pick the best issueable request.

        Args:
            now: Current time.
            reads, writes: Per-kind FIFO queues (oldest first).
            estimate: Earliest time the request's commands could begin.
            row_hit: Whether the request would hit the open row (or the
                AMB cache, which the FB-DIMM controller treats as the
                ultimate "hit").

        Returns:
            (request, earliest_start, is_write_queue) for the winner, or
            None when both queues are empty.
        """
        if not reads and not writes:
            return None
        prefer_writes = self._writes_win(reads, writes)

        # Issueable-now requests always beat future-ready ones (a request
        # whose bank or fill frees later must not block the channel); among
        # the issueable, the preferred kind wins, then hits beat misses,
        # then oldest-first.  A ready request of the non-preferred kind
        # still issues when the preferred queue has nothing ready — this is
        # what lets FB-DIMM reads flow on the northbound link while a write
        # drain streams down the independent southbound link.
        #
        # That ranking — lexicographic over (ready, preferred, row-hit,
        # earliest-start, queue position) — lets the scan short-circuit:
        # every ready candidate has earliest-start == now exactly, so the
        # first ready row-hit in the preferred queue is globally optimal,
        # a ready preferred miss beats the whole other queue, and the
        # non-preferred queue's future candidates only matter when the
        # preferred queue is empty.  estimate/row_hit are side-effect-free
        # probes, so evaluating fewer of them cannot change the outcome.
        if prefer_writes:
            first, first_is_write = writes, True
            second, second_is_write = reads, False
        else:
            first, first_is_write = reads, False
            second, second_is_write = writes, True

        ready_req: Optional[MemoryRequest] = None
        futures: Optional[list] = None
        for position, req in enumerate(first):
            if position >= SCAN_WINDOW:
                break
            est = estimate(req)
            if est < now:
                est = now
            if req.schedulable_at > est:
                est = req.schedulable_at
            if est <= now:
                if row_hit(req):
                    return req, est, first_is_write
                if ready_req is None:
                    ready_req = req
            elif ready_req is None:
                if futures is None:
                    futures = []
                futures.append((est, position, req))
        if ready_req is not None:
            return ready_req, now, first_is_write

        ready2: Optional[MemoryRequest] = None
        futures2: Optional[list] = None
        for position, req in enumerate(second):
            if position >= SCAN_WINDOW:
                break
            est = estimate(req)
            if est < now:
                est = now
            if req.schedulable_at > est:
                est = req.schedulable_at
            if est <= now:
                if row_hit(req):
                    return req, est, second_is_write
                if ready2 is None:
                    ready2 = req
            elif ready2 is None and futures is None:
                if futures2 is None:
                    futures2 = []
                futures2.append((est, position, req))
        if ready2 is not None:
            return ready2, now, second_is_write

        if futures is not None:
            pool, pool_is_write = futures, first_is_write
        else:
            assert futures2 is not None
            pool, pool_is_write = futures2, second_is_write
        best: Optional[MemoryRequest] = None
        best_key: Optional[Tuple[int, int, int]] = None
        best_est = 0
        for est, position, req in pool:
            key = (0 if row_hit(req) else 1, est, position)
            if best_key is None or key < best_key:
                best, best_key, best_est = req, key, est
        assert best is not None
        return best, best_est, pool_is_write
