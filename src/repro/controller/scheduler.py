"""Request reordering policy: hit-first with read priority.

The simulated controller follows the paper's policy (Section 4.1): pending
row-buffer hits are scheduled before row-buffer misses (hit-first, after
Rixner et al.), and reads are scheduled before writes unless the number of
outstanding writes exceeds a threshold — with hysteresis, so the write
drain empties half the queue before reads regain priority.

Under close-page mode there are no row hits, so hit-first degrades to
earliest-bank-ready-first, which reorders around bank conflicts the same
way (FR-FCFS without the row-hit term).

The channel controller answers one question per candidate: a ``probe(req)
-> (earliest_start, hit)`` callable, where "hit" is an open-row hit or,
under FB-DIMM prefetching, a line the prefetch buffer holds or is filling
(Section 3.2).  The scheduler calls it once per candidate it scans, and
the controller binds each request's bank and tag-store set at submit, so
that one call is the whole cost of looking at a candidate.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Deque, Optional, Tuple

from repro.controller.transaction import MemoryRequest

#: How deep into each queue the scheduler looks.  Real controllers have a
#: bounded associative search; 16 keeps the model O(1)-ish per decision.
SCAN_WINDOW = 16

#: ``probe(req) -> (earliest_start, hit)``; side-effect-free.
Probe = Callable[[MemoryRequest], Tuple[int, bool]]


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
        probe: Probe,
    ) -> Optional[Tuple[MemoryRequest, int, bool]]:
        """Pick the best issueable request.

        Args:
            now: Current time.
            reads, writes: Per-kind FIFO queues (oldest first).
            probe: ``probe(req) -> (earliest_start, hit)``: when the
                request's commands could begin, and whether it would hit
                the open row (or the FB-DIMM prefetch buffer, which the
                controller treats as the ultimate "hit").  Called once per
                scanned candidate; must not change any state.

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
        # That ranking — lexicographic over (ready, preferred, hit,
        # earliest-start, queue position) — lets the scan short-circuit:
        # every ready candidate has earliest-start == now exactly, so the
        # first ready hit in the preferred queue is globally optimal, a
        # ready preferred miss beats the whole other queue, and the
        # non-preferred queue's future candidates only matter when the
        # preferred queue is empty.  The probe is side-effect-free, so
        # probing fewer candidates cannot change the outcome.
        if prefer_writes:
            first, first_is_write = writes, True
            second, second_is_write = reads, False
        else:
            first, first_is_write = reads, False
            second, second_is_write = writes, True

        ready_req: Optional[MemoryRequest] = None
        futures: Optional[list] = None
        for position, req in enumerate(islice(first, SCAN_WINDOW)):
            est, hit = probe(req)
            if est < now:
                est = now
            if req.schedulable_at > est:
                est = req.schedulable_at
            if est <= now:
                if hit:
                    return req, est, first_is_write
                if ready_req is None:
                    ready_req = req
            elif ready_req is None:
                if futures is None:
                    futures = []
                futures.append((0 if hit else 1, est, position, req))
        if ready_req is not None:
            return ready_req, now, first_is_write

        ready2: Optional[MemoryRequest] = None
        futures2: Optional[list] = None
        for position, req in enumerate(islice(second, SCAN_WINDOW)):
            est, hit = probe(req)
            if est < now:
                est = now
            if req.schedulable_at > est:
                est = req.schedulable_at
            if est <= now:
                if hit:
                    return req, est, second_is_write
                if ready2 is None:
                    ready2 = req
            elif ready2 is None and futures is None:
                if futures2 is None:
                    futures2 = []
                futures2.append((0 if hit else 1, est, position, req))
        if ready2 is not None:
            return ready2, now, second_is_write

        # No candidate is ready: the best future one is the earliest hit,
        # else the earliest miss, oldest first.  Positions are unique, so
        # ``min`` never compares two requests.
        if futures is not None:
            _, est, _, req = min(futures)
            return req, est, first_is_write
        assert futures2 is not None
        _, est, _, req = min(futures2)
        return req, est, second_is_write
