"""Differential property suite: one-probe scheduler vs the legacy oracle.

``HitFirstScheduler.select`` asks one ``probe(req) -> (earliest_start,
hit)`` per candidate; ``tests/_legacy_scheduler.py`` is the frozen
two-callback version (``estimate`` then ``row_hit``) it replaced.
Hypothesis drives random call sequences through both: queues that grow
past ``SCAN_WINDOW``, estimates before, at and after ``now``, random hits
and ``schedulable_at``, random drain thresholds, and picks that are
sometimes issued (removed) between calls, and queues the scheduler is
told cannot hit.  Every call must return the same ``(req, est,
is_write)`` and leave the same write-drain state.
"""

import random
from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

import tests._legacy_scheduler as legacy
from repro.controller.scheduler import SCAN_WINDOW, HitFirstScheduler
from repro.controller.transaction import MemoryRequest, RequestKind

#: One call of the sequence: how far ``now`` advances, how many reads and
#: writes arrive, how many queued requests leave out of order, and whether
#: the pick is issued (removed from its queue) afterwards.
STEPS = st.lists(
    st.tuples(
        st.integers(0, 200),  # now advance
        st.integers(0, SCAN_WINDOW + 4),  # new reads
        st.integers(0, SCAN_WINDOW + 4),  # new writes
        st.integers(0, 3),  # out-of-order removals
        st.booleans(),  # issue the pick
    ),
    min_size=1,
    max_size=12,
)


def _offset(rnd, now, at_or_before):
    """A time at or before ``now`` with probability ``at_or_before``, else
    after it."""
    if rnd.random() >= at_or_before:
        return now + rnd.randint(1, 100)
    return now if rnd.random() < 0.5 else now - rnd.randint(1, 100)


@settings(max_examples=300, deadline=None)
@given(
    threshold=st.integers(0, 40),
    steps=STEPS,
    hit_rate=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    reads_can_hit=st.booleans(),
    writes_can_hit=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_probe_select_matches_legacy(threshold, steps, hit_rate, reads_can_hit,
                                     writes_can_hit, seed):
    """Queues the scheduler is told cannot hit get probes whose hit flag
    is always False, which the legacy oracle sees too."""
    rnd = random.Random(seed)
    new = HitFirstScheduler(threshold, reads_can_hit=reads_can_hit,
                            writes_can_hit=writes_can_hit)
    old = legacy.HitFirstScheduler(threshold)
    can_hit = {RequestKind.DEMAND_READ: reads_can_hit,
               RequestKind.WRITE: writes_can_hit}
    reads: deque = deque()
    writes: deque = deque()
    now = 0
    line = 0
    for advance, add_reads, add_writes, removals, issue in steps:
        now += advance
        for kind, queue, count in (
            (RequestKind.DEMAND_READ, reads, add_reads),
            (RequestKind.WRITE, writes, add_writes),
        ):
            for _ in range(count):
                queue.append(MemoryRequest(kind, line, 0, now))
                line += 1
        for _ in range(removals):
            queue = reads if rnd.random() < 0.5 else writes
            if queue:
                del queue[rnd.randrange(len(queue))]
        # Mostly-future steps reach the no-ready-candidate pick.
        ready = rnd.choice([0.0, 0.1, 0.5, 0.9])
        answers = {}
        for req in list(reads) + list(writes):
            req.schedulable_at = (
                _offset(rnd, now, ready) if rnd.random() < 0.5 else -1
            )
            answers[req.req_id] = (
                _offset(rnd, now, ready),
                can_hit[req.kind] and rnd.random() < hit_rate,
            )

        probes: Counter = Counter()

        def probe(req):
            probes[req.req_id] += 1
            return answers[req.req_id]

        got = new.select(now, reads, writes, probe)
        want = old.select(
            now, reads, writes,
            lambda req: answers[req.req_id][0],
            lambda req: answers[req.req_id][1],
        )
        assert got == want
        assert new._draining_writes == old._draining_writes
        # One probe per candidate, and only candidates inside the window.
        assert all(count == 1 for count in probes.values())
        assert len(probes) <= 2 * SCAN_WINDOW
        # A pick from a queue that cannot hit is its first ready candidate
        # (or a future one), so nothing behind a ready pick was probed.
        if got is not None and got[1] <= now and not can_hit[got[0].kind]:
            queue = writes if got[2] else reads
            behind = list(queue)[list(queue).index(got[0]) + 1:]
            assert not any(req.req_id in probes for req in behind)
        if issue and got is not None:
            req, _, is_write = got
            (writes if is_write else reads).remove(req)
