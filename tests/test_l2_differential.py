"""The two-dict L2 fill table against the frozen ``FillEntry`` table.

``tests/_legacy_l2.py`` is the table as it was before fills became one
dict slot each: an ``OrderedDict`` of ``FillEntry`` objects, each with
its own waiter list.  Random sequences of every public operation run
through both at small capacities, where eviction happens often, and
must agree on every probe status, the four counters, which lines are
resident after each step, and the order merged demands are woken in.
"""

import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

import tests._legacy_l2 as legacy
from repro.cpu.l2 import L2FillTable

LINES = st.integers(0, 7)

#: (operation, line, time): ``time`` is the completion time or ``now``.
#: A ``probe`` that finds the fill in flight merges a demand, as
#: ``Core._dispatch_read`` does; ``probe-reenter`` merges one whose
#: wake-up probes the same line again.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["start", "complete", "probe", "probe-reenter",
                         "invalidate", "has_line"]),
        LINES,
        st.integers(0, 50),
    ),
    max_size=80,
)


class _Caller:
    """Runs operations on one table, logging what a caller would see."""

    def __init__(self, table, legacy_api: bool) -> None:
        self.table = table
        self.legacy_api = legacy_api
        self.woken = []
        self.next_waiter = 0

    def _merge(self, found, line, now, reenter):
        waiters = found.waiters if self.legacy_api else found
        waiter_id = self.next_waiter
        self.next_waiter += 1

        def wake():
            self.woken.append(waiter_id)
            if reenter:
                self.step("probe", line, now)

        waiters.append(wake)

    def step(self, op, line, time):
        table = self.table
        if op == "start":
            return table.start_fill(line)
        if op == "complete":
            return table.complete_fill(line, time)
        if op == "invalidate":
            return table.invalidate(line)
        if op == "has_line":
            return table.has_line(line)
        status, found = table.probe(line, time)
        if status == "inflight":
            self._merge(found, line, time + 10, op == "probe-reenter")
        return status

    def state(self):
        table = self.table
        return (
            [line for line in range(8) if table.has_line(line)],
            table.fills_started, table.fills_completed,
            table.demand_hits, table.demand_merges, list(self.woken),
        )


@settings(max_examples=400, deadline=None)
@given(capacity=st.integers(1, 4), ops=OPS)
def test_matches_fill_entry_table(capacity, ops):
    new = _Caller(L2FillTable(capacity), legacy_api=False)
    old = _Caller(legacy.L2FillTable(capacity), legacy_api=True)
    for op in ops:
        assert new.step(*op) == old.step(*op), op
        assert new.state() == old.state(), op


def test_long_fifo_at_capacity_matches():
    """Thousands of evictions, past the table's periodic rebuild, with
    in-flight and waited-on fills scattered through the FIFO."""
    new = _Caller(L2FillTable(16), legacy_api=False)
    old = _Caller(legacy.L2FillTable(16), legacy_api=True)
    for i in range(5000):
        line = i % 23 if i % 7 == 0 else i
        ops = [("start", line, 0), ("probe", i - 3, i)]
        # Every fifth fill completes five steps late.
        ops.append(("complete", i - 2 if i % 5 else i - 7,
                    i if i % 11 else i + 50))
        if i % 13 == 0:
            ops.append(("invalidate", i - 9, 0))
        for op in ops:
            assert new.step(*op) == old.step(*op), (i, op)
    assert new.state()[1:] == old.state()[1:]
    assert [new.table.has_line(n) for n in range(5000)] == [
        old.table.has_line(n) for n in range(5000)]


def test_completed_fill_costs_one_dict_slot():
    """A completed fill holds a dict slot and its completion time, not an
    object of its own (the ``FillEntry`` table held ~255 B a fill)."""
    fills = 20_000
    lines = list(range(1 << 40, (1 << 40) + fills))
    table = L2FillTable(1 << 20)
    tracemalloc.start()
    try:
        for line in lines:
            table.start_fill(line)
            table.complete_fill(line, line * 1000)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / fills <= 80, held / fills
