"""Property test: the event queue against a brute-force model.

Hypothesis drives arbitrary interleavings of push / push_fire / cancel /
pop / peek against a plain-list model; after every operation ``len()``
must equal the model's live count, and every pop must return exactly the
earliest live event by (time, schedule order).  This pins the queue's determinism
contract — same-time events fire in scheduling order — under cancellation
patterns (including cancelling popped or already-cancelled events) that
the simulator's own workloads may never produce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.event_queue import EventQueue

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 20)),
        st.tuples(st.just("push_fire"), st.integers(0, 20)),
        st.tuples(st.just("cancel"), st.integers(0, 10**9)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    max_size=300,
)


def _earliest_live(model, state):
    live = [i for i, s in enumerate(state) if s == "live"]
    if not live:
        return None
    return min(live, key=lambda i: model[i])


@settings(max_examples=300, deadline=None)
@given(operations=OPERATIONS)
def test_interleavings_match_model(operations):
    queue = EventQueue()
    model = []  # (time, seq) of every entry ever pushed, in push order
    handles = []  # the Event handle, or None for a push_fire entry
    state = []  # "live" | "popped" | "cancelled", parallel to `model`

    def check_pop(expected):
        popped = queue.pop()
        if expected is None:
            assert popped is None
            return
        assert (popped.time, popped.seq) == model[expected]
        if handles[expected] is not None:
            assert popped is handles[expected]
        state[expected] = "popped"

    for op, arg in operations:
        if op in ("push", "push_fire"):
            if op == "push":
                handles.append(queue.push(arg, lambda: None))
            else:
                queue.push_fire(arg, lambda: None)
                handles.append(None)
            model.append((arg, len(model)))  # one seq counter for both
            state.append("live")
        elif op == "cancel" and handles:
            index = arg % len(handles)
            if handles[index] is not None:
                handles[index].cancel()  # may hit popped/cancelled events too
                if state[index] == "live":
                    state[index] = "cancelled"
        elif op == "pop":
            check_pop(_earliest_live(model, state))
        elif op == "peek":
            expected = _earliest_live(model, state)
            time = queue.peek_time()
            assert time == (None if expected is None else model[expected][0])
        assert len(queue) == state.count("live")

    # drain: the survivors come out in exact (time, schedule order)
    survivors = sorted(
        (i for i, s in enumerate(state) if s == "live"), key=lambda i: model[i]
    )
    for index in survivors:
        check_pop(index)
    assert queue.pop() is None
    assert len(queue) == 0


@settings(max_examples=100, deadline=None)
@given(times=st.lists(st.integers(0, 3), max_size=64))
def test_same_time_events_fire_in_schedule_order(times):
    queue = EventQueue()
    pushed = [queue.push(t, lambda: None) for t in times]
    order = []
    while True:
        event = queue.pop()
        if event is None:
            break
        order.append(event)
    expected = sorted(pushed, key=lambda e: (e.time, e.seq))
    assert order == expected


def test_heavy_cancellation_compacts_without_losing_order():
    queue = EventQueue()
    pushed = [queue.push(t % 7, lambda: None) for t in range(400)]
    for event in pushed[:250]:  # past the >50%-garbage compaction threshold
        event.cancel()
    assert len(queue) == 150
    assert queue.heap_size < 400  # compaction reclaimed cancelled garbage
    survivors = sorted(pushed[250:], key=lambda e: (e.time, e.seq))
    assert [queue.pop() for _ in range(150)] == survivors
    assert queue.pop() is None


def test_pop_wraps_handle_free_entries():
    """pop() returns a detached Event wrapper for push_fire entries."""
    queue = EventQueue()
    marker = lambda: None  # noqa: E731 - identity matters, not style
    queue.push_fire(4, marker)
    event = queue.pop()
    assert event is not None
    assert event.time == 4
    assert event.callback is marker
    assert queue.pop() is None
    assert len(queue) == 0
