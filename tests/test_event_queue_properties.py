"""Property test: the simulator's event queue against a brute-force model.

Hypothesis drives arbitrary interleavings of ``schedule_at`` /
``schedule_fire`` / ``Event.cancel`` / single-event runs against a
plain-list model; after every operation ``len(sim.queue)`` must equal the
model's live count, and every run must fire exactly the earliest live
event by (time, schedule order), at its time.  This pins the queue's
determinism contract — same-time events fire in scheduling order, a time
in the past is clamped to now — under cancellation patterns (including
cancelling fired or already-cancelled events) that the simulator's own
workloads may never produce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.simulator import Simulator

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule_at"), st.integers(0, 40)),
        st.tuples(st.just("schedule_fire"), st.integers(0, 40)),
        st.tuples(st.just("cancel"), st.integers(0, 10**9)),
        st.tuples(st.just("step"), st.just(0)),
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
    sim = Simulator()
    fired = []  # indices into `model`, in firing order
    model = []  # (clamped time, seq) of every entry ever scheduled
    handles = []  # the Event handle, or None for a schedule_fire entry
    state = []  # "live" | "fired" | "cancelled", parallel to `model`

    def callback(index):
        def fire():
            fired.append(index)
            sim.stop()  # one event per run: a step

        return fire

    def check_step(expected):
        before = len(fired)
        sim.run()
        if expected is None:
            assert len(fired) == before
            return
        assert fired[before:] == [expected]
        assert sim.now == model[expected][0]
        state[expected] = "fired"

    for op, arg in operations:
        if op in ("schedule_at", "schedule_fire"):
            index = len(model)
            model.append((max(arg, sim.now), index))  # one seq counter for both
            if op == "schedule_at":
                handles.append(sim.schedule_at(arg, callback(index)))
            else:
                sim.schedule_fire(arg, callback(index))
                handles.append(None)
            state.append("live")
        elif op == "cancel" and handles:
            index = arg % len(handles)
            if handles[index] is not None:
                handles[index].cancel()  # may hit fired/cancelled events too
                if state[index] == "live":
                    state[index] = "cancelled"
        elif op == "step":
            check_step(_earliest_live(model, state))
        assert len(sim.queue) == state.count("live")

    # drain: the survivors fire in exact (time, schedule order)
    survivors = sorted(
        (i for i, s in enumerate(state) if s == "live"), key=lambda i: model[i]
    )
    for index in survivors:
        check_step(index)
    check_step(None)
    assert len(sim.queue) == 0
    assert sim.events_fired == state.count("fired")


@settings(max_examples=100, deadline=None)
@given(times=st.lists(st.integers(0, 3), max_size=64))
def test_same_time_events_fire_in_schedule_order(times):
    sim = Simulator()
    order = []
    pushed = []
    for t in times:
        callback = (lambda i=len(pushed): order.append(i))
        pushed.append((t, len(pushed)))
        if t % 2:
            sim.schedule_at(t, callback)
        else:
            sim.schedule_fire(t, callback)
    sim.run()
    assert order == [i for _, i in sorted(pushed)]


def test_heavy_cancellation_compacts_without_losing_order():
    sim = Simulator()
    order = []
    pushed = [
        sim.schedule_at(t % 7, lambda t=t: order.append(t)) for t in range(400)
    ]
    for event in pushed[:250]:  # past the >50%-garbage compaction threshold
        event.cancel()
    assert len(sim.queue) == 150
    assert sim.queue.heap_size < 400  # compaction reclaimed cancelled garbage
    survivors = sorted(pushed[250:], key=lambda e: (e.time, e.seq))
    sim.run()
    assert order == [event.seq for event in survivors]  # seq t is push t
    assert len(sim.queue) == 0


def test_handle_free_entries_fire_their_own_callback():
    """schedule_fire puts the callback itself in the heap entry: it fires
    at its (clamped) time and leaves nothing behind."""
    sim = Simulator()
    seen = []

    def callback():
        seen.append(sim.now)

    sim.schedule_fire(4, callback)
    assert sim.queue._heap == [(4, 0, callback)]
    assert len(sim.queue) == 1
    sim.run()
    assert seen == [4]
    assert len(sim.queue) == 0 and sim.queue.heap_size == 0
