"""Unit tests for the event queue through the simulator that drives it:
ordering, ties, cancellation, the live counter and compaction."""

import pytest
from hypothesis import given, strategies as st

from repro.engine.simulator import Simulator


def recorder(sim):
    """A callback factory whose callbacks log ``(label, sim.now)``."""
    fired = []

    def make(label):
        return lambda: fired.append((label, sim.now))

    return fired, make


class TestOrdering:
    def test_pops_in_time_order(self):
        sim = Simulator()
        fired, make = recorder(sim)
        sim.schedule_at(30, make("c"))
        sim.schedule_fire(10, make("a"))
        sim.schedule_at(20, make("b"))
        sim.run()
        assert fired == [("a", 10), ("b", 20), ("c", 30)]

    def test_same_time_pops_in_insertion_order(self):
        sim = Simulator()
        fired, make = recorder(sim)
        sim.schedule_at(5, make("a"))
        sim.schedule_fire(5, make("b"))
        sim.schedule(5, make("c"))
        sim.run()
        assert [label for label, _ in fired] == ["a", "b", "c"]

    def test_empty_run_fires_nothing(self):
        sim = Simulator()
        sim.run()
        assert (sim.now, sim.events_fired, len(sim.queue)) == (0, 0, 0)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
    def test_pop_sequence_is_sorted(self, times):
        sim = Simulator()
        fired, make = recorder(sim)
        for t in times:
            sim.schedule_fire(t, make(t))
        sim.run()
        assert [now for _, now in fired] == sorted(times)


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        fired, make = recorder(sim)
        sim.schedule_at(1, make("keep"))
        victim = sim.schedule_at(2, make("victim"))
        victim.cancel()
        sim.run()
        assert fired == [("keep", 1)]
        assert sim.events_fired == 1

    def test_len_ignores_cancelled(self):
        sim = Simulator()
        sim.schedule_fire(1, lambda: None)
        victim = sim.schedule_at(2, lambda: None)
        assert len(sim.queue) == 2
        victim.cancel()
        assert len(sim.queue) == 1

    def test_cancelled_head_does_not_stop_the_run_early(self):
        sim = Simulator()
        fired, make = recorder(sim)
        head = sim.schedule_at(1, make("head"))
        sim.schedule_at(7, make("next"))
        head.cancel()
        sim.run(until=5)
        assert fired == [] and sim.now == 5
        sim.run()
        assert fired == [("next", 7)]


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)


class TestLiveCounterAndCompaction:
    def test_len_is_constant_time_counter(self):
        sim = Simulator()
        events = [sim.schedule_at(i, lambda: None) for i in range(10)]
        assert len(sim.queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(sim.queue) == 6
        sim.run(until=4)  # fires the event at 4, the first live one
        assert len(sim.queue) == 5

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule_at(1, lambda: None)
        sim.schedule_at(2, lambda: None)
        event.cancel()
        event.cancel()
        assert len(sim.queue) == 1

    def test_cancel_after_pop_does_not_corrupt_counter(self):
        sim = Simulator()
        fired, make = recorder(sim)
        event = sim.schedule_at(1, make("first"))
        sim.schedule_at(2, make("second"))
        sim.run(until=1)
        assert fired == [("first", 1)]
        event.cancel()  # already fired: must be a no-op for the queue
        assert len(sim.queue) == 1
        sim.run()
        assert fired == [("first", 1), ("second", 2)]

    def test_heavy_cancellation_compacts_heap(self):
        sim = Simulator()
        fired, make = recorder(sim)
        victims = [sim.schedule_at(i, make(i)) for i in range(200)]
        sim.schedule_at(10_000, make("keep"))
        assert sim.queue.heap_size == 201
        for victim in victims:
            victim.cancel()
        # Compaction fires whenever garbage exceeds half the heap, so the
        # heap shrinks far below the raw push count and ends under the
        # 64-entry floor where compaction stops bothering.
        assert sim.queue.heap_size < 64
        assert len(sim.queue) == 1
        sim.run()
        assert fired == [("keep", 10_000)]

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        victims = [sim.schedule_at(i, lambda: None) for i in range(10)]
        for victim in victims:
            victim.cancel()
        assert sim.queue.heap_size == 10  # below the compaction floor
        assert len(sim.queue) == 0
        sim.run()
        assert sim.events_fired == 0 and sim.queue.heap_size == 0

    def test_order_preserved_across_compaction(self):
        sim = Simulator()
        fired, make = recorder(sim)
        keepers = []
        for i in range(300):
            event = sim.schedule_at(1000 - i, make(i))
            if i % 3:
                event.cancel()
            else:
                keepers.append(event.time)
        sim.run()
        assert [now for _, now in fired] == sorted(keepers)

    def test_compaction_inside_a_callback_keeps_the_run_going(self):
        """A callback that cancels enough events to compact the heap
        rebuilds it in place under the running loop."""
        sim = Simulator()
        fired, make = recorder(sim)
        victims = [sim.schedule_at(100 + i, make(i)) for i in range(200)]
        sim.schedule_at(500, make("keep"))

        def cancel_all():
            for victim in victims:
                victim.cancel()

        sim.schedule_fire(50, cancel_all)
        sim.run()
        assert fired == [("keep", 500)]
        assert len(sim.queue) == 0
