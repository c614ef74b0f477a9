"""Unit tests for the simulation loop."""

import gc

import pytest

from repro.engine.simulator import PS_PER_NS, Simulator, gc_paused, ns


class TestNs:
    def test_converts_nanoseconds(self):
        assert ns(15.0) == 15_000
        assert PS_PER_NS == 1000

    def test_rounds_fractional(self):
        assert ns(1.5004) == 1500
        assert ns(0.0004) == 0


class TestScheduling:
    def test_events_fire_in_order_and_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(20, lambda: seen.append(("b", sim.now)))
        sim.schedule(10, lambda: seen.append(("a", sim.now)))
        sim.run()
        assert seen == [("a", 10), ("b", 20)]
        assert sim.now == 20

    def test_schedule_during_run(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(5, lambda: seen.append(sim.now))

        sim.schedule(10, first)
        sim.run()
        assert seen == [15]

    def test_schedule_at_clamps_to_now(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: sim.schedule_at(3, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [10]  # cannot fire in the past

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)


class TestRunControl:
    def test_stop_halts_loop(self):
        sim = Simulator()
        seen = []
        sim.schedule(1, lambda: (seen.append(1), sim.stop()))
        sim.schedule(2, lambda: seen.append(2))
        sim.run()
        assert seen == [1]

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, lambda: seen.append(5))
        sim.schedule(50, lambda: seen.append(50))
        sim.run(until=10)
        assert seen == [5]
        assert sim.now == 10
        sim.run()
        assert seen == [5, 50]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(1, rearm)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestGcPaused:
    def test_pauses_and_restores_on_exception(self):
        assert gc.isenabled()
        with pytest.raises(RuntimeError), gc_paused():
            assert not gc.isenabled()
            raise RuntimeError("boom")
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_run_pauses_and_restores(self):
        sim = Simulator()
        seen = []
        sim.schedule(1, lambda: seen.append(gc.isenabled()))
        sim.schedule(2, lambda: None)
        with pytest.raises(RuntimeError, match="exceeded 1 events"):
            sim.run(max_events=1)
        assert seen == [False]
        assert gc.isenabled()
