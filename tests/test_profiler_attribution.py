"""Hierarchical event-loop profiler attribution (repro.engine.profiler).

Covers the subsystem bucketing, scheduling-ancestry stacks with cycle
collapse, the collapsed-stack flame export round-trip, the profiler track
in the Chrome-trace exporter, and the zero-overhead-when-off guarantee at
the event level (``Event.origin`` stays unset without a profiler).
"""

import dataclasses
from functools import partial

import pytest

from repro.config import fbdimm_amb_prefetch
from repro.engine.profiler import (
    MAX_STACK_DEPTH,
    EventLoopProfiler,
    callback_origin,
    callback_site,
    parse_collapsed,
    subsystem_of,
)
from repro.engine.simulator import Simulator
from repro.system import System
from repro.telemetry.export import build_capture, chrome_trace, validate_chrome_trace
from repro.telemetry.spans import Tracer


def profiled_run(insts=4_000):
    config = dataclasses.replace(
        fbdimm_amb_prefetch(2), instructions_per_core=insts
    )
    machine = System(config, ["swim", "mgrid"])
    profiler = EventLoopProfiler()
    machine.sim.profiler = profiler
    result = machine.run()
    return machine, profiler, result


class TestBuckets:
    @pytest.mark.parametrize(
        "module, bucket",
        [
            ("repro.engine.simulator", "engine"),
            ("repro.dram.bank", "dram"),
            ("repro.channel.fbdimm_link", "channel"),
            ("repro.controller.channel_controller", "controller"),
            ("repro.cpu.core", "cpu"),
            ("repro.workloads.multiprog", "workload"),
            ("repro.faults.retry", "faults"),
            ("repro.telemetry.spans", "telemetry"),
            ("repro.stats.collector", "telemetry"),
            ("repro.somewhere.new", "other"),
            ("os.path", "other"),
            ("", "other"),
        ],
    )
    def test_subsystem_of(self, module, bucket):
        assert subsystem_of(module) == bucket

    def test_callback_origin_of_bound_method(self):
        sim = Simulator()
        site, subsystem = callback_origin(sim.run)
        assert site == "simulator.Simulator.run"
        assert subsystem == "engine"
        assert callback_site(sim.run) == site

    def test_partial_takes_the_site_of_what_it_wraps(self):
        sim = Simulator()
        assert callback_origin(partial(sim.schedule, 5)) == (
            "simulator.Simulator.schedule", "engine"
        )
        nested = partial(partial(sim.schedule, 5), print)
        assert callback_site(nested) == "simulator.Simulator.schedule"

    def test_real_profile_has_no_partial_site(self):
        _machine, profiler, _result = profiled_run(insts=2_000)
        assert "'partial'" not in profiler.sites
        assert any(
            site.endswith("ChannelControllerBase._complete")
            for site in profiler.sites
        ), sorted(profiler.sites)


class TestStacks:
    def test_ancestry_recorded_through_scheduling(self):
        profiler = EventLoopProfiler()
        sim = Simulator()
        sim.profiler = profiler

        def child():
            pass

        def parent():
            sim.schedule(10, child)

        sim.schedule(0, parent)
        sim.run()
        chains = {frame.stack for frame in profiler.stacks.values()}
        parent_site = callback_site(parent)
        child_site = callback_site(child)
        assert (parent_site,) in chains
        assert (parent_site, child_site) in chains

    def test_self_scheduling_cycle_collapses(self):
        profiler = EventLoopProfiler()
        sim = Simulator()
        sim.profiler = profiler
        remaining = [50]

        def tick():
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(10, tick)

        sim.schedule(0, tick)
        sim.run()
        # 51 executions, but the A -> A cycle folds to one single-frame
        # stack instead of 51 ever-deeper ones.
        site = callback_site(tick)
        assert set(profiler.stacks) == {(site,)}
        assert profiler.stacks[(site,)].events == 51

    def test_ping_pong_cycle_collapses_to_two_stacks(self):
        profiler = EventLoopProfiler()
        sim = Simulator()
        sim.profiler = profiler
        remaining = [30]

        def ping():
            if remaining[0] > 0:
                remaining[0] -= 1
                sim.schedule(10, pong)

        def pong():
            sim.schedule(10, ping)

        sim.schedule(0, ping)
        sim.run()
        assert all(len(stack) <= 2 for stack in profiler.stacks)

    def test_deep_acyclic_chain_truncates_to_max_depth(self):
        profiler = EventLoopProfiler()
        sim = Simulator()
        sim.profiler = profiler

        # Distinct callables (no cycle to collapse): depth must cap.
        def make(i):
            def step():
                if i + 1 < len(steps):
                    sim.schedule(10, steps[i + 1])

            step.__qualname__ = f"step_{i}"
            return step

        steps = [make(i) for i in range(MAX_STACK_DEPTH + 8)]
        sim.schedule(0, steps[0])
        sim.run()
        assert max(len(stack) for stack in profiler.stacks) == MAX_STACK_DEPTH

    def test_real_run_produces_multi_frame_chains(self):
        _, profiler, _ = profiled_run()
        assert profiler.total_events > 0
        assert any(len(f.stack) > 1 for f in profiler.stacks.values())
        # Totals reconcile: stack events partition total events.
        assert sum(f.events for f in profiler.stacks.values()) == profiler.total_events


class TestSubsystems:
    def test_self_partitions_and_cum_dominates(self):
        _, profiler, _ = profiled_run()
        rows = profiler.subsystems()
        names = {row.subsystem for row in rows}
        assert {"cpu", "controller"} <= names
        total_self = sum(row.self_s for row in rows)
        assert total_self == pytest.approx(profiler.total_wall_s)
        for row in rows:
            assert row.cum_s >= row.self_s - 1e-12
        # The root of every chain is the CPU side, so cpu cumulative time
        # must cover (almost) the whole run.
        cpu = next(row for row in rows if row.subsystem == "cpu")
        assert cpu.cum_s >= 0.9 * profiler.total_wall_s

    def test_tree_report_renders(self):
        _, profiler, _ = profiled_run()
        text = profiler.tree_report(limit=5)
        assert "subsystem" in text and "cum ms" in text
        assert "hottest scheduling chains:" in text
        assert "->" in text


class TestFlameExport:
    def test_collapsed_round_trips_through_parser(self):
        _, profiler, _ = profiled_run()
        lines = profiler.to_collapsed()
        assert lines, "expected at least one stack above 1 us"
        parsed = parse_collapsed("\n".join(lines) + "\n")
        assert len(parsed) == len(lines)
        for frames, weight in parsed:
            assert weight > 0
            # Rooted at a subsystem bucket, then the scheduling frames.
            assert frames[0] in {
                "engine", "dram", "channel", "controller", "cpu",
                "workload", "faults", "telemetry", "other",
            }
            assert len(frames) >= 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("frame;frame", "missing stack or value"),
            ("frame;frame x", "not an integer"),
            ("frame;frame 0", "non-positive"),
            ("frame;;frame 10", "empty frame"),
        ],
    )
    def test_parser_rejects_malformed(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_collapsed(text)

    def test_parser_skips_blank_lines(self):
        assert parse_collapsed("\n a;b 3 \n\n") == [(["a", "b"], 3)]


class TestChromeProfilerTrack:
    def test_profiler_track_exported_and_schema_valid(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(2), instructions_per_core=4_000
        )
        tracer = Tracer()
        machine = System(config, ["swim", "mgrid"], tracer=tracer)
        profiler = EventLoopProfiler()
        machine.sim.profiler = profiler
        result = machine.run()
        capture = build_capture(machine, result)
        doc = chrome_trace(capture)
        assert validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        named = [
            e for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
            and "profiler" in e["args"]["name"]
        ]
        assert named, "profiler process metadata missing"
        pid = named[0]["pid"]
        spans = [e for e in events if e.get("pid") == pid and e.get("ph") == "X"]
        assert spans
        # One thread per subsystem; durations mirror stack wall time.
        assert all("stack" in span["args"] for span in spans)
        assert all(span["dur"] >= 0 for span in spans)

    def test_capture_without_profile_has_no_profiler_track(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(2), instructions_per_core=2_000
        )
        tracer = Tracer()
        machine = System(config, ["swim", "mgrid"], tracer=tracer)
        result = machine.run()
        capture = build_capture(machine, result)
        doc = chrome_trace(capture)
        assert validate_chrome_trace(doc) == []
        assert not [
            e for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
            and "profiler" in e["args"]["name"]
        ]


class TestZeroOverheadOff:
    def test_unprofiled_events_carry_no_origin(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append(True))
        assert event.origin is None
        sim.run()
        assert fired == [True]

    def test_profiled_run_matches_unprofiled_counts(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(2), instructions_per_core=3_000
        )
        plain = System(config, ["swim", "mgrid"]).run()
        machine = System(config, ["swim", "mgrid"])
        machine.sim.profiler = EventLoopProfiler()
        profiled = machine.run()
        assert profiled.events_fired == plain.events_fired
        assert profiled.elapsed_ps == plain.elapsed_ps
        assert dataclasses.asdict(profiled.mem) == dataclasses.asdict(plain.mem)
