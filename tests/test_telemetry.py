"""Telemetry tests: the capture's metrics block, span lifecycle, capture
round-trip, Chrome-trace schema, event-loop profiler, the zero-overhead
guard, and the trace-capture golden.

``tests/goldens/trace_capture.json`` pins, per workload, the sha256 of
every request trace, so an observer rewrite must record exactly what it
recorded before.  Regenerate it after
an *intentional* change with::

    PYTHONPATH=src python tests/test_telemetry.py --refresh
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.latency import LatencyDistribution, percentile
from repro.config import (
    PrefetchLocation,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.engine.profiler import EventLoopProfiler, callback_site
from repro.engine.simulator import Simulator
from repro.serialize import canonical_dumps
from repro.stats import metrics as derived
from repro.stats.collector import COUNTERS, MemSystemStats
from repro.system import System, run_system
from repro.telemetry.export import (
    TelemetryCapture,
    build_capture,
    capture_metrics,
    chrome_trace,
    load_capture,
    save_capture,
    summarize_capture,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.spans import RequestTrace, Tracer
from repro.workloads.multiprog import workload_programs


def traced_run(programs=("swim",), insts=6_000, config=None, profile=False,
               max_requests=200_000):
    """One small run with a tracer attached; returns (machine, result, tracer)."""
    config = dataclasses.replace(
        config or fbdimm_amb_prefetch(len(programs)),
        instructions_per_core=insts,
    )
    tracer = Tracer(max_requests=max_requests)
    machine = System(config, list(programs), tracer=tracer)
    if profile:
        machine.sim.profiler = EventLoopProfiler()
    return machine, machine.run(), tracer


# ----------------------------------------------------------------------
# The capture's metrics block
# ----------------------------------------------------------------------


class TestMetricsBlock:
    def test_metrics_block_without_breaking_stats(self):
        stats = MemSystemStats()
        stats.record_read_completion(
            latency_ps=63_000, queue_delay_ps=1_000, is_demand=True,
            amb_hit=True, line_bytes=64, core_id=0,
        )
        stats.record_write_completion(64)
        snap = capture_metrics(stats)
        assert snap["mem.demand_reads"]["value"] == 1
        assert snap["mem.writes"]["value"] == 1
        assert snap["mem.amb_hits"]["value"] == 1
        assert snap["mem.core0.queue_delay_sum_ps"]["value"] == 1_000
        # Every entry is self-describing, and the block never mutates stats.
        assert all(set(m) == {"type", "help", "value"} for m in snap.values())
        assert stats.demand_reads == 1

    def test_every_declared_counter_is_listed_with_its_help(self):
        stats = MemSystemStats()
        snap = capture_metrics(stats)
        for f in COUNTERS:
            entry = snap[f"mem.{f.name}"]
            assert entry["type"] == "counter"
            assert entry["help"] == f.metadata["help"]
            assert entry["value"] == getattr(stats, f.name)

    def test_gauges_are_the_derived_metrics(self):
        _, result, _ = traced_run(insts=3_000)
        stats = result.mem
        snap = capture_metrics(stats)
        for name, fn in (
            ("avg_read_latency_ns", derived.average_read_latency_ns),
            ("avg_queue_delay_ns", derived.average_queue_delay_ns),
            ("utilized_bandwidth_gbs", derived.utilized_bandwidth_gbs),
            ("prefetch_coverage", derived.prefetch_coverage),
            ("prefetch_efficiency", derived.prefetch_efficiency),
            ("lifecycle_coverage", derived.lifecycle_coverage),
        ):
            entry = snap[f"mem.{name}"]
            assert entry["type"] == "gauge"
            assert entry["value"] == fn(stats)
        assert snap["mem.elapsed_ps"]["value"] == float(stats.elapsed_ps)
        for channel, busy_ps in stats.per_channel_busy_ps.items():
            assert snap[f"mem.busy_ps.{channel}"]["value"] == float(busy_ps)

    def test_empty_stats_give_zero_powerdown_residency(self):
        # No idle time at all: the residency gauge reads 0, not a division error.
        snap = capture_metrics(MemSystemStats())
        assert snap["mem.powerdown_residency"]["value"] == 0.0
        assert not any(name.startswith("mem.core") for name in snap)

    def test_legacy_two_field_core_entry_has_zero_queue_delay(self):
        stats = MemSystemStats()
        stats.per_core_reads = {3: [2, 126_000]}
        snap = capture_metrics(stats)
        assert snap["mem.core3.demand_reads"]["value"] == 2
        assert snap["mem.core3.demand_latency_sum_ps"]["value"] == 126_000
        assert snap["mem.core3.queue_delay_sum_ps"]["value"] == 0

    def test_block_roundtrips_through_a_capture_file(self, tmp_path):
        machine, result, _ = traced_run(insts=2_000)
        capture = build_capture(machine, result)
        path = tmp_path / "capture.jsonl"
        save_capture(path, capture)
        assert load_capture(path).metrics == json.loads(json.dumps(capture.metrics))
        assert "mem.demand_latency_ps" not in capture.metrics


# ----------------------------------------------------------------------
# Request spans
# ----------------------------------------------------------------------


def _request(kind=RequestKind.DEMAND_READ, core_id=0, line_addr=0x40):
    return MemoryRequest(kind=kind, line_addr=line_addr, core_id=core_id,
                         arrival=0)


class TestRequestTrace:
    def test_phase_order_and_derived_times(self):
        trace = RequestTrace(req_id=1, kind="read", core_id=0, line_addr=4)
        trace.mark("arrival", 0)
        trace.mark("schedulable", 12_000)
        trace.mark("issue", 20_000)
        trace.mark("complete", 63_000)
        assert trace.completed
        assert trace.latency_ps == 63_000
        assert trace.queue_delay_ps == 8_000
        assert trace.phase_time("data") is None

    def test_unknown_phase_rejected(self):
        trace = RequestTrace(req_id=1, kind="read", core_id=0, line_addr=4)
        with pytest.raises(ValueError):
            trace.mark("teleported", 5)

    def test_record_roundtrip(self):
        trace = RequestTrace(req_id=7, kind="write", core_id=2, line_addr=99,
                             channel=1, dimm=3, rank=0, bank=2, amb_hit=True)
        trace.mark("arrival", 10)
        trace.mark("complete", 50)
        back = RequestTrace.from_record(trace.to_record())
        assert back == trace

    def test_record_elides_defaults(self):
        trace = RequestTrace(req_id=7, kind="read", core_id=0, line_addr=1)
        record = trace.to_record()
        assert "ch" not in record and "amb" not in record


class TestTracerLifecycle:
    """The tracer records arrival and retries; every other phase is read
    off the request's own timestamps."""

    def _issued(self, tracer):
        req = _request()
        req.arrival = 100
        tracer.on_arrival(req, backlogged=False)
        req.schedulable_at = 12_000
        req.issue_time = 20_000
        req.data_at = 55_000
        return req

    def test_hooks_build_a_full_span(self):
        """Two hooks plus the request's own timestamps give every phase."""
        tracer = Tracer()
        req = self._issued(tracer)
        req.complete(63_000)
        [trace] = tracer.completed_traces()
        assert trace.phases == [
            ("arrival", 100), ("schedulable", 12_000), ("issue", 20_000),
            ("data", 55_000), ("complete", 63_000),
        ]
        assert trace.latency_ps == 62_900
        assert trace.queue_delay_ps == 8_000

    def test_backlogged_request_gets_queued_phase(self):
        tracer = Tracer()
        req = _request()
        tracer.on_arrival(req, backlogged=True)
        [trace] = tracer.traces()
        # Never admitted: no schedulable phase, only arrival and queued.
        assert trace.phases == [("arrival", 0), ("queued", 0)]
        assert not trace.completed
        req.schedulable_at = 40_000
        assert tracer.traces()[0].phase_time("schedulable") == 40_000

    def test_retries_straddle_the_data_phase(self):
        tracer = Tracer()
        req = self._issued(tracer)
        tracer.on_retry(req, "SB_CMD", 30_000)
        tracer.on_retry(req, "NB_LINE", 60_000)
        tracer.on_retry(req, "SB_DATA", 35_000)
        [trace] = tracer.traces()
        assert [name for name, _ in trace.phases] == [
            "arrival", "schedulable", "issue", "retry", "retry", "data", "retry",
        ]
        assert [t for name, t in trace.phases if name == "retry"] == [
            30_000, 35_000, 60_000,
        ]

    def test_hit_flags_only_on_completed_requests(self):
        tracer = Tracer()
        req = self._issued(tracer)
        req.amb_hit = req.row_hit = True
        [trace] = tracer.traces()
        assert not trace.amb_hit and not trace.row_hit
        req.complete(63_000)
        [trace] = tracer.traces()
        assert trace.amb_hit and trace.row_hit

    def test_bounded_recording_counts_what_it_drops(self):
        tracer = Tracer(max_requests=1)
        first, second = _request(), _request()
        tracer.on_arrival(first, backlogged=False)
        tracer.on_arrival(second, backlogged=False)
        assert tracer.dropped == 1
        # A dropped request leaves no span and no retry behind.
        tracer.on_retry(second, "SB_CMD", 5)
        assert not tracer._retries
        assert [t.req_id for t in tracer.traces()] == [first.req_id]

    def test_real_run_traces_every_completion(self):
        machine, result, tracer = traced_run()
        completed = tracer.completed_traces()
        finished = result.mem.demand_reads + result.mem.sw_prefetch_reads \
            + result.mem.writes
        assert len(completed) >= finished  # warm-up resets stats, not traces
        reads = [t for t in completed if t.kind == "read"]
        assert reads and all(t.channel >= 0 and t.bank >= 0 for t in reads)
        assert any(t.amb_hit for t in completed)


# ----------------------------------------------------------------------
# Capture + exporters
# ----------------------------------------------------------------------


#: A valid capture header, for malformed-record cases.
_HEADER = '{"version": 1, "format": "repro-telemetry"}\n'


class TestCaptureAndChromeTrace:
    def _capture(self, **kwargs):
        machine, result, _tracer = traced_run(**kwargs)
        return build_capture(machine, result)

    def test_capture_roundtrip(self, tmp_path):
        capture = self._capture()
        path = tmp_path / "cap.jsonl"
        written = save_capture(path, capture)
        assert written == len(capture.requests) + len(capture.commands)
        back = load_capture(path)
        assert back.meta["kind"] == "fbdimm"
        assert len(back.requests) == len(capture.requests)
        assert len(back.commands) == len(capture.commands)
        assert back.metrics.keys() == capture.metrics.keys()

    def test_load_rejects_foreign_files(self, tmp_path):
        """Each malformed file is one ValueError naming ``path:line``."""
        cases = [
            ('{"version": 1, "params": {}}\n', "not a telemetry capture"),
            ("", ":1: not JSON"),
            ("[1, 2]\n", ":1: expected a JSON object, got list"),
            (_HEADER + "[1, 2]\n", ":2: expected a JSON object, got list"),
            (_HEADER + "{not json\n", ":2: not JSON"),
            # Captures from before the queue sampler was folded away.
            (_HEADER + '{"type": "sample", "time_ps": 0}\n',
             ":2: unknown record type 'sample'"),
            (_HEADER + '{"type": "req"}\n', ":2: "),
        ]
        path = tmp_path / "bogus.jsonl"
        for text, where in cases:
            path.write_text(text)
            with pytest.raises(ValueError) as excinfo:
                load_capture(path)
            assert str(excinfo.value).startswith(str(path)), text
            assert where in str(excinfo.value), text

    def test_chrome_trace_passes_own_validator(self):
        capture = self._capture(programs=("swim", "mgrid"))
        doc = chrome_trace(capture)
        assert validate_chrome_trace(doc) == []
        events = doc["traceEvents"]
        names = {e["name"] for e in events}
        # Per-bank command spans and per-request lifecycle spans both present.
        assert "ACT" in names and "RD burst" in names
        assert "read" in names
        phases = {e["ph"] for e in events}
        assert {"M", "X", "b", "e"} <= phases
        cats = {e.get("cat") for e in events}
        assert {"request", "dram", "link"} <= cats

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        capture = self._capture()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, capture)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_validator_catches_breakage(self):
        capture = self._capture()
        doc = chrome_trace(capture)
        assert validate_chrome_trace({"traceEvents": []})
        assert validate_chrome_trace([1, 2]) == ["document is not a JSON object"]
        broken = {"traceEvents": [dict(doc["traceEvents"][0], ph="Z")]}
        assert any("unknown phase" in p for p in validate_chrome_trace(broken))
        dangling = {"traceEvents": [
            {"ph": "b", "pid": 1, "tid": 0, "ts": 0, "name": "r",
             "cat": "request", "id": "0x1"},
        ]}
        assert any("never ended" in p for p in validate_chrome_trace(dangling))

    def test_summary_mentions_key_facts(self):
        capture = self._capture()
        text = summarize_capture(capture)
        assert "request traces" in text
        assert "latency ns" in text
        assert "AMB hits" in text


class TestSummarizeCaptureEdges:
    def test_empty_capture(self):
        text = summarize_capture(TelemetryCapture())
        assert "0 request traces" in text
        # No completed requests, samples, metrics or profile sections.
        assert "latency ns" not in text
        assert "event-loop profile" not in text

    def test_only_retry_phase_spans(self):
        # A trace that saw a link retry but never completed: it must not
        # reach the latency histograms (latency_ps is undefined) and the
        # completed count stays zero.
        trace = RequestTrace(req_id=1, kind="read", core_id=0, line_addr=64)
        trace.mark("retry", 1_000)
        capture = TelemetryCapture(requests=[trace])
        text = summarize_capture(capture)
        assert "1 request traces" in text
        assert "completed:" not in text
        assert "latency ns" not in text

    def test_top_sites_larger_than_site_count(self):
        capture = TelemetryCapture(
            profile=[
                {"site": "a.b", "subsystem": "cpu", "events": 3,
                 "wall_s": 0.002},
                {"site": "c.d", "subsystem": "dram", "events": 1,
                 "wall_s": 0.001},
                {"stack": ["a.b", "c.d"], "subsystem": "dram", "events": 1,
                 "wall_s": 0.001},
            ]
        )
        text = summarize_capture(capture, top_sites=50)
        assert "a.b" in text and "c.d" in text
        site_lines = [line for line in text.splitlines() if " ms" in line]
        assert len(site_lines) == 2  # stack records not double-listed
        assert "subsystem wall time: cpu 67%, dram 33%" in text

    def test_zero_wall_profile_has_no_share_line(self):
        capture = TelemetryCapture(
            profile=[{"site": "a.b", "subsystem": "cpu", "events": 1,
                      "wall_s": 0.0}]
        )
        text = summarize_capture(capture)
        assert "subsystem wall time" not in text
        assert "a.b" in text

    @staticmethod
    def _span(req_id, kind, arrival, ready, issue, complete):
        trace = RequestTrace(req_id=req_id, kind=kind, core_id=0, line_addr=64)
        for phase, time_ps in (("arrival", arrival), ("schedulable", ready),
                               ("issue", issue), ("complete", complete)):
            trace.mark(phase, time_ps)
        return trace

    def test_one_exact_line_per_kind_with_samples(self):
        capture = TelemetryCapture(requests=[
            self._span(1, "read", 0, 1_000, 2_000, 63_000),
            self._span(2, "read", 0, 1_000, 5_000, 100_000),
            self._span(3, "write", 0, 1_000, 1_000, 40_000),
        ])
        lines = summarize_capture(capture).splitlines()
        kind_lines = [line for line in lines if line.startswith("latency ns, ")]
        # No sw_prefetch line: that kind has no samples.
        assert kind_lines == [
            "latency ns, read: "
            + LatencyDistribution.from_samples_ps([63_000, 100_000]).format(),
            "latency ns, write: "
            + LatencyDistribution.from_samples_ps([40_000]).format(),
        ]

    def test_queue_delay_line_is_exact(self):
        delays_ps = [0, 1_000, 3_000, 10_000, 50_000]
        capture = TelemetryCapture(requests=[
            self._span(i, "read", 0, 1_000, 1_000 + delay, 90_000 + delay)
            for i, delay in enumerate(delays_ps)
        ])
        [line] = [line for line in summarize_capture(capture).splitlines()
                  if line.startswith("queue delay ns:")]
        p95 = percentile([delay / 1000.0 for delay in delays_ps], 95)
        assert line == f"queue delay ns: mean 12.8, p95 {p95:.1f}"
        assert p95 == pytest.approx(42.0)  # index 3.8 between 10 and 50 ns

    def test_old_histogram_entry_prints_count_and_mean_only(self):
        capture = TelemetryCapture(metrics={
            "mem.demand_latency_ps": {
                "type": "histogram", "help": "", "count": 3, "sum": 226_000,
                "min": 63_000, "max": 100_000, "mean": 75_333.3,
                "p50": 65_536.0, "p95": 100_000.0, "p99": 100_000.0,
            },
            "mem.reads": {"type": "counter", "help": "", "value": 3},
        })
        text = summarize_capture(capture)
        assert "  mem.demand_latency_ps: count=3 mean=75333" in text.splitlines()
        assert "  mem.reads: 3" in text.splitlines()
        assert "65536" not in text and "p50" not in text


# ----------------------------------------------------------------------
# Event-loop profiler
# ----------------------------------------------------------------------


class TestProfiler:
    def test_sites_attributed_and_ranked(self):
        sim = Simulator()
        sim.profiler = EventLoopProfiler()

        def tick():
            pass

        for delay in (1, 2, 3):
            sim.schedule(delay, tick)
        sim.run()
        assert sim.events_fired == 3
        profile = sim.profiler
        assert profile.total_events == 3
        [site] = profile.ranked()
        assert site.events == 3
        assert "tick" in site.site
        assert "events" in profile.report()
        assert profile.to_records()[0]["events"] == 3

    def test_callback_site_unwraps_bound_methods(self):
        class Widget:
            def poke(self):
                pass

        assert callback_site(Widget().poke).endswith("Widget.poke")

    def test_profiled_run_is_bit_identical(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(1), instructions_per_core=4_000
        )
        plain = System(config, ["swim"]).run()
        profiled_machine = System(config, ["swim"])
        profiled_machine.sim.profiler = EventLoopProfiler()
        profiled = profiled_machine.run()
        assert profiled.events_fired == plain.events_fired
        assert profiled.elapsed_ps == plain.elapsed_ps
        assert profiled.core_ipcs == plain.core_ipcs
        assert profiled_machine.sim.profiler.total_events == plain.events_fired


# ----------------------------------------------------------------------
# Zero-overhead guard: tracing must never change the simulation
# ----------------------------------------------------------------------


class TestOverheadGuard:
    @pytest.mark.parametrize("build", [fbdimm_amb_prefetch, fbdimm_baseline])
    def test_traced_run_is_bit_identical_to_plain(self, build):
        config = dataclasses.replace(build(2), instructions_per_core=5_000)
        programs = ["swim", "mgrid"]
        plain = System(config, programs).run()
        traced = System(config, programs, tracer=Tracer()).run()
        assert traced.events_fired == plain.events_fired
        assert traced.elapsed_ps == plain.elapsed_ps
        assert traced.core_ipcs == plain.core_ipcs
        assert traced.core_instructions == plain.core_instructions
        assert dataclasses.asdict(traced.mem) == dataclasses.asdict(plain.mem)


# ----------------------------------------------------------------------
# Trace-capture golden: what the tracer records, byte for byte
# ----------------------------------------------------------------------

TRACE_GOLDEN_PATH = Path(__file__).parent / "goldens" / "trace_capture.json"


def _trace_configs():
    """name -> config: 8C-1 at 20 000 insts/core, seed 12345."""
    def sized(config):
        return dataclasses.replace(
            config, instructions_per_core=20_000, seed=12345
        )

    faulted = fbdimm_amb_prefetch(num_cores=8).with_faults(error_rate=2e-2)
    return {
        "fbd-ap-faults": sized(faulted),
        "fbd-ap-controller-faults": sized(
            faulted.with_prefetch(location=PrefetchLocation.CONTROLLER)
        ),
        "ddr2": sized(ddr2_baseline(num_cores=8)),
    }


def trace_capture(config):
    """(sha256 of the traces, the traces) of one run.

    Request ids come from a process-wide counter, so they are rebased to
    the run's first id: the digest must not depend on what ran before.
    """
    tracer = Tracer()
    run_system(config, workload_programs("8C-1"), tracer=tracer)
    traces = tracer.traces()
    records = [t.to_record() for t in traces]
    base = min(record["id"] for record in records)
    for record in records:
        record["id"] -= base
    text = canonical_dumps({"traces": records})
    return hashlib.sha256(text.encode()).hexdigest(), traces


@pytest.fixture(scope="module")
def trace_captures():
    return {name: trace_capture(config)
            for name, config in _trace_configs().items()}


class TestTraceGolden:
    @pytest.mark.parametrize("name", list(_trace_configs()))
    def test_traces_match_golden(self, name, trace_captures):
        golden = json.loads(TRACE_GOLDEN_PATH.read_text())
        assert trace_captures[name][0] == golden[name]

    @pytest.mark.parametrize("name", list(_trace_configs()))
    def test_capture_covers_every_phase_kind(self, name, trace_captures):
        """Each pinned capture exercises the corner cases: a backlogged
        request, retries on both sides of ``data`` (faulted runs) and a
        request still in flight at the end."""
        traces = trace_captures[name][1]
        assert any(t.phase_time("queued") is not None for t in traces)
        assert any(not t.completed for t in traces)
        if "faults" not in name:
            return
        orders = [[phase for phase, _ in t.phases] for t in traces]
        assert any("retry" in o and o.index("retry") < o.index("data")
                   for o in orders)
        assert any("retry" in o and o[::-1].index("retry") < o[::-1].index("data")
                   for o in orders)


def refresh_trace_golden() -> None:
    golden = {name: trace_capture(config)[0]
              for name, config in _trace_configs().items()}
    TRACE_GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TRACE_GOLDEN_PATH}")


if __name__ == "__main__":
    if "--refresh" not in sys.argv:
        sys.exit("usage: python tests/test_telemetry.py --refresh")
    refresh_trace_golden()
