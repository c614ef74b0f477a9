"""Per-prefetch lifecycle spans: tracer, capture round-trip, CLI.

Covers the observability plumbing around :mod:`repro.prefetch`: the
``PrefetchTrace`` span type, the tracer's bounded prefetch recording, the
telemetry capture JSONL round-trip of ``pf`` records, the Chrome-trace
counter track, and the ``repro prefetch`` CLI.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import fbdimm_amb_prefetch
from repro.system import System
from repro.telemetry.export import (
    build_capture,
    chrome_trace,
    load_capture,
    save_capture,
    summarize_capture,
    validate_chrome_trace,
)
from repro.telemetry.spans import PF_OUTCOMES, PrefetchTrace, Tracer

INSTS = 2000
SEED = 12345
PROGRAMS = ("wupwise", "swim", "mgrid", "applu")


def _lifecycle_config(**kwargs):
    config = fbdimm_amb_prefetch(num_cores=len(PROGRAMS), logic_channels=4)
    config = dataclasses.replace(
        config, instructions_per_core=INSTS, seed=SEED, **kwargs
    )
    prefetch = dataclasses.replace(config.memory.prefetch, lifecycle=True)
    return dataclasses.replace(
        config, memory=dataclasses.replace(config.memory, prefetch=prefetch)
    )


def _traced_run(config):
    tracer = Tracer()
    machine = System(config, PROGRAMS, tracer=tracer)
    result = machine.run()
    capture = build_capture(machine, result)
    return result, tracer, capture


@pytest.fixture(scope="module")
def traced():
    return _traced_run(_lifecycle_config())


class TestPrefetchTraceSpan:
    def test_mark_and_close(self):
        trace = PrefetchTrace(line_addr=42)
        trace.mark("issue", 100)
        trace.mark("fill", 400)
        trace.close("used", 900)
        assert trace.outcome == "used"
        assert trace.fill_latency_ps == 300
        assert trace.lifetime_ps == 800
        assert trace.phase_time("end") == 900

    def test_unknown_phase_and_outcome_rejected(self):
        trace = PrefetchTrace(line_addr=1)
        with pytest.raises(ValueError):
            trace.mark("bogus", 0)
        with pytest.raises(ValueError):
            trace.close("bogus", 0)

    def test_record_round_trip(self):
        trace = PrefetchTrace(line_addr=7)
        trace.mark("issue", 10)
        trace.mark("fill", 20)
        trace.close("evicted_unused", 30)
        record = trace.to_record()
        assert record["type"] == "pf"
        back = PrefetchTrace.from_record(
            {k: v for k, v in record.items() if k != "type"}
        )
        assert back.line_addr == trace.line_addr
        assert back.phases == trace.phases
        assert back.outcome == trace.outcome

    def test_open_span_has_no_latencies(self):
        trace = PrefetchTrace(line_addr=7)
        trace.mark("issue", 10)
        assert trace.fill_latency_ps is None
        assert trace.lifetime_ps is None
        assert "out" not in trace.to_record()


class TestTracerBounds:
    def test_capacity_bound_counts_drops(self):
        tracer = Tracer(max_prefetches=2)
        assert tracer.new_prefetch_trace(1, 0) is not None
        assert tracer.new_prefetch_trace(2, 0) is not None
        assert tracer.new_prefetch_trace(3, 0) is None
        assert len(tracer.prefetches) == 2
        assert tracer.dropped_prefetches == 1


class TestTracedLifecycleRun:
    def test_spans_reconcile_with_stats(self, traced):
        result, tracer, _ = traced
        assert tracer.prefetches  # the run did record prefetch spans
        by_outcome = {}
        for trace in tracer.prefetches:
            assert trace.outcome in PF_OUTCOMES
            assert trace.phase_time("issue") is not None
            assert trace.phase_time("end") is not None
            by_outcome[trace.outcome] = by_outcome.get(trace.outcome, 0) + 1
        mem = result.mem
        # Nothing was dropped at the default bound, so the spans ARE the
        # taxonomy: per-outcome span counts equal the stats buckets.
        assert tracer.dropped_prefetches == 0
        assert len(tracer.prefetches) == mem.pf_issued
        assert by_outcome.get("used", 0) == mem.pf_used
        assert by_outcome.get("late_unused", 0) == mem.pf_late_unused
        assert by_outcome.get("evicted_unused", 0) == mem.pf_evicted_unused
        assert by_outcome.get("invalidated", 0) == mem.pf_invalidated
        assert by_outcome.get("resident_at_end", 0) == mem.pf_resident_at_end

    def test_fill_latency_is_causal(self, traced):
        _, tracer, _ = traced
        filled = [t for t in tracer.prefetches
                  if t.fill_latency_ps is not None]
        assert filled
        for trace in filled:
            assert trace.fill_latency_ps > 0
            assert trace.lifetime_ps >= trace.fill_latency_ps

    def test_capture_round_trip_preserves_pf_records(self, traced, tmp_path):
        _, tracer, capture = traced
        assert len(capture.prefetches) == len(tracer.prefetches)
        assert capture.meta["traced_prefetches"] == len(tracer.prefetches)
        path = tmp_path / "capture.jsonl"
        save_capture(path, capture)
        loaded = load_capture(path)
        assert len(loaded.prefetches) == len(capture.prefetches)
        assert [t.to_record() for t in loaded.prefetches] == [
            t.to_record() for t in capture.prefetches
        ]

    def test_summary_mentions_prefetch_traces(self, traced):
        _, _, capture = traced
        assert "prefetch traces:" in summarize_capture(capture)

    def test_untraced_lifecycle_keeps_stats_only(self):
        machine = System(_lifecycle_config(), PROGRAMS)
        result = machine.run()
        assert result.mem.pf_issued > 0  # counters work without a tracer


class TestChromeTraceTrack:
    def test_lifecycle_windows_emit_counter_track(self):
        config = _lifecycle_config().with_timeline(window_ns=500.0)
        _, _, capture = _traced_run(config)
        assert capture.timeline
        doc = chrome_trace(capture)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "prefetch lifecycle" in names

    def test_lifecycle_off_windows_have_no_track(self):
        config = fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
        config = dataclasses.replace(
            config, instructions_per_core=INSTS, seed=SEED
        ).with_timeline(window_ns=500.0)
        _, _, capture = _traced_run(config)
        assert capture.timeline
        doc = chrome_trace(capture)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "prefetch lifecycle" not in names


class TestPrefetchCli:
    def test_report_text(self, capsys):
        from repro.__main__ import main

        code = main(["prefetch", "report", "--workload", "4C-1", "--insts", "2000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "prefetch lifecycle:" in out
        assert "conservation: issued == sum(outcomes) holds" in out

    def test_report_json_and_trace_out(self, capsys, tmp_path):
        from repro.__main__ import main

        trace_path = tmp_path / "pf.jsonl"
        code = main([
            "prefetch", "report", "--workload", "4C-1", "--insts", "2000",
            "--json", "--trace-out", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["conservation_delta"] == 0
        assert payload["issued"] > 0
        loaded = load_capture(trace_path)
        assert loaded.prefetches
        assert len(loaded.prefetches) == payload["issued"]

    def test_policies_listing(self, capsys):
        from repro.__main__ import main

        assert main(["prefetch", "policies"]) == 0
        assert "region" in capsys.readouterr().out

    def test_unknown_policy_exits_2(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["prefetch", "report", "--policy", "bogus"])

    def test_top_level_cli_exposes_prefetch(self, capsys):
        from repro.__main__ import main

        assert main(["prefetch", "policies"]) == 0
        assert "region" in capsys.readouterr().out
