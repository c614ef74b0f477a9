"""End-to-end tests of ``python -m repro trace`` and ``--trace-out``."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.latency import percentile
from repro.config import fbdimm_amb_prefetch
from repro.system import System
from repro.telemetry.export import (
    build_capture,
    load_capture,
    summarize_capture,
    validate_chrome_trace,
)
from repro.telemetry.spans import Tracer

RUN_ARGS = ["--workload", "2C-1", "--insts", "3000"]
#: A capture written before the metrics block lost its log-bucket
#: histograms (``trace.latency_ps`` and friends, with bucket percentiles).
OLD_CAPTURE = Path(__file__).parent / "fixtures" / "capture_log_histograms.jsonl"
#: ``latency ns, <kind>[ (recorded requests only)]: <distribution>``.
KIND_LINE = re.compile(r"^latency ns, (\w+)( \(recorded requests only\))?: (.*)$")


def trace_main(argv):
    return main(["trace", *argv])


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "cap.jsonl"
    code = trace_main(
        ["record", *RUN_ARGS, "--profile", "--timeline-ns", "100",
         "-o", str(path)]
    )
    assert code == 0
    return path


class TestRecord:
    def test_capture_is_loadable_and_complete(self, capture_path):
        capture = load_capture(capture_path)
        assert capture.meta["programs"] == ["wupwise", "swim"]
        assert capture.requests and capture.commands
        assert capture.timeline, "--timeline-ns must record timeline windows"
        lines = capture_path.read_text().splitlines()[1:]
        kinds = {json.loads(line)["type"] for line in lines}
        assert kinds == {"req", "cmd", "profile", "window"}
        assert capture.profile, "--profile must record event-loop sites"
        assert capture.metrics["mem.demand_reads"]["type"] == "counter"
        assert {m["type"] for m in capture.metrics.values()} == {"counter", "gauge"}

    def test_summarize_prints_digest(self, capture_path, capsys):
        assert trace_main(["summarize", str(capture_path)]) == 0
        out = capsys.readouterr().out
        assert "request traces" in out
        assert "queue depth over" in out
        assert "event-loop profile" in out


def kind_lines(text):
    """kind -> (scoped to recorded requests?, distribution text)."""
    found = {}
    for line in text.splitlines():
        match = KIND_LINE.match(line)
        if match:
            found[match[1]] = (bool(match[2]), match[3])
    return found


def exact_lines(capture):
    """kind -> the distribution line of its completed traces, with the
    percentiles computed here, straight from ``percentile``."""
    samples = {}
    for trace in capture.requests:
        if trace.completed:
            samples.setdefault(trace.kind, []).append(trace.latency_ps)
    lines = {}
    for kind, values in samples.items():
        ordered = sorted(v / 1000.0 for v in values)
        lines[kind] = (
            f"n={len(values)} mean={sum(values) / (1000 * len(values)):.1f}ns "
            f"p50={percentile(ordered, 50):.1f} p90={percentile(ordered, 90):.1f} "
            f"p99={percentile(ordered, 99):.1f} max={ordered[-1]:.1f}"
        )
    return lines


class TestExactLatency:
    """One latency distribution: ``trace summarize`` prints exact
    percentiles per request kind, and its ``read`` line is the one
    ``repro run --latency`` prints for the same run."""

    ARGS = ["--workload", "4C-1", "--system", "fbd-ap", "--insts", "4000"]

    def test_summary_lines_are_exact_and_match_run_latency(self, tmp_path, capsys):
        path = tmp_path / "cap.jsonl"
        assert trace_main(["record", *self.ARGS, "-o", str(path)]) == 0
        capsys.readouterr()
        assert trace_main(["summarize", str(path)]) == 0
        printed = kind_lines(capsys.readouterr().out)
        expected = exact_lines(load_capture(path))
        assert set(expected) == {"read", "sw_prefetch", "write"}
        assert printed == {kind: (False, line) for kind, line in expected.items()}

        assert main(["run", *self.ARGS, "--latency"]) == 0
        [run_line] = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("latency distribution: ")
        ]
        assert run_line == f"latency distribution: {printed['read'][1]}"

    def test_bounded_recording_is_visible(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(num_cores=2).with_prefetch(lifecycle=True),
            instructions_per_core=3_000,
        )
        tracer = Tracer(max_requests=20, max_prefetches=5)
        machine = System(config, ["swim", "applu"], tracer=tracer)
        capture = build_capture(machine, machine.run())
        assert tracer.dropped > 0 and tracer.dropped_prefetches > 0
        text = summarize_capture(capture)
        assert (
            f"(bounded recording: {tracer.dropped} requests dropped, "
            f"{tracer.dropped_prefetches} prefetch spans dropped)"
        ) in text
        printed = kind_lines(text)
        assert printed, "the recorded requests still get their lines"
        expected = exact_lines(capture)
        assert printed == {kind: (True, line) for kind, line in expected.items()}


class TestOldCapture:
    """A capture written before the metrics block lost its histograms."""

    def test_loads_and_summarizes_exactly(self, capsys):
        assert trace_main(["summarize", str(OLD_CAPTURE)]) == 0
        out = capsys.readouterr().out
        expected = exact_lines(load_capture(OLD_CAPTURE))
        assert expected
        assert kind_lines(out) == {k: (False, line) for k, line in expected.items()}
        [hist] = [line for line in out.splitlines()
                  if line.startswith("  trace.latency_ps: ")]
        # Count and mean only: the bucket percentiles it carries never print.
        assert re.fullmatch(r"  trace\.latency_ps: count=\d+ mean=\d+", hist)
        assert not re.search(r"\bp(50|95|99)=", out.split("metrics:")[1])

    def test_truncated_copy_names_its_line(self, tmp_path, capsys):
        text = OLD_CAPTURE.read_text()
        cut = text.rindex("\n", 0, len(text) // 2) + 10  # inside a record
        path = tmp_path / "truncated.jsonl"
        path.write_text(text[:cut])
        line = text[:cut].count("\n") + 1
        assert trace_main(["summarize", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}:{line}: not JSON")


class TestExport:
    def test_export_from_capture(self, capture_path, tmp_path):
        out = tmp_path / "trace.json"
        assert trace_main(["export", str(capture_path), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert "ACT" in names and "read" in names

    def test_export_records_inline_when_no_capture(self, tmp_path):
        out = tmp_path / "direct.json"
        code = trace_main(["export", *RUN_ARGS, "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        # Acceptance shape: per-bank dram spans and request lifecycle spans.
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"dram", "request"} <= cats


class TestErrorPaths:
    def test_missing_capture_fails_cleanly(self, capsys):
        assert trace_main(["summarize", "/no/such/file.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_garbage_capture_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"version": 1, "params": {}}\n')
        assert trace_main(["export", str(path)]) == 2
        assert "not a telemetry capture" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("[1, 2]\n", 1),
        ('{"version": 1, "format": "repro-telemetry"}\n[1, 2]\n', 2),
        ('{"version": 1, "format": "repro-telemetry"}\n{not json\n', 2),
    ], ids=["array-header", "array-record", "non-json-record"])
    def test_malformed_capture_names_its_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        assert trace_main(["summarize", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {path}:{line}: ")


class TestMainCliTraceOut:
    def test_run_trace_out_writes_capture(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        path = tmp_path / "run.jsonl"
        code = repro_main([
            "run", "--workload", "swim", "--insts", "3000",
            "--trace-out", str(path),
        ])
        assert code == 0
        capture = load_capture(path)
        assert capture.requests
        assert not capture.profile
        assert "[trace:" in capsys.readouterr().out

    def test_run_trace_out_carries_the_profile(self, tmp_path):
        from repro.__main__ import main as repro_main

        path = tmp_path / "run.jsonl"
        assert repro_main([
            "run", "--workload", "swim", "--insts", "3000",
            "--trace-out", str(path), "--profile",
        ]) == 0
        assert load_capture(path).profile


class TestExperimentsTraceOut:
    def test_context_writes_one_capture_per_fresh_run(self, tmp_path):
        from repro.config import fbdimm_baseline
        from repro.experiments.runner import ExperimentContext

        beats = []
        ctx = ExperimentContext(
            instructions=2_000, progress=beats.append,
            trace_dir=tmp_path / "traces",
        )
        ctx.run(fbdimm_baseline(1), ["swim"])
        ctx.run(fbdimm_baseline(1), ["swim"])  # cached: no second capture
        files = sorted((tmp_path / "traces").glob("*.jsonl"))
        assert len(files) == 1
        assert load_capture(files[0]).meta["programs"] == ["swim"]
        assert len(beats) == 1
        assert beats[0].runs == 1
        assert beats[0].events == beats[0].total_events > 0
