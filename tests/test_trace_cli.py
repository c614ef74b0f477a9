"""End-to-end tests of ``python -m repro trace`` and ``--trace-out``."""

import json

import pytest

from repro.__main__ import main
from repro.telemetry import load_capture, validate_chrome_trace

RUN_ARGS = ["--workload", "2C-1", "--insts", "3000"]


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
        assert "trace.latency_ps" in capture.metrics

    def test_summarize_prints_digest(self, capture_path, capsys):
        assert trace_main(["summarize", str(capture_path)]) == 0
        out = capsys.readouterr().out
        assert "request traces" in out
        assert "queue depth over" in out
        assert "event-loop profile" in out


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
