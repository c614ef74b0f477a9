"""Tests for synthetic workloads, trace I/O, table export, and
System.from_traces."""

import dataclasses
import itertools
import re

import pytest

from repro.config import fbdimm_baseline
from repro.experiments.export import to_csv, to_markdown, write_csv, write_markdown
from repro.experiments.runner import ResultTable
from repro.system import System
from repro.workloads.synthetic import (
    GENERATORS,
    SyntheticSpec,
    pointer_chase,
    stream,
    strided,
    uniform_random,
)
from repro.workloads.trace import TraceEvent, TraceKind, validate
from repro.workloads.trace_io import (
    load_trace,
    load_trace_list,
    load_trace_metadata,
    save_trace,
)


def take(gen, n):
    return list(itertools.islice(gen, n))


class TestSyntheticGenerators:
    def test_stream_is_sequential(self):
        events = take(stream(SyntheticSpec(gap_insts=10)), 20)
        lines = [e.line_addr for e in events]
        assert lines == list(range(20))
        validate(events)

    def test_stream_wraps_at_footprint(self):
        events = take(stream(SyntheticSpec(footprint_lines=4)), 10)
        assert [e.line_addr for e in events][:8] == [0, 1, 2, 3, 0, 1, 2, 3][:8]

    def test_uniform_random_spread(self):
        events = take(uniform_random(SyntheticSpec(seed=3)), 300)
        lines = {e.line_addr for e in events}
        assert len(lines) > 290  # essentially no repeats in a 256 MB space
        validate(events)

    def test_strided_stride(self):
        events = take(strided(SyntheticSpec(), stride_lines=16), 5)
        lines = [e.line_addr for e in events]
        assert lines == [0, 16, 32, 48, 64]

    def test_strided_validation(self):
        with pytest.raises(ValueError):
            take(strided(SyntheticSpec(), stride_lines=0), 1)

    def test_pointer_chase_gaps_exceed_rob(self):
        events = take(pointer_chase(SyntheticSpec(gap_insts=5)), 10)
        gaps = [b.inst - a.inst for a, b in zip(events, events[1:])]
        assert all(g >= 400 for g in gaps)
        assert all(e.kind is TraceKind.READ for e in events)

    def test_write_fraction(self):
        spec = SyntheticSpec(write_fraction=0.5, seed=11)
        events = take(stream(spec), 400)
        writes = sum(1 for e in events if e.kind is TraceKind.WRITE)
        assert 120 < writes < 280

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(gap_insts=0)
        with pytest.raises(ValueError):
            SyntheticSpec(write_fraction=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(footprint_lines=0)

    def test_registry(self):
        assert set(GENERATORS) == {
            "stream", "uniform_random", "strided", "pointer_chase",
        }

    def test_determinism(self):
        a = take(uniform_random(SyntheticSpec(seed=5)), 50)
        b = take(uniform_random(SyntheticSpec(seed=5)), 50)
        assert a == b


class TestSystemFromTraces:
    def test_custom_trace_run(self):
        config = dataclasses.replace(
            fbdimm_baseline(1), instructions_per_core=3_000
        )
        system = System.from_traces(
            config, [stream(SyntheticSpec(gap_insts=50))], base_ipcs=[2.0],
            labels=["stream"],
        )
        result = system.run()
        assert result.programs == ["stream"]
        assert result.mem.demand_reads > 0

    def test_alignment_validation(self):
        config = fbdimm_baseline(2)
        with pytest.raises(ValueError):
            System.from_traces(config, [stream()], base_ipcs=[2.0])

    def test_default_labels(self):
        config = dataclasses.replace(
            fbdimm_baseline(1), instructions_per_core=1_000
        )
        system = System.from_traces(config, [stream()], base_ipcs=[1.0])
        assert system.programs == ["custom-0"]


class TestTraceIo:
    def events(self):
        return [
            TraceEvent(5, TraceKind.PREFETCH, 100),
            TraceEvent(9, TraceKind.READ, 100),
            TraceEvent(14, TraceKind.WRITE, 200),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = save_trace(path, self.events(), metadata={"program": "swim"})
        assert count == 3
        assert load_trace_list(path) == self.events()
        assert load_trace_metadata(path) == {"program": "swim"}

    def test_lazy_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(path, self.events())
        iterator = load_trace(path)
        assert next(iterator).inst == 5

    def test_order_violation_detected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"version": 1, "meta": {}}\n'
            '{"i": 9, "k": "r", "a": 1}\n'
            '{"i": 9, "k": "r", "a": 2}\n'
        )
        with pytest.raises(ValueError, match="order"):
            load_trace_list(path)

    def test_unknown_kind_detected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"version": 1, "meta": {}}\n{"i": 9, "k": "x", "a": 1}\n'
        )
        with pytest.raises(ValueError, match="kind"):
            load_trace_list(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 99, "meta": {}}\n')
        with pytest.raises(ValueError, match="version"):
            load_trace_list(path)
        with pytest.raises(ValueError, match="version"):
            load_trace_metadata(path)

    @pytest.mark.parametrize("text, line, reason", [
        ('["version", 1]\n', 1, "header must be a JSON object"),
        ("{version: 1}\n", 1, "header is not valid JSON"),
        ('{"version": 1, "meta": [1]}\n', 1,
         "header meta must be a JSON object"),
        ('{"version": 1}\n{"i": 9, "k": "r"\n', 2, "record is not valid JSON"),
        ('{"version": 1}\n[9, "r", 1]\n', 2, "record must be a JSON object"),
        ('{"version": 1}\n{"k": "r", "a": 1}\n', 2, "'i' must be an integer"),
        ('{"version": 1}\n{"i": "9", "k": "r", "a": 1}\n', 2,
         "'i' must be an integer"),
        ('{"version": 1}\n{"i": 9, "k": "r"}\n', 2, "'a' must be an integer"),
        ('{"version": 1}\n{"i": 9, "k": "r", "a": 1.5}\n', 2,
         "'a' must be an integer"),
    ], ids=["header-array", "header-not-json", "meta-array",
            "record-not-json", "record-array", "no-i", "i-not-int", "no-a",
            "a-not-int"])
    def test_malformed_input_names_its_line(self, tmp_path, text, line,
                                            reason):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        where = re.escape(f"{path}:{line}: {reason}")
        with pytest.raises(ValueError, match=f"^{where}"):
            load_trace_list(path)
        if line == 1:
            with pytest.raises(ValueError, match=f"^{where}"):
                load_trace_metadata(path)

    def test_replay_through_system(self, tmp_path):
        """Saved traces drive a run identically to the live generator."""
        from repro.workloads.spec import make_trace
        from repro.workloads.trace import record

        events = record(make_trace("vpr", seed=1), 400)
        path = tmp_path / "vpr.jsonl"
        save_trace(path, events)
        config = dataclasses.replace(
            fbdimm_baseline(1), instructions_per_core=2_000
        )
        live = System.from_traces(config, [iter(events)], base_ipcs=[1.2]).run()
        replay = System.from_traces(config, [load_trace(path)], base_ipcs=[1.2]).run()
        assert live.elapsed_ps == replay.elapsed_ps
        assert live.mem.demand_reads == replay.mem.demand_reads


class TestTableExport:
    def table(self):
        t = ResultTable(title="demo", columns=["name", "value"])
        t.add(name="a", value=1.5)
        t.add(name="b", value=2.0)
        return t

    def test_csv(self):
        text = to_csv(self.table())
        lines = text.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "a,1.5"

    def test_markdown(self):
        text = to_markdown(self.table())
        assert "### demo" in text
        assert "| name | value |" in text
        assert "| a | 1.500 |" in text

    def test_write_files(self, tmp_path):
        write_csv(self.table(), tmp_path / "t.csv")
        write_markdown(self.table(), tmp_path / "t.md")
        assert (tmp_path / "t.csv").read_text().startswith("name,value")
        assert (tmp_path / "t.md").read_text().startswith("### demo")
