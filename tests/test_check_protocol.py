"""Protocol checker: rules, self-test suite, JSONL round-trip, CLI."""

import json
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.check.protocol import (
    ProtocolViolationError,
    Violation,
    check_journals,
    check_trace,
)
from repro.check.selftest import cases, run_self_test
from repro.check.trace import (
    CheckEvent,
    TraceParams,
    default_params,
    event_journals,
    event_to_record,
    journal_events,
    load_journals,
    record_to_event,
    save_events,
)
from repro.config import fbdimm_amb_prefetch
from repro.dram.commands import MID_MASK, MID_SHIFT, TIME_LIMIT

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Every rule id the module docstring of ``repro.check.protocol`` lists.
RULES = {
    "tRCD", "tRAS", "tRPD", "tWPD", "tRP", "tRC", "row-state", "tRRD",
    "tWTR", "tFAW", "burst-overlap", "bus-turnaround", "frame-align",
    "frame-overcommit", "frame-reuse", "retry-budget",
}


class TestSelfTestSuite:
    def test_all_cases_pass(self):
        count, failures = run_self_test()
        assert count >= 13
        assert failures == []

    def test_every_rule_has_a_seeded_case(self):
        seeded = set()
        for case in cases():
            seeded.update(case.expect_rules)
        assert seeded == RULES

    def test_every_rule_reports_its_location(self):
        """Each rule family reports at its own level: a bank, a rank, a
        bus (the channel on DDR2, the DIMM on FB-DIMM) or a link."""
        shapes = {
            rule: r"ch0\.dimm0\.rank\d\.bank\d" for rule in (
                "row-state", "tRCD", "tRAS", "tRPD", "tWPD", "tRP", "tRC")
        }
        shapes.update({rule: r"ch0\.dimm0\.rank0"
                       for rule in ("tRRD", "tFAW", "tWTR")})
        shapes.update({"bus-turnaround": "ch0",
                       "frame-overcommit": r"ch0\.southbound",
                       "frame-reuse": r"ch0\.northbound",
                       "retry-budget": r"ch0\.southbound",
                       "frame-align": r"ch0\.(south|north)bound"})
        seen = set()
        for case in cases():
            for violation in check_trace(case.params, case.events):
                if violation.rule == "burst-overlap":
                    shape = ("ch0" if case.params.kind == "ddr2"
                             else r"ch0\.dimm0")
                else:
                    shape = shapes[violation.rule]
                assert re.fullmatch(shape, violation.location), violation
                assert violation.location in violation.format()
                seen.add(violation.rule)
        assert seen == RULES


class TestJournalAudit:
    """Orders and ties: no report depends on the order of records in a
    journal."""

    def test_bank_log_out_of_time_order(self):
        """An out-of-order log reports what its time-sorted form does."""
        params = default_params("fbdimm")
        case = {c.name: c for c in cases()}["good-close-page-read"]
        events = sorted(case.events, key=lambda e: e.time_ps)
        assert check_journals(params, *event_journals(events)) == []
        assert check_journals(params, *event_journals(events[::-1])) == []
        bad = {c.name: c for c in cases()}["bad-trcd"]
        assert check_trace(bad.params, bad.events[::-1]) == check_trace(
            bad.params, bad.events)

    def test_time_order_decides_a_bank_rule(self):
        """In log order the PRE follows the last RD by more than tRPD; in
        time order the later RD is the last, and tRPD breaks."""
        params = default_params("fbdimm")
        t = params.timing
        log_order = [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRAS, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRCD, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRAS + t.tRPD - 1, "PRE", dimm=0, rank=0, bank=0,
                       row=5),
        ]
        report = check_journals(params, *event_journals(log_order))
        assert [(v.rule, v.time_ps, v.location) for v in report] == [
            ("tRPD", t.tRAS + t.tRPD - 1, "ch0.dimm0.rank0.bank0")]
        assert report == check_trace(
            params, sorted(log_order, key=lambda e: e.time_ps))

    def test_commands_at_one_instant_of_one_bank(self):
        """Records at one instant are taken ACT, RD, WR, PRE, whatever
        their log order: an ACT logged after its RD still opens the row."""
        params = replace(default_params("fbdimm"),
                         timing=replace(default_params().timing, tRCD=0))
        events = [
            CheckEvent(0, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(params.timing.tRAS, "PRE", dimm=0, rank=0, bank=0,
                       row=5),
        ]
        assert check_trace(params, events) == []

    def test_rd_and_wr_of_one_rank_at_one_instant(self):
        """tWTR binds a RD that comes strictly after a WR of its rank, so
        a WR at the RD's own instant does not; a write latency short
        enough to keep the bursts apart leaves no other rule broken."""
        params = default_params("fbdimm")
        t = replace(params.timing, tWL=0)
        params = replace(params, timing=t)
        events = [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(0 + t.tRRD, "ACT", dimm=0, rank=0, bank=1, row=5),
            CheckEvent(t.tRRD + t.tRCD, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRRD + t.tRCD, "WR", dimm=0, rank=0, bank=1, row=5),
            CheckEvent(2 * t.tRAS, "PRE", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(2 * t.tRAS, "PRE", dimm=0, rank=0, bank=1, row=5),
        ]
        assert check_trace(params, events) == []
        # One picosecond later the RD is inside the WR's window.
        late = [e._replace(time_ps=e.time_ps + 1) if e.kind == "RD" else e
                for e in events]
        assert [v.rule for v in check_trace(params, late)] == ["tWTR"]

    def test_unknown_memory_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown memory kind 'ddr5'"):
            TraceParams(kind="ddr5", timing=default_params().timing)


class TestCheckerBasics:
    def test_unsorted_trace_reports_as_sorted(self):
        params = default_params("fbdimm")
        events = [
            CheckEvent(1000, "ACT", dimm=0, rank=0, bank=0, row=1),
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=1, row=1),
        ]
        report = check_trace(params, events)
        assert [(v.rule, v.time_ps, v.location) for v in report] == [
            ("tRRD", 1000, "ch0.dimm0.rank0")]
        assert report == check_trace(params, events[::-1])

    @pytest.mark.parametrize("change, field", [
        (dict(kind="ddr5"), "kind"),
        (dict(frame_ps=0), "frame_ps"),
        (dict(frame_ps=-5), "frame_ps"),
        (dict(nb_phase_ps=-1), "nb_phase_ps"),
        (dict(nb_phase_ps=6000), "nb_phase_ps"),
        (dict(switch_gap_ps=-1), "switch_gap_ps"),
        (dict(max_retries=-1), "max_retries"),
        (dict(banks_per_dimm=0), "banks_per_dimm"),
    ])
    def test_params_validated_at_construction(self, change, field):
        params = default_params("fbdimm")
        assert params.frame_ps == 6000
        with pytest.raises(ValueError, match=field if field != "kind"
                           else "unknown memory kind"):
            replace(params, **change)

    def test_negative_timing_rejected(self):
        params = default_params("ddr2")
        with pytest.raises(ValueError, match="timing.tRCD"):
            replace(params, timing=replace(params.timing, tRCD=-15000))

    def test_banks_and_channels_are_independent(self):
        """The same instant on different channels/banks never conflicts."""
        params = default_params("fbdimm")
        t = params.timing
        events = sorted(
            [
                CheckEvent(0, "ACT", channel=ch, dimm=0, rank=0, bank=0, row=5)
                for ch in range(2)
            ]
            + [
                CheckEvent(t.tRCD, "RD", channel=ch, dimm=0, rank=0, bank=0, row=5)
                for ch in range(2)
            ]
            + [
                CheckEvent(t.tRAS, "PRE", channel=ch, dimm=0, rank=0, bank=0, row=5)
                for ch in range(2)
            ],
            key=lambda e: e.time_ps,
        )
        assert check_trace(params, events) == []

    def test_unknown_event_kind_rejected(self):
        params = default_params("fbdimm")
        with pytest.raises(ValueError, match="unknown check-event kind 'NOP'"):
            check_trace(params, [CheckEvent(0, "NOP")])

    def test_event_is_a_plain_tuple(self):
        event = CheckEvent(5, "ACT", dimm=0, rank=1, bank=2, row=3)
        assert event == (5, "ACT", 0, 0, 1, 2, 3, 1, 0)
        assert hash(event) == hash((5, "ACT", 0, 0, 1, 2, 3, 1, 0))
        assert CheckEvent._field_defaults == {
            "channel": 0, "dimm": -1, "rank": -1, "bank": -1, "row": -1,
            "frames": 1, "retry": 0,
        }
        with pytest.raises(AttributeError):
            event.row = 4  # type: ignore[misc]

    def test_violation_error_formats_and_truncates(self):
        violations = [
            Violation(rule="tRCD", time_ps=i, location="ch0.dimm0.rank0.bank0",
                      message=f"v{i}")
            for i in range(15)
        ]
        err = ProtocolViolationError(violations)
        text = str(err)
        assert "15 protocol violation(s)" in text
        assert "... and 5 more" in text
        assert err.violations is violations


class TestTraceIo:
    def test_round_trip_all_selftest_cases(self, tmp_path):
        for case in cases():
            path = tmp_path / f"{case.name}.jsonl"
            written = save_events(path, case.params, case.events)
            assert written == len(case.events)
            params, banks, links = load_journals(path)
            assert params == case.params
            assert sorted(journal_events(banks, links)) == sorted(case.events)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 99, "params": {}}\n')
        with pytest.raises(ValueError, match="version"):
            load_journals(path)

    def test_bad_event_kind_located(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_events(path, default_params("fbdimm"), [])
        with path.open("a") as fh:
            fh.write('{"t": 0, "c": "NOP"}\n')
        with pytest.raises(ValueError, match=":2"):
            load_journals(path)


#: DRAM commands no default FB-DIMM channel (4 banks per rank) has.
OUT_OF_GEOMETRY = [
    ("bank 9", dict(bank=9)),
    ("bank -2", dict(bank=-2)),
    ("bank 4", dict(bank=4)),
    ("channel -1", dict(channel=-1)),
    ("dimm -1", dict(dimm=-1)),
    ("rank -1", dict(rank=-1)),
]


def _act_rd_pre(**where):
    """An in-spec ACT/RD/PRE sequence, moved to ``where``."""
    place = dict(dict(channel=0, dimm=0, rank=0, bank=1), **where)
    return [CheckEvent(0, "ACT", row=5, **place),
            CheckEvent(15_000, "RD", row=5, **place),
            CheckEvent(45_000, "PRE", row=5, **place)]


class TestGeometry:
    """A DRAM command must name a bank, rank, DIMM and channel the trace's
    geometry has."""

    def test_in_geometry_sequence_is_clean(self):
        assert check_trace(default_params("fbdimm"), _act_rd_pre()) == []

    @pytest.mark.parametrize("name, where", OUT_OF_GEOMETRY,
                             ids=[name for name, _ in OUT_OF_GEOMETRY])
    def test_check_trace_rejects(self, name, where):
        with pytest.raises(ValueError, match="outside the trace's geometry"):
            check_trace(default_params("fbdimm"), _act_rd_pre(**where))

    @pytest.mark.parametrize("name, where", OUT_OF_GEOMETRY,
                             ids=[name for name, _ in OUT_OF_GEOMETRY])
    def test_load_events_locates_the_line(self, tmp_path, name, where):
        path = tmp_path / "trace.jsonl"
        save_events(path, default_params("fbdimm"),
                    [CheckEvent(0, "SB_CMD")] + _act_rd_pre(**where))
        with pytest.raises(ValueError) as info:
            load_journals(path)
        assert str(info.value).startswith(f"{path}:3: ACT at ")
        assert "outside the trace's geometry (4 banks per rank)" \
            in str(info.value)

    def test_frame_events_carry_no_location(self):
        params = default_params("fbdimm")
        params.check_location(CheckEvent(0, "NB_LINE", frames=2))


#: Events with one value that no journal field holds, the message
#: naming it, and the CLI line of it.
UNFIT = [
    ("row", CheckEvent(0, "ACT", dimm=0, rank=0, bank=1, row=1 << MID_SHIFT),
     f"ACT row {1 << MID_SHIFT} does not fit its journal field"),
    ("row -1", CheckEvent(0, "RD", dimm=0, rank=0, bank=1),
     "RD row -1 does not fit its journal field"),
    ("frames", CheckEvent(0, "NB_LINE", frames=MID_MASK + 1),
     f"NB_LINE frames {MID_MASK + 1} does not fit its journal field"),
    ("frames -1", CheckEvent(0, "NB_LINE", frames=-1),
     "NB_LINE frames -1 does not fit its journal field"),
    ("retry", CheckEvent(0, "SB_CMD", retry=1 << MID_SHIFT),
     f"SB_CMD retry {1 << MID_SHIFT} does not fit its journal field"),
    ("nb retry", CheckEvent(0, "NB_LINE", frames=2, retry=-1),
     "NB_LINE retry -1 does not fit its journal field"),
    ("time", CheckEvent(TIME_LIMIT, "SB_DATA"),
     f"SB_DATA start {TIME_LIMIT} does not fit its journal field"),
    ("time -1", CheckEvent(-1, "PRE", dimm=0, rank=0, bank=1, row=5),
     "PRE time_ps -1 does not fit its journal field"),
]


class TestJournalFields:
    """Every event becomes one packed journal int: a value that does not
    fit its field is rejected, never wrapped into the next one."""

    @pytest.mark.parametrize("name, event, message", UNFIT,
                             ids=[name for name, _, _ in UNFIT])
    def test_check_trace_rejects(self, name, event, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_trace(default_params("fbdimm"), [event])

    @pytest.mark.parametrize("name, event, message", UNFIT,
                             ids=[name for name, _, _ in UNFIT])
    def test_load_events_locates_the_line(self, tmp_path, name, event,
                                          message):
        path = tmp_path / "trace.jsonl"
        save_events(path, default_params("fbdimm"),
                    [CheckEvent(0, "SB_CMD"), event])
        with pytest.raises(ValueError) as info:
            load_journals(path)
        assert str(info.value).startswith(f"{path}:3: {message}")

    def test_largest_values_round_trip(self):
        events = [
            CheckEvent(TIME_LIMIT - 1, "WR", 0, 0, 0, 1, (1 << MID_SHIFT) - 1),
            CheckEvent(TIME_LIMIT - 1, "SB_DATA", retry=(1 << MID_SHIFT) - 1),
            CheckEvent(TIME_LIMIT - 1, "NB_LINE", frames=MID_MASK,
                       retry=(1 << MID_SHIFT) - 1),
        ]
        assert journal_events(*event_journals(events)) == events


class TestRecordValidation:
    def test_round_trip_elides_defaults(self):
        event = CheckEvent(7, "NB_LINE", channel=1, frames=2, retry=1)
        record = event_to_record(event)
        assert record == {"t": 7, "c": "NB_LINE", "ch": 1, "n": 2, "rt": 1}
        assert record_to_event(record) == event

    def test_extra_keys_ignored(self):
        assert record_to_event({"type": "cmd", "t": 0, "c": "SB_CMD"}) == (
            CheckEvent(0, "SB_CMD")
        )

    @pytest.mark.parametrize("record, message", [
        ([0, "ACT"], "must be a JSON object"),
        ({"c": "ACT"}, "no 't'"),
        ({"t": 0}, "no 'c'"),
        ({"t": 0, "c": "NOP"}, "unknown check-event kind 'NOP'"),
        ({"t": "zero", "c": "ACT"}, "'t' must be an integer"),
        ({"t": 0, "c": "ACT", "row": 1.5}, "'row' must be an integer"),
        ({"t": 0, "c": "ACT", "b": True}, "'b' must be an integer"),
    ])
    def test_bad_records_rejected(self, record, message):
        with pytest.raises(ValueError, match=message):
            record_to_event(record)

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: [d], "params must be a JSON object"),
        (lambda d: {k: v for k, v in d.items() if k != "timing"},
         "missing field"),
        (lambda d: dict(d, timing=None), "params.timing must be a JSON object"),
        (lambda d: dict(d, timing=dict(d["timing"], tRP="x")),
         "params.timing.tRP must be an integer"),
        (lambda d: dict(d, frame_ps=1.5), "params.frame_ps must be an integer"),
        (lambda d: dict(d, bogus=1), "unknown field"),
        (lambda d: dict(d, kind="ddr5"), "unknown memory kind 'ddr5'"),
    ])
    def test_bad_params_rejected(self, mutate, message):
        with pytest.raises(ValueError, match=message):
            TraceParams.from_dict(mutate(default_params("fbdimm").to_dict()))


class TestOfflineLoad:
    """``python -m repro.check <trace>`` loads a file straight into journals:
    each record is placed in the geometry and packed exactly once."""

    def test_each_record_is_located_and_packed_once(self, tmp_path, capsys):
        from repro.check.__main__ import main
        from repro.system import System

        config = replace(fbdimm_amb_prefetch(num_cores=1),
                         instructions_per_core=2_000, check_protocol=True)
        machine = System(config, ["swim"])
        machine.run()
        events = machine.controller.collect_check_events()
        assert any(e.is_dram_command for e in events)
        assert any(not e.is_dram_command for e in events)
        path = tmp_path / "run.jsonl"
        records = save_events(path, machine.controller.check_params(), events)
        calls = Counter()

        def count(frame, event, _arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(count)
        try:
            status = main([str(path)])
        finally:
            sys.setprofile(None)
        assert status == 0, capsys.readouterr()
        assert f"OK ({records} events, fbdimm)" in capsys.readouterr().out
        assert calls["check_location"] == records
        assert calls["pack_record"] == records


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.check", *args],
            capture_output=True, text=True, env={"PYTHONPATH": SRC, "PATH": ""},
        )

    def test_self_test_exit_zero(self):
        proc = self._run("--self-test")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 failure(s)" in proc.stdout

    def test_clean_and_bad_traces(self, tmp_path):
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        by_name = {c.name: c for c in cases()}
        ok = by_name["good-close-page-read"]
        ko = by_name["bad-trcd"]
        save_events(good, ok.params, ok.events)
        save_events(bad, ko.params, ko.events)

        proc = self._run(str(good))
        assert proc.returncode == 0
        assert "OK" in proc.stdout

        proc = self._run(str(good), str(bad))
        assert proc.returncode == 1
        assert "tRCD" in proc.stdout

    def test_missing_trace_is_usage_error(self, tmp_path):
        proc = self._run(str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2

    def test_no_arguments_is_usage_error(self):
        proc = self._run()
        assert proc.returncode == 2

    def test_audit_configs_clean(self):
        proc = self._run("--audit-configs")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "ddr2_baseline: OK" in proc.stdout

    def test_lint_flags_wall_clock(self, tmp_path):
        victim = tmp_path / "victim.py"
        victim.write_text("import time\n\nstart = time.time()\n")
        proc = self._run("lint", str(victim))
        assert proc.returncode == 1
        assert "wall-clock" in proc.stdout

    def _header(self) -> str:
        return json.dumps(
            {"version": 1, "params": default_params("fbdimm").to_dict()}
        )

    def _expect_located(self, tmp_path, lines, line_no, message):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        proc = self._run(str(path))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"{path}:{line_no}: ")
        assert message in proc.stderr
        return proc

    def test_non_integer_time_is_usage_error(self, tmp_path):
        self._expect_located(tmp_path, [
            self._header(),
            '{"t": "zero", "c": "ACT", "ch": 0, "d": 0, "r": 0, "b": 2, '
            '"row": 17}',
        ], 2, "'t' must be an integer")

    def test_list_header_is_usage_error(self, tmp_path):
        self._expect_located(tmp_path, ['[1, 2]', '{"t": 0, "c": "SB_CMD"}'],
                             1, "header must be a JSON object")

    def test_header_without_timing_is_usage_error(self, tmp_path):
        params = default_params("fbdimm").to_dict()
        del params["timing"]
        self._expect_located(tmp_path, [
            json.dumps({"version": 1, "params": params}),
            '{"t": 0, "c": "SB_CMD"}',
        ], 1, "missing field(s) timing")

    def test_malformed_record_line_is_located(self, tmp_path):
        self._expect_located(tmp_path, [
            self._header(), '{"t": 0, "c": "SB_CMD"}', '{"t": 6000,',
        ], 3, "not valid JSON")

    def test_bank_outside_geometry_is_usage_error(self, tmp_path):
        self._expect_located(tmp_path, [
            self._header(), '{"t": 0, "c": "SB_CMD"}',
            '{"t": 3000, "c": "ACT", "ch": 0, "d": 0, "r": 0, "b": 9, '
            '"row": 17}',
        ], 3, "ACT at ch0.dimm0.rank0.bank9 lies outside the trace's "
              "geometry")
        proc = self._run(str(tmp_path / "trace.jsonl"))
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("record, message", [
        ('{"t": 3000, "c": "ACT", "ch": 0, "d": 0, "r": 0, "b": 1, '
         f'"row": {1 << MID_SHIFT}}}', "ACT row"),
        ('{"t": 3000, "c": "NB_LINE", "n": 64}', "NB_LINE frames 64"),
        (f'{{"t": 3000, "c": "SB_CMD", "rt": {1 << MID_SHIFT}}}',
         "SB_CMD retry"),
    ], ids=["row", "frames", "retry"])
    def test_value_past_its_journal_field_is_usage_error(self, tmp_path,
                                                         record, message):
        proc = self._expect_located(tmp_path, [
            self._header(), '{"t": 0, "c": "SB_CMD"}', record,
        ], 3, f"{message} ")
        assert "does not fit its journal field" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("header, message", [
        ({"nonsense": 1}, "header: unknown field(s) nonsense"),
        ({"params": dict(default_params("fbdimm").to_dict(), nonsense=1)},
         "params: unknown field(s) nonsense"),
    ], ids=["header", "params"])
    def test_unknown_header_key_is_usage_error(self, tmp_path, header,
                                               message):
        full = dict({"version": 1, "params": default_params("fbdimm").to_dict()},
                    **header)
        self._expect_located(tmp_path, [
            json.dumps(full), '{"t": 0, "c": "SB_CMD"}',
        ], 1, message)

    def test_unknown_kind_is_located(self, tmp_path):
        self._expect_located(tmp_path, [
            self._header(), '{"t": 0, "c": "SB_CMD"}', '{"t": 0, "c": "NOP"}',
        ], 3, "unknown check-event kind 'NOP'")

    @pytest.mark.parametrize("change, field", [
        (dict(frame_ps=-5), "frame_ps"),
        (dict(timing=dict(default_params().timing.__dict__, tRCD=-15000)),
         "timing.tRCD"),
    ])
    def test_invalid_header_value_is_usage_error(self, tmp_path, change,
                                                 field):
        """A header value no channel has fails at line 1, naming the field,
        before any record is checked."""
        params = dict(default_params("fbdimm").to_dict(), **change)
        self._expect_located(tmp_path, [
            json.dumps({"version": 1, "params": params}),
            '{"t": 0, "c": "SB_CMD"}',
        ], 1, field)
        proc = self._run(str(tmp_path / "trace.jsonl"))
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
