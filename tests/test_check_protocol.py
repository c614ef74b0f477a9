"""Protocol checker: rules, self-test suite, JSONL round-trip, CLI."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.check.protocol import (
    ProtocolChecker,
    ProtocolViolationError,
    Violation,
    check_trace,
    journals_clean,
)
from repro.check.selftest import cases, run_self_test
from repro.check.trace import (
    CheckEvent,
    TraceParams,
    default_params,
    event_journals,
    event_to_record,
    load_events,
    record_to_event,
    save_events,
)

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

    def test_every_rule_has_a_case_the_journal_audit_flags(self):
        flagged = set()
        for case in cases():
            events = sorted(case.events, key=lambda e: e.time_ps)
            if not journals_clean(case.params, *event_journals(events)):
                flagged.update(case.expect_rules)
        assert flagged == RULES


class TestJournalAudit:
    """The two cases the audit leaves to the replay, which finds them
    clean here: the audit errs only toward replaying."""

    def test_bank_log_out_of_time_order(self):
        params = default_params("fbdimm")
        case = {c.name: c for c in cases()}["good-close-page-read"]
        events = sorted(case.events, key=lambda e: e.time_ps)
        assert journals_clean(params, *event_journals(events))
        assert not journals_clean(params, *event_journals(events[::-1]))
        assert ProtocolChecker(params).check(events) == []

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
        replayed = ProtocolChecker(params).check(
            sorted(log_order, key=lambda e: e.time_ps))
        assert [v.rule for v in replayed] == ["tRPD"]
        assert not journals_clean(params, *event_journals(log_order))

    def test_rd_and_wr_of_one_rank_at_one_instant(self):
        """The replay takes the RD first (journal order), so the WR's data
        end does not bind it; a write latency short enough to keep the
        bursts apart leaves no other rule broken."""
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
        assert ProtocolChecker(params).check(events) == []
        assert not journals_clean(params, *event_journals(events))

    def test_unknown_memory_kind_is_replayed(self):
        bad = TraceParams(kind="ddr5", timing=default_params().timing)
        assert not journals_clean(bad, [], [])


class TestCheckerBasics:
    def test_unsorted_trace_rejected(self):
        params = default_params("fbdimm")
        events = [
            CheckEvent(1000, "ACT", dimm=0, rank=0, bank=0, row=1),
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=1, row=1),
        ]
        with pytest.raises(ValueError, match="not time-sorted"):
            ProtocolChecker(params).check(events)

    def test_unknown_kind_rejected(self):
        params = default_params("fbdimm")
        bad = TraceParams(kind="ddr5", timing=params.timing)
        with pytest.raises(ValueError, match="ddr5"):
            ProtocolChecker(bad)

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

    def test_unknown_event_kind_rejected_at_dispatch(self):
        params = default_params("fbdimm")
        with pytest.raises(ValueError, match="unknown check-event kind 'NOP'"):
            ProtocolChecker(params).check([CheckEvent(0, "NOP")])

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
            Violation(rule="tRCD", time_ps=i, message=f"v{i}") for i in range(15)
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
            params, events = load_events(path)
            assert params == case.params
            assert events == sorted(case.events, key=lambda e: e.time_ps)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 99, "params": {}}\n')
        with pytest.raises(ValueError, match="version"):
            load_events(path)

    def test_bad_event_kind_located(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_events(path, default_params("fbdimm"), [])
        with path.open("a") as fh:
            fh.write('{"t": 0, "c": "NOP"}\n')
        with pytest.raises(ValueError, match=":2"):
            load_events(path)


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

    def test_unknown_kind_is_located(self, tmp_path):
        self._expect_located(tmp_path, [
            self._header(), '{"t": 0, "c": "SB_CMD"}', '{"t": 0, "c": "NOP"}',
        ], 3, "unknown check-event kind 'NOP'")
