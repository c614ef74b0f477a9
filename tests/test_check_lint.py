"""Engine-level tests for :mod:`repro.check.lint`: the rule registry,
suppression comments, the baseline workflow, the JSON report schema, CLI
exit codes, and the on-disk deliberately-broken fixtures.

The per-rule positive/negative coverage lives in the golden self-test
suite (``repro.check.lint.selftest``, run by ``test_self_test_is_green``
and in CI via ``python -m repro.check --self-test``); this file tests the
framework around the rules.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.check.lint.baseline import (
    BASELINE_VERSION,
    diff_against_baseline,
    load_baseline,
    report_payload,
    save_baseline,
)
from repro.check.lint.cli import main as lint_main
from repro.check.lint.core import (
    Finding,
    LintEngine,
    ProjectRule,
    SEVERITIES,
    all_rules,
    get_rule,
    module_rel_for,
)
from repro.check.lint.selftest import run_self_test

EXPECTED_RULE_IDS = {
    # determinism (ported from PR-1 unchanged)
    "wall-clock", "unseeded-random", "set-iteration", "float-time",
    # unit-flow
    "unit-mix", "unit-return",
    # shared state
    "worker-shared-state",
    # strict typing
    "untyped-def",
}

FIXTURES = Path(__file__).parent / "lint_fixtures" / "broken_project"


def lint_texts(*files):
    """Run ALL rules over in-memory (module_rel, source) pairs."""
    return LintEngine().lint_sources(list(files))


class TestRegistry:
    def test_catalogue_contains_every_family(self):
        assert {rule.id for rule in all_rules()} == EXPECTED_RULE_IDS

    def test_rules_sorted_and_described(self):
        rules = all_rules()
        assert [r.id for r in rules] == sorted(r.id for r in rules)
        for rule in rules:
            assert rule.description, rule.id
            assert rule.severity in SEVERITIES

    def test_get_rule_roundtrip(self):
        assert get_rule("unit-mix").id == "unit-mix"

    def test_get_rule_unknown(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            get_rule("no-such-rule")

    def test_project_rules_are_marked(self):
        project = {r.id for r in all_rules() if isinstance(r, ProjectRule)}
        assert project == {"worker-shared-state"}


class TestSuppression:
    WALL = ("engine/mod.py", "import time\nx = time.time()\n")

    def test_unsuppressed_finding(self):
        findings = lint_texts(self.WALL)
        assert [f.rule for f in findings] == ["wall-clock"]
        assert findings[0].format().endswith(
            f"[wall-clock] {findings[0].message}")

    def test_bare_ignore_silences_everything(self):
        findings = lint_texts((
            "engine/mod.py",
            "import time\nx = time.time()  # repro: ignore\n",
        ))
        assert findings == []

    def test_targeted_ignore_silences_only_that_rule(self):
        findings = lint_texts((
            "engine/mod.py",
            "import time\nx = time.time()  # repro: ignore[unit-mix]\n",
        ))
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_comma_separated_ids(self):
        findings = lint_texts((
            "engine/mod.py",
            "import time\n"
            "x = time.time()  # repro: ignore[unit-mix, wall-clock]\n",
        ))
        assert findings == []

    def test_legacy_det_allow_still_works_for_determinism_rules(self):
        # The retired `# det: allow` marker no longer silences a
        # determinism rule; its sites now use the targeted spelling.
        retired = lint_texts((
            "engine/mod.py",
            "import time\nx = time.time()  # det: allow\n",
        ))
        assert [f.rule for f in retired] == ["wall-clock"]
        rewritten = lint_texts((
            "engine/mod.py",
            "import time\nx = time.time()  # repro: ignore[wall-clock]\n",
        ))
        assert rewritten == []

    def test_legacy_det_allow_does_not_cover_new_rules(self):
        findings = lint_texts((
            "engine/mod.py",
            "total_ps = delay_ps + gap_ns  # det: allow\n",
        ))
        assert [f.rule for f in findings] == ["unit-mix"]


class TestBaseline:
    def findings(self):
        return [
            Finding("src/a.py", 3, "wall-clock", "time.time()"),
            Finding("src/a.py", 9, "unit-mix", "ps + ns"),
        ]

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, self.findings())
        loaded = load_baseline(path)
        assert loaded == Counter({
            ("src/a.py", "wall-clock", "time.time()"): 1,
            ("src/a.py", "unit-mix", "ps + ns"): 1,
        })

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_baseline(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="unsupported version"):
            load_baseline(path)

    def test_entry_missing_key_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION, "findings": [{"path": "a"}]}
        ))
        with pytest.raises(ValueError, match="missing"):
            load_baseline(path)

    def test_diff_matches_ignoring_line_numbers(self):
        moved = [Finding("src/a.py", 77, "wall-clock", "time.time()")]
        baseline = Counter({("src/a.py", "wall-clock", "time.time()"): 1})
        new, stale = diff_against_baseline(moved, baseline)
        assert new == [] and stale == []

    def test_diff_is_multiset_aware(self):
        twice = [
            Finding("src/a.py", 3, "wall-clock", "time.time()"),
            Finding("src/a.py", 8, "wall-clock", "time.time()"),
        ]
        baseline = Counter({("src/a.py", "wall-clock", "time.time()"): 1})
        new, stale = diff_against_baseline(twice, baseline)
        assert [f.line for f in new] == [8]  # second occurrence still gates
        assert stale == []

    def test_diff_reports_stale_entries(self):
        baseline = Counter({("src/gone.py", "wall-clock", "time.time()"): 1})
        new, stale = diff_against_baseline([], baseline)
        assert new == []
        assert stale == [("src/gone.py", "wall-clock", "time.time()")]

    def test_report_payload_schema(self):
        findings = self.findings()
        payload = report_payload(
            findings, findings[:1],
            [("src/old.py", "unit-mix", "gone")],
            [("wall-clock", "error", "no wall clocks")],
        )
        assert set(payload) == {
            "version", "rules", "findings", "new_findings",
            "stale_baseline", "summary",
        }
        assert payload["version"] == BASELINE_VERSION
        assert payload["rules"]["wall-clock"] == {
            "severity": "error", "description": "no wall clocks",
        }
        assert all(
            set(record) == {"path", "line", "rule", "severity", "message"}
            for record in payload["findings"]
        )
        assert payload["summary"] == {
            "total": 2, "new": 1, "stale_baseline": 1,
            "by_severity": {"error": 2},
        }


class TestCliExitCodes:
    """End-to-end through ``python -m repro.check lint`` argument parsing."""

    def write(self, tmp_path, rel, source):
        # A `repro/` anchor directory makes module_rel_for scope the file
        # exactly like an installed package module.
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return path

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        self.write(tmp_path, "engine/ok.py", "WINDOW_PS = 5\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 new error(s)" in capsys.readouterr().out

    def test_error_finding_exits_one(self, tmp_path, capsys):
        self.write(tmp_path, "engine/clock.py",
                   "import time\nnow = time.time()\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "[wall-clock]" in capsys.readouterr().out

    def test_warning_findings_do_not_gate(self, tmp_path, capsys):
        self.write(
            tmp_path, "engine/ret.py",
            "def frame_gap_ps(delay_ns: int) -> int:\n    return delay_ns\n",
        )
        assert lint_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[unit-return]" in out
        assert "1 new warning(s)" in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--rules", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        self.write(tmp_path, "engine/ok.py", "WINDOW_PS = 5\n")
        bad = tmp_path / "baseline.json"
        bad.write_text("{nope")
        assert lint_main([str(tmp_path), "--baseline", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_baseline_workflow(self, tmp_path, capsys):
        path = self.write(tmp_path, "engine/clock.py",
                          "import time\nnow = time.time()\n")
        baseline = tmp_path / "baseline.json"
        # 1. Accept the current findings.
        assert lint_main(
            [str(tmp_path), "--write-baseline", str(baseline)]
        ) == 0
        # 2. Baselined findings no longer gate (and are marked as such).
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0
        assert "(baselined)" in capsys.readouterr().out
        # 3. A fresh finding still gates.
        self.write(tmp_path, "engine/clock2.py",
                   "import time\nlater = time.time()\n")
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 1
        # 4. Fixing the baselined file leaves a stale entry, which gates
        #    too — the baseline must never rot.
        path.write_text("WINDOW_PS = 5\n")
        (tmp_path / "repro" / "engine" / "clock2.py").unlink()
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_rule_selection(self, tmp_path, capsys):
        self.write(tmp_path, "engine/two.py",
                   "import time\nnow = time.time()\n\n\ndef f(x):\n"
                   "    return x\n")
        assert lint_main(
            [str(tmp_path), "--rules", "untyped-def", "--json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["untyped-def"]
        assert list(payload["rules"]) == ["untyped-def"]

    def test_json_out_schema(self, tmp_path, capsys):
        self.write(tmp_path, "engine/clock.py",
                   "import time\nnow = time.time()\n")
        out = tmp_path / "report.json"
        assert lint_main([str(tmp_path), "--json-out", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "version", "rules", "findings", "new_findings",
            "stale_baseline", "summary",
        }
        assert payload["summary"]["total"] == 1
        assert payload["new_findings"] == payload["findings"]

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_RULE_IDS:
            assert rule_id in out

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        self.write(tmp_path, "engine/broken.py", "def f(:\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "[syntax-error]" in capsys.readouterr().out


class TestOnDiskFixtures:
    """The deliberately-broken tree under tests/lint_fixtures."""

    #: module-relative path -> rule ids the engine must report there.
    EXPECTED = {
        "engine/units.py": {"unit-mix"},
        "engine/clock.py": {"wall-clock"},
        "engine/broken.py": {"syntax-error"},
        "channel/ret.py": {"unit-return"},
        "dram/rng.py": {"unseeded-random"},
        "dram/div.py": {"float-time"},
        "analysis/iter.py": {"set-iteration"},
        "power/untyped.py": {"untyped-def"},
        "state.py": {"worker-shared-state"},
        "experiments/parallel.py": set(),
    }

    def test_fixture_tree_matches_expectations(self):
        files = sorted(FIXTURES.rglob("*.py"))
        assert {
            str(p.relative_to(FIXTURES).as_posix()) for p in files
        } == set(self.EXPECTED), "fixture tree and EXPECTED diverged"
        pairs = [
            (str(p.relative_to(FIXTURES).as_posix()), p.read_text())
            for p in files
        ]
        findings = LintEngine().lint_sources(pairs)
        by_file = {rel: set() for rel in self.EXPECTED}
        for finding in findings:
            by_file[finding.path].add(finding.rule)
        assert by_file == self.EXPECTED

    def test_repo_gate_skips_the_fixture_tree(self):
        findings = LintEngine().lint_paths([Path(__file__).parent])
        assert not any("lint_fixtures" in f.path for f in findings)


def test_self_test_is_green():
    count, failures = run_self_test()
    assert failures == []
    assert count >= 30
