"""Tier-1 tests for what ``repro.bench`` still holds.

* :func:`repro.bench.schema.validate_bench`, the version-1 BENCH
  validator that ``perfbench/suite.py validate`` applies to version-1
  documents: every break it must flag, on a minimal inline document;
* ``repro bench profile --flame``: the written file round-trips through
  :func:`repro.engine.profiler.parse_collapsed`, and a path it cannot
  write exits 2;
* the package passes the determinism lint.
"""

import copy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.schema import validate_bench

ROOT = Path(__file__).resolve().parent.parent


def _stat(value):
    return {"mean": value, "ci95": [value, value], "samples": [value]}


def v1_doc():
    """The smallest valid version-1 document: one scenario, one trial."""
    return {
        "format": "repro-bench",
        "version": 1,
        "index": 5,
        "machine": {"python": "3.11.7"},
        "harness": {"instructions": 2000, "seed": 12345, "trials": 1,
                    "warmup": 0},
        "scenarios": {
            "a": {
                "events": 1000,
                "requests": 100,
                "simulated_ps": 10_000,
                "trials": 1,
                "metrics": {"sum_ipc": 1.5},
                "events_per_s": _stat(5000.0),
                "requests_per_s": _stat(500.0),
                "wall_s": _stat(0.2),
            },
        },
    }


class TestSchema:
    def test_built_doc_is_valid(self):
        assert validate_bench(v1_doc()) == []

    @pytest.mark.parametrize(
        "mutate, problem",
        [
            (lambda d: d.pop("format"), "format"),
            (lambda d: d.update(version=99), "version"),
            (lambda d: d.update(index=-1), "index"),
            (lambda d: d.pop("machine"), "machine"),
            (lambda d: d["harness"].pop("trials"), "harness.trials"),
            (lambda d: d.update(scenarios={}), "scenarios"),
            (lambda d: d["scenarios"]["a"].update(events=-1), "events"),
            (lambda d: d["scenarios"]["a"].pop("wall_s"), "wall_s"),
            (
                lambda d: d["scenarios"]["a"]["events_per_s"].update(
                    ci95=[2.0, 1.0]
                ),
                "ci95",
            ),
            (
                lambda d: d["scenarios"]["a"]["events_per_s"].update(
                    samples=[]
                ),
                "samples",
            ),
        ],
    )
    def test_validate_flags_each_break(self, mutate, problem):
        doc = copy.deepcopy(v1_doc())
        mutate(doc)
        problems = validate_bench(doc)
        assert problems, f"expected a problem mentioning {problem}"
        assert any(problem in p for p in problems)

    @pytest.mark.parametrize("doc", [[], "BENCH", 1, None])
    def test_non_object_document_is_a_problem(self, doc):
        assert validate_bench(doc) == ["document is not a JSON object"]


class TestCli:
    def test_validate_rejects_corrupt_file(self, tmp_path):
        """``perfbench/suite.py validate`` hands a version-1 document to
        validate_bench and exits 1 on the problems it returns."""
        path = tmp_path / "BENCH_9.json"
        path.write_text('{"format": "wrong", "version": 1}')
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "suite.py"),
             "validate", str(path)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "INVALID" in proc.stdout
        assert "format: expected 'repro-bench'" in proc.stdout

    def test_main_parser_routes_bench(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["bench", "profile", "--flame", "out.folded", "--top", "5"]
        )
        assert args.bench_command == "profile"
        assert (args.flame, args.top) == ("out.folded", 5)

    def test_main_parser_run_profile_flag(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        assert parser.parse_args(["run"]).profile is None
        assert parser.parse_args(["run", "--profile"]).profile == 15
        assert parser.parse_args(["run", "--profile", "5"]).profile == 5


class TestProfileFlame:
    def test_flame_file_round_trips(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.engine.profiler import parse_collapsed

        path = tmp_path / "run.folded"
        assert main(["bench", "profile", "--flame", str(path), "--insts", "2000"]) == 0
        stacks = parse_collapsed(path.read_text(encoding="utf-8"))
        assert stacks and all(value > 0 for _frames, value in stacks)
        assert f"flame stacks -> {path}" in capsys.readouterr().out

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "missing-dir" / "run.folded"
        assert main(["bench", "profile", "--flame", str(path), "--insts", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not path.exists()


class TestClockIsolation:
    def test_bench_package_passes_determinism_lint(self):
        from repro.check.lint import LintEngine, get_rule, repro_source_root
        from repro.check.lint.rules.determinism import RULE_IDS

        engine = LintEngine([get_rule(rule_id) for rule_id in RULE_IDS])
        findings = engine.lint_paths([repro_source_root() / "bench"])
        assert findings == [], [f.format() for f in findings]
