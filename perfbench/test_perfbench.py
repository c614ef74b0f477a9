"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The smoke tests run every workload at 2 000 instructions per core, so
the whole file takes well under a minute on two CPUs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import suite
from ledger import BENCH_DIR, LAYER_OF, ROOT, WORKLOADS, load_spec, quartiles

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SMOKE = ["--seconds", "0.01", "--insts", "2000"]


def _run(*args: str, cwd: Path = ROOT, bench: Path = BENCH_DIR) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    return load_spec()


class TestDeclaration:
    def test_names_are_plain(self, spec: dict) -> None:
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[section]:
                assert NAME.match(entry["name"]), entry["name"]

    def test_workloads_match_the_ledger(self, spec: dict) -> None:
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    def test_bounds_keep_the_issue_limits(self, spec: dict) -> None:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())
        assert all(b <= 0.10 for name, b in bounds.items() if name != "setup_s")

    def test_every_repro_package_has_a_layer(self) -> None:
        entries = {
            p.name for p in (ROOT / "src" / "repro").iterdir()
            if (p.is_dir() and (p / "__init__.py").is_file()) or p.suffix == ".py"
        }
        assert entries - set(LAYER_OF) == set()

    def test_unmapped_layer_fails_the_traced_trial(self) -> None:
        traced = {"digest": "d", "identity": {}, "invariant_failures": [],
                  "unmapped": ["newpkg"]}
        problems = run.check_trials([traced], None, None)
        assert len(problems) == 1 and "src/repro/newpkg" in problems[0]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_matches_the_declaration(workload: str, trace: int, spec: dict) -> None:
    proc = _run("--workload", workload, "--trace", str(trace), *SMOKE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    units = {m["name"]: m["unit"] for m in spec[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _copy_benchmark(into: Path) -> None:
    """BENCHMARK.json and perfbench/ alone, as a checkout without src/."""
    shutil.copytree(BENCH_DIR, into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", into)


def test_wrong_pinned_digest_fails_the_run(tmp_path: Path) -> None:
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench" / "digests.json").write_text(
        json.dumps({"7": {"ddr2-4c": "0" * 64}}))
    proc = _run("--workload", "ddr2-4c", "--seed", "7", "--seconds", "0.01",
                cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode == 1
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "!= pinned" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    _copy_benchmark(tmp_path)
    proc = _run("--workload", "ddr2-4c", "--seconds", "1", cwd=tmp_path,
                bench=tmp_path / "perfbench")
    assert proc.returncode == 2
    assert proc.stdout == ""


class TestDocument:
    def _doc(self, spec: dict) -> dict:
        samples = [1.0, 2.0, 4.0]
        q1, median, q3 = quartiles(samples)
        metric = {"unit": "s", "median": median, "q1": q1, "q3": q3,
                  "samples": samples, "n": 3}
        return {
            "format": "repro-bench", "version": 2, "machine": {"cpus": 2},
            "seed": 12345,
            "workloads": {"ddr2-4c": {
                "attempted": 3, "failed": 0,
                "end_to_end": {m["name"]: dict(metric) for m in spec["end_to_end"]},
                "per_layer": {},
            }},
        }

    def test_round_trip(self, spec: dict, tmp_path: Path) -> None:
        doc = self._doc(spec)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        again = json.loads(path.read_text())
        assert again == doc and suite.validate_v2(again, spec) == []
        assert suite.main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("breakage", [
        lambda d: d.update(version=3),
        lambda d: d.pop("workloads"),
        lambda d: d["workloads"].update(nosuch={}),
        lambda d: d["workloads"]["ddr2-4c"]["end_to_end"].pop("wall_s"),
        lambda d: d["workloads"]["ddr2-4c"]["end_to_end"]["wall_s"].update(n=4),
        lambda d: d["workloads"]["ddr2-4c"]["end_to_end"]["wall_s"].update(median=9.0),
        lambda d: d["workloads"]["ddr2-4c"]["end_to_end"]["wall_s"].update(samples=[]),
        lambda d: d["workloads"]["ddr2-4c"].update(failed=-1),
        lambda d: d["workloads"]["ddr2-4c"].update(per_layer={"engine.calls": 1}),
    ])
    def test_malformed_is_rejected(self, spec: dict, breakage, tmp_path: Path) -> None:
        doc = self._doc(spec)
        breakage(doc)
        assert suite.validate_v2(doc, spec)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert suite.main(["validate", str(path)]) == 1

    def test_committed_baseline_is_valid(self, spec: dict) -> None:
        doc = json.loads((BENCH_DIR / "baseline.json").read_text())
        assert suite.validate_v2(doc, spec) == []
        assert set(doc["workloads"]) == set(WORKLOADS)


class TestVerdict:
    def test_regression_beyond_the_bound(self) -> None:
        assert suite.verdict("lower", 0.1, [1.0, 1.0, 1.01], [1.2, 1.2, 1.2],
                             paired=False) == "regression"

    def test_noisy_base_is_unresolved(self) -> None:
        assert suite.verdict("lower", 0.1, [1.0, 1.5, 0.7, 1.3], [1.05] * 4,
                             paired=False) == "unresolved"

    def test_gain_needs_nine_of_ten_wins_and_a_gap(self) -> None:
        base = [1.0 + 0.001 * i for i in range(10)]
        assert suite.verdict("lower", 0.1, base, [b - 0.2 for b in base],
                             paired=True) == "gain"
        mixed = [b - 0.2 for b in base[:8]] + [b + 0.01 for b in base[8:]]
        assert suite.verdict("lower", 0.1, base, mixed, paired=True) == "no-regression"

    def test_identical_runs_are_no_regression(self) -> None:
        assert suite.verdict("higher", 0.03, [5.9] * 10, [5.9] * 10,
                             paired=True) == "no-regression"
