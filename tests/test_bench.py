"""Tier-1 tests for ``repro.bench``: stats, harness, schema, compare, report.

The acceptance behaviours pinned here:

* ``repro bench run --quick`` (exercised through one real scenario at tiny
  scale plus synthetic scenarios for the rest) emits a schema-valid BENCH
  document whose scenarios carry events/sec mean + 95% bootstrap CI;
* comparing a BENCH file against itself exits 0;
* comparing against a hand-degraded copy (-20% throughput) exits nonzero
  with a readable diff;
* wall-clock access stays quarantined in ``repro.bench.clock`` (the
  determinism lint covers the rest of the package).
"""

import copy
import json

import pytest

from repro.bench.compare import NOISE_CAP, compare_docs
from repro.bench.harness import HarnessConfig, run_scenario, run_suite, stat_of
from repro.bench.report import render_report, trajectory
from repro.bench.scenarios import (
    SCENARIOS,
    Prepared,
    Scenario,
    ScenarioRun,
    resolve_scenarios,
)
from repro.bench.schema import (
    build_bench_doc,
    list_bench_files,
    load_bench,
    machine_fingerprint,
    next_bench_index,
    save_bench,
    validate_bench,
)
from repro.bench.stats import bootstrap_ci, detect_warmup, mean, relative_width


# ----------------------------------------------------------------------
# Synthetic scenarios: deterministic counts, controllable wall time
# ----------------------------------------------------------------------


def fake_scenario(name="fake", events=1000, requests=100, nondet=False):
    state = {"calls": 0}

    def prepare(instructions, seed):
        def run():
            state["calls"] += 1
            bump = state["calls"] if nondet else 0
            return ScenarioRun(
                events=events + bump,
                requests=requests,
                simulated_ps=10_000,
                metrics={"sum_ipc": 1.5},
            )

        return Prepared(run=run)

    return Scenario(name=name, description="synthetic", prepare=prepare)


def quick_config(**overrides):
    defaults = dict(
        instructions=2000, trials=3, warmup=1, bootstrap_resamples=100
    )
    defaults.update(overrides)
    return HarnessConfig(**defaults)


class TestStats:
    def test_bootstrap_ci_brackets_mean_and_is_deterministic(self):
        samples = [10.0, 11.0, 9.5, 10.5, 10.2]
        lo, hi = bootstrap_ci(samples, resamples=500, seed=0)
        assert lo <= mean(samples) <= hi
        assert (lo, hi) == bootstrap_ci(samples, resamples=500, seed=0)

    def test_bootstrap_ci_single_sample_degenerates(self):
        assert bootstrap_ci([7.0]) == (7.0, 7.0)

    def test_bootstrap_ci_rejects_empty(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_detect_warmup_drops_cold_leading_samples(self):
        # First trial 3x slower than steady state: clearly cold.
        walls = [3.0, 1.0, 1.02, 0.98, 1.01]
        assert detect_warmup(walls, tolerance=0.10) == 1

    def test_detect_warmup_keeps_stable_series(self):
        walls = [1.0, 1.01, 0.99, 1.02]
        assert detect_warmup(walls, tolerance=0.10) == 0

    def test_detect_warmup_respects_max_drop(self):
        walls = [5.0, 4.0, 3.0, 1.0]
        assert detect_warmup(walls, tolerance=0.05, max_drop=2) <= 2

    def test_relative_width(self):
        assert relative_width(90.0, 110.0, 100.0) == pytest.approx(0.2)
        assert relative_width(0.0, 0.0, 0.0) == 0.0


class TestHarness:
    def test_run_scenario_shapes_and_determinism_fields(self):
        result = run_scenario(fake_scenario(), quick_config())
        assert result.events == 1000
        assert result.requests == 100
        assert result.trials >= 2
        assert result.warmup_dropped >= 1
        lo, hi = result.events_per_s.ci95
        assert 0 < lo <= result.events_per_s.mean <= hi
        assert len(result.events_per_s.samples) == result.trials
        assert result.metrics == {"sum_ipc": 1.5}

    def test_nondeterministic_scenario_aborts(self):
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_scenario(fake_scenario(nondet=True), quick_config())

    def test_cleanup_runs_even_on_failure(self):
        cleaned = []

        def prepare(instructions, seed):
            def run():
                raise RuntimeError("boom")

            return Prepared(run=run, cleanup=lambda: cleaned.append(True))

        scenario = Scenario(name="x", description="", prepare=prepare)
        with pytest.raises(RuntimeError, match="boom"):
            run_scenario(scenario, quick_config())
        assert cleaned == [True]

    def test_quick_config_caps(self):
        quick = HarnessConfig(instructions=40_000, trials=5).quick()
        assert quick.instructions <= 8_000
        assert quick.trials <= 3
        assert quick.warmup == 1

    def test_real_scenario_smoke(self):
        # One genuine simulator scenario at tiny scale: the integration
        # seam between scenarios and the system factory.
        scenario = resolve_scenarios(["ddr2-1ch"])[0]
        result = run_scenario(
            scenario, quick_config(instructions=1500, trials=2)
        )
        assert result.events > 0
        assert result.requests > 0
        assert result.simulated_ps > 0
        assert result.metrics["sum_ipc"] > 0

    def test_resolve_scenarios(self):
        assert [s.name for s in resolve_scenarios([])] == list(SCENARIOS)
        assert [s.name for s in resolve_scenarios(["all"])] == list(SCENARIOS)
        assert [s.name for s in resolve_scenarios(["fbd-4ch", "ddr2-1ch"])] == [
            "fbd-4ch", "ddr2-1ch"
        ]
        with pytest.raises(KeyError, match="unknown scenario"):
            resolve_scenarios(["nope"])


@pytest.fixture
def bench_doc():
    results = run_suite(
        [fake_scenario("a"), fake_scenario("b", events=2000)], quick_config()
    )
    return build_bench_doc(
        results, quick_config(), index=5, quick=True,
        timestamp="2026-01-01T00:00:00+00:00",
    )


class TestSchema:
    def test_built_doc_is_valid(self, bench_doc):
        assert validate_bench(bench_doc) == []
        assert bench_doc["format"] == "repro-bench"
        assert bench_doc["index"] == 5
        assert set(bench_doc["scenarios"]) == {"a", "b"}

    def test_save_load_round_trip(self, bench_doc, tmp_path):
        path = save_bench(tmp_path / "BENCH_5.json", bench_doc)
        assert load_bench(path) == json.loads(path.read_text())

    def test_save_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError, match="refusing to write"):
            save_bench(tmp_path / "BENCH_5.json", {"format": "nope"})

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
    def test_validate_flags_each_break(self, bench_doc, mutate, problem):
        doc = copy.deepcopy(bench_doc)
        mutate(doc)
        problems = validate_bench(doc)
        assert problems, f"expected a problem mentioning {problem}"
        assert any(problem in p for p in problems)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text("not json")
        with pytest.raises(ValueError, match="not readable as JSON"):
            load_bench(path)

    def test_list_bench_files_sorted(self, bench_doc, tmp_path):
        for index in (10, 2, 5):
            doc = copy.deepcopy(bench_doc)
            doc["index"] = index
            save_bench(tmp_path / f"BENCH_{index}.json", doc)
        (tmp_path / "BENCH_x.json").write_text("{}")  # name mismatch: skipped
        assert [i for i, _ in list_bench_files(tmp_path)] == [2, 5, 10]
        assert next_bench_index(tmp_path) == 11

    def test_next_bench_index_starts_at_one(self, tmp_path):
        assert next_bench_index(tmp_path) == 1


def degrade(doc, factor=0.8):
    """A copy of ``doc`` with throughput scaled by ``factor``."""
    out = copy.deepcopy(doc)
    for block in out["scenarios"].values():
        for key in ("events_per_s", "requests_per_s"):
            stat = block[key]
            stat["mean"] *= factor
            stat["ci95"] = [v * factor for v in stat["ci95"]]
            stat["samples"] = [v * factor for v in stat["samples"]]
    return out


class TestCompare:
    def test_self_compare_is_clean(self, bench_doc):
        comparison = compare_docs(bench_doc, bench_doc)
        assert comparison.exit_code == 0
        assert comparison.findings == []
        assert "OK: no regressions" in comparison.format()

    def test_twenty_percent_drop_gates(self, bench_doc):
        comparison = compare_docs(bench_doc, degrade(bench_doc, 0.8))
        assert comparison.exit_code == 1
        assert len(comparison.regressions) == 4  # 2 scenarios x 2 stats
        text = comparison.format()
        assert "REGRESSION" in text and "-20.0%" in text and "FAIL" in text

    def test_noise_cap_cannot_hide_large_drop(self, bench_doc):
        # Blow the baseline CI wide open; the cap must still gate -20%.
        noisy = copy.deepcopy(bench_doc)
        for block in noisy["scenarios"].values():
            stat = block["events_per_s"]
            stat["ci95"] = [stat["mean"] * 0.1, stat["mean"] * 3.0]
        comparison = compare_docs(noisy, degrade(noisy, 1 - NOISE_CAP - 0.05))
        assert any(
            f.metric == "events_per_s" for f in comparison.regressions
        )

    def test_improvement_is_not_a_regression(self, bench_doc):
        comparison = compare_docs(bench_doc, degrade(bench_doc, 1.5))
        assert comparison.exit_code == 0
        assert len(comparison.improvements) == 4

    def test_cross_machine_throughput_is_advisory(self, bench_doc):
        other = degrade(bench_doc, 0.5)
        other["machine"] = dict(other["machine"], node="elsewhere")
        comparison = compare_docs(bench_doc, other)
        assert comparison.exit_code == 0
        assert not comparison.same_machine
        assert any(f.kind == "warning" for f in comparison.findings)
        # --strict restores gating.
        assert compare_docs(bench_doc, other, strict=True).exit_code == 1

    def test_event_count_drift_warns_then_gates_with_strict(self, bench_doc):
        drifted = copy.deepcopy(bench_doc)
        drifted["scenarios"]["a"]["events"] += 1
        comparison = compare_docs(bench_doc, drifted)
        assert comparison.exit_code == 0
        assert any(
            f.kind == "warning" and f.metric == "events"
            for f in comparison.findings
        )
        strict = compare_docs(bench_doc, drifted, strict_events=True)
        assert strict.exit_code == 1

    def test_scenario_set_changes_reported(self, bench_doc):
        trimmed = copy.deepcopy(bench_doc)
        trimmed["scenarios"]["c"] = trimmed["scenarios"].pop("a")
        comparison = compare_docs(bench_doc, trimmed)
        kinds = {(f.scenario, f.kind) for f in comparison.findings}
        assert ("a", "warning") in kinds  # missing in new
        assert ("c", "note") in kinds  # new, no baseline
        assert comparison.exit_code == 0

    def test_markdown_report_renders(self, bench_doc):
        text = compare_docs(bench_doc, degrade(bench_doc)).to_markdown()
        assert "| scenario | metric |" in text and "FAIL" in text


class TestReport:
    def test_trajectory_and_dashboard(self, bench_doc, tmp_path):
        save_bench(tmp_path / "BENCH_5.json", bench_doc)
        later = degrade(bench_doc, 1.1)
        later["index"] = 6
        save_bench(tmp_path / "BENCH_6.json", later)
        series = trajectory(tmp_path)
        assert [i for i, _ in series["a"]] == [5, 6]
        text = render_report(tmp_path)
        assert "BENCH_5" in text and "BENCH_6" in text
        assert "+10.0%" in text  # delta vs previous point
        assert "latest metrics" in text
        markdown = render_report(tmp_path, markdown=True)
        assert "| bench |" in markdown

    def test_empty_directory_message(self, tmp_path):
        assert "no BENCH_<n>.json" in render_report(tmp_path)


class TestCli:
    def test_validate_compare_report_end_to_end(self, bench_doc, tmp_path, capsys):
        from repro.bench.cli import main

        old = tmp_path / "BENCH_5.json"
        save_bench(old, bench_doc)
        bad = tmp_path / "BENCH_6.json"
        save_bench(bad, dict(degrade(bench_doc, 0.7), index=6))

        assert main(["validate", str(old)]) == 0
        assert main(["compare", str(old), str(old)]) == 0
        report = tmp_path / "diff.md"
        assert main(
            ["compare", str(old), str(bad), "--report", str(report)]
        ) == 1
        assert "FAIL" in report.read_text()
        assert main(["report", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "performance trajectory" in out

    def test_default_run_writes_next_index_and_keeps_existing(
        self, bench_doc, tmp_path, monkeypatch
    ):
        from repro.bench import cli

        originals = {}
        for index in (5, 8):
            path = save_bench(
                tmp_path / f"BENCH_{index}.json", dict(bench_doc, index=index)
            )
            originals[path] = path.read_bytes()
        monkeypatch.setattr(
            cli, "run_suite",
            lambda scenarios, config: run_suite([fake_scenario("a")], config),
        )
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--quick", "--no-heartbeat"]) == 0
        assert load_bench(tmp_path / "BENCH_9.json")["index"] == 9
        for path, content in originals.items():
            assert path.read_bytes() == content

    def test_validate_rejects_corrupt_file(self, tmp_path, capsys):
        from repro.bench.cli import main

        path = tmp_path / "BENCH_9.json"
        path.write_text('{"format": "wrong"}')
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_main_parser_routes_bench(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["bench", "compare", "a.json", "b.json", "--strict"]
        )
        assert args.bench_command == "compare"
        assert args.strict is True

    def test_main_parser_run_profile_flag(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        assert parser.parse_args(["run"]).profile is None
        assert parser.parse_args(["run", "--profile"]).profile == 15
        assert parser.parse_args(["run", "--profile", "5"]).profile == 5


class TestClockIsolation:
    def test_bench_package_passes_determinism_lint(self):
        from repro.check.lint import LintEngine, get_rule, repro_source_root
        from repro.check.lint.rules.determinism import RULE_IDS

        engine = LintEngine([get_rule(rule_id) for rule_id in RULE_IDS])
        findings = engine.lint_paths([repro_source_root() / "bench"])
        assert findings == [], [f.format() for f in findings]
