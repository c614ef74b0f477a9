"""Additional coverage: experiment CLI, validation drivers, warmup in
multi-core mixes, and cross-feature combinations."""

import dataclasses

import pytest

from repro.analysis.interference import per_core_breakdown
from repro.config import (
    AmbPrefetchConfig,
    PrefetchLocation,
    ddr2_baseline,
    ddr3_memory_overrides,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.experiments.__main__ import EXPERIMENTS, main as experiments_main
from repro.experiments.runner import ExperimentContext
from repro.experiments import validation
from repro.system import run_system


class TestExperimentsCli:
    def test_registry_covers_every_figure(self):
        expected = {f"fig{n:02d}" for n in range(4, 14)}
        assert expected <= set(EXPERIMENTS)
        for extra in ("latency", "ablations", "location", "hwprefetch",
                      "validation"):
            assert extra in EXPERIMENTS

    def test_latency_via_cli(self, capsys):
        assert experiments_main(["latency"]) == 0
        out = capsys.readouterr().out
        assert "63.000" in out
        assert "33.000" in out

    def test_quick_flag_accepted(self, capsys):
        assert experiments_main(["fig09", "--quick", "--insts", "4000"]) == 0
        assert "decomposition" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            experiments_main(["fig99"])

    def test_jobs_below_one_rejected(self, capsys):
        assert experiments_main(["latency", "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --jobs must be >= 1, got 0"]

    def test_progress_line_counts_the_render_loop_only(self, monkeypatch,
                                                       capsys):
        """A slow up-front prefetch does not inflate the ETA, and each
        line counts its own experiment's fresh runs, not the total."""
        import types

        import repro.experiments.__main__ as cli

        clock = [0.0]
        monkeypatch.setattr(cli, "time",
                            types.SimpleNamespace(time=lambda: clock[0]))

        def prefetch(ctx, pairs):
            clock[0] += 1000.0
            return {"fresh": 0, "disk": 0}

        def experiment(ctx):
            clock[0] += 1.0
            ctx.fresh_runs += 2
            return []

        monkeypatch.setattr(ExperimentContext, "prefetch", prefetch)
        monkeypatch.setattr(cli, "EXPERIMENTS",
                            {"a": experiment, "b": experiment, "c": experiment})
        monkeypatch.setattr(cli, "PLANS", dict.fromkeys("abc", lambda ctx: [0]))
        assert cli.main(["all", "--no-cache"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[") and "fresh runs" in line]
        assert lines == [
            "[a: 1.0s, 2 fresh runs, ETA ~2s for 2 more]",
            "[b: 1.0s, 2 fresh runs, ETA ~1s for 1 more]",
            "[c: 1.0s, 2 fresh runs]",
        ]

    @pytest.mark.parametrize("argv", [
        ["fig04", "--quick", "--insts", "0"],
        ["fig04", "--quick", "--cache-dir", "/dev/null/x"],
        ["fig04", "--quick", "--no-cache", "--export", "/dev/null/x"],
    ], ids=" ".join)
    def test_bad_input_fails_before_any_run(self, argv, capsys):
        assert experiments_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestValidationDrivers:
    def test_saturation_table_shape(self):
        table = validation.run_saturation(ExperimentContext(instructions=6_000))
        assert table.column("stream_cores") == [1, 2, 4, 8]
        for row in table.rows:
            assert 0 < row["peak_fraction"] <= 1.0

    def test_saturation_stays_under_the_northbound_peak(self):
        """Read-only streams use only the northbound links, so no row may
        exceed their peak (the 8-core row sits within 1% of it).  On DDR2
        they share each channel's one data bus, so no row may exceed the
        bus peak."""
        memory = fbdimm_baseline().memory
        # 8 B per transfer on one northbound link per physical channel.
        peak = 8 * memory.data_rate_mts / 1000.0 * memory.physical_channels
        assert peak == pytest.approx(memory.peak_bandwidth_gbs() / 1.5)
        table = validation.run_saturation(ExperimentContext(instructions=5_000))
        for row in table.rows:
            assert row["bandwidth_gbs"] <= peak, row
        assert table.rows[-1]["bandwidth_gbs"] >= 0.95 * peak

        ddr2 = ddr2_baseline()
        for cores in (1, 2, 4, 8):
            bandwidth, _ = validation._run_streams(
                ddr2, cores, gap_insts=12, instructions=5_000)
            assert 0 < bandwidth <= ddr2.memory.peak_bandwidth_gbs(), (cores, bandwidth)

    def test_pointer_chase_idle(self):
        table = validation.run_pointer_chase(ExperimentContext(instructions=6_000))
        assert 63.0 <= table.rows[0]["latency_ns"] <= 69.0


class TestWarmupMulticore:
    def test_warmup_in_a_mix(self):
        config = dataclasses.replace(
            fbdimm_baseline(2),
            instructions_per_core=10_000,
            warmup_instructions=4_000,
        )
        result = run_system(config, ["swim", "vpr"])
        assert result.warmup_time_ps > 0
        # Per-core interference stats reflect only the measured window.
        rows = per_core_breakdown(result)
        assert sum(r.demand_reads for r in rows) == result.mem.demand_reads

    def test_warmup_with_mc_prefetch_location(self):
        prefetch = AmbPrefetchConfig(location=PrefetchLocation.CONTROLLER)
        config = dataclasses.replace(
            fbdimm_amb_prefetch(1, prefetch=prefetch),
            instructions_per_core=10_000,
            warmup_instructions=3_000,
        )
        result = run_system(config, ["swim"])
        assert result.mem.prefetched_lines >= 0
        assert result.prefetch_coverage > 0


class TestFeatureCombinations:
    def test_ddr3_with_refresh_and_ap(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(1, **ddr3_memory_overrides(1066)),
            instructions_per_core=6_000,
        ).with_memory(refresh_interval_ns=7_800.0, **ddr3_memory_overrides(1066))
        result = run_system(config, ["swim"])
        assert result.prefetch_coverage > 0.2

    def test_multirank_with_ap(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(1), instructions_per_core=6_000
        ).with_memory(
            ranks_per_dimm=2,
            interleave=fbdimm_amb_prefetch(1).memory.interleave,
            prefetch=fbdimm_amb_prefetch(1).memory.prefetch,
        )
        result = run_system(config, ["swim"])
        assert result.prefetch_coverage > 0.2

    def test_vrl_with_mc_prefetch(self):
        prefetch = AmbPrefetchConfig(location=PrefetchLocation.CONTROLLER)
        config = dataclasses.replace(
            fbdimm_amb_prefetch(
                1, prefetch=prefetch, variable_read_latency=True
            ),
            instructions_per_core=6_000,
        )
        result = run_system(config, ["swim"])
        assert result.mem.demand_reads > 0

    def test_hw_prefetch_with_ap_and_sw(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(1).with_cpu(hw_prefetch_degree=2),
            instructions_per_core=8_000,
        )
        result = run_system(config, ["swim"])
        hw_issued = result.core_stats[0].hw_prefetches_issued
        assert hw_issued >= 0  # coexists without deadlock
        assert result.core_instructions == [8_000]
