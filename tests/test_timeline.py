"""Timeline and per-command energy tests.

Covers the windowed telemetry layer end to end: golden Micron datasheet
energies, the Figure 13 compatibility contract (per-command model ==
the frozen aggregate model in ``_legacy_power`` on refresh-free runs),
window-edge semantics on a
stub schedule, the conservation invariant and zero-overhead guard on
real runs, JSONL/CSV round-trips, phase detection, diffing, the
``repro timeline`` CLI, and the WindowRecord counter-drift lint spec.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import TimelineConfig, ddr2_baseline, fbdimm_amb_prefetch, fbdimm_baseline
from repro.engine.simulator import Simulator
from repro.power.ddr2_power import MicronPowerCalculator
from repro.power.energy import (
    CommandEnergyModel,
    EnergyAccountant,
    EnergyBreakdown,
    relative_dynamic_power_from_commands,
)
from repro.serialize import canonical_dumps, encode_value
from repro.stats.collector import MemSystemStats
from repro.system import run_system
from repro.timeline.collector import TimelineCollector, _percentile_ps
from repro.timeline.diff import diff_timelines, format_diff
from repro.timeline.export import (
    WINDOW_FIELDS,
    read_timeline_jsonl,
    timeline_csv_lines,
    validate_timeline,
    write_timeline_jsonl,
)
from repro.timeline.phases import detect_phases
from repro.timeline.records import TimelineResult, WindowRecord
from repro.timeline.report import sparkline, timeline_report
from tests._legacy_power import relative_dynamic_power

INSTS = 5000
PROGRAMS = ("wupwise", "swim")


def _with_insts(config, insts=INSTS):
    return dataclasses.replace(config, instructions_per_core=insts)


@pytest.fixture(scope="module")
def fbd_base_run():
    return run_system(_with_insts(fbdimm_baseline(num_cores=2)), PROGRAMS)


@pytest.fixture(scope="module")
def fbd_ap_run():
    return run_system(_with_insts(fbdimm_amb_prefetch(num_cores=2)), PROGRAMS)


@pytest.fixture(scope="module")
def ap_timeline_run():
    config = _with_insts(fbdimm_amb_prefetch(num_cores=2)).with_timeline(
        window_ns=200.0
    )
    return run_system(config, PROGRAMS)


def stats_with(**kw):
    s = MemSystemStats()
    for key, value in kw.items():
        setattr(s, key, value)
    return s


# ----------------------------------------------------------------------
# Golden datasheet energies
# ----------------------------------------------------------------------


class TestGoldenEnergies:
    """Hand-computed IDD x VDD x t values for the default DDR2-667 part."""

    calc = MicronPowerCalculator()

    def test_act_pre_pair(self):
        # (IDD0 - IDD3N) x VDD x tRC x chips = 40 mA x 1.8 V x 54 ns x 8
        assert self.calc.act_pre_energy_nj() == pytest.approx(31.104)

    def test_column_read(self):
        # (IDD4R - IDD3N) x 0.35 x VDD x burst x chips
        assert self.calc.column_energy_nj() == pytest.approx(8.1648)

    def test_column_write(self):
        assert self.calc.column_energy_nj(is_write=True) == pytest.approx(8.4672)

    def test_act_to_column_ratio_is_papers_four_to_one(self):
        assert self.calc.act_to_column_ratio() == pytest.approx(
            31.104 / 8.1648
        )
        assert 3.5 < self.calc.act_to_column_ratio() < 4.2

    def test_refresh(self):
        # (IDD5 - IDD2N) x VDD x tRFC x chips = 175 mA x 1.8 V x 127.5 ns x 8
        assert self.calc.refresh_energy_nj() == pytest.approx(321.3)

    def test_standby_power(self):
        # IDD2N x VDD x chips = 40 mA x 1.8 V x 8 = 0.576 W per rank
        assert self.calc.standby_power_w() == pytest.approx(0.576)

    def test_powerdown_power(self):
        # IDD2P x VDD x chips = 7 mA x 1.8 V x 8 = 0.1008 W per rank
        assert self.calc.powerdown_power_w() == pytest.approx(0.1008)

    def test_default_refresh_units_match_datasheet_ratio(self):
        computed = self.calc.refresh_energy_nj() / self.calc.column_energy_nj()
        assert CommandEnergyModel().refresh_units == pytest.approx(
            computed, abs=0.01
        )


class TestCommandEnergyModel:
    def test_weighting(self):
        model = CommandEnergyModel()
        assert model.dynamic_energy_units(10, 15, 5, 0) == pytest.approx(60.0)

    def test_refresh_weight(self):
        model = CommandEnergyModel(refresh_units=40.0)
        assert model.dynamic_energy_units(0, 0, 0, 2) == pytest.approx(80.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CommandEnergyModel().dynamic_energy_units(-1, 0, 0, 0)

    def test_matches_aggregate_model_on_refresh_free_counts(self):
        # The compatibility contract: RD + WR == column_accesses and no
        # refreshes make the split model identical to 4*ACT + CAS.
        base = stats_with(
            activates=100, column_accesses=100, column_reads=60,
            column_writes=40,
        )
        ap = stats_with(
            activates=50, column_accesses=120, column_reads=90,
            column_writes=30,
        )
        assert relative_dynamic_power_from_commands(ap, base) == \
            relative_dynamic_power(ap, base)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            relative_dynamic_power_from_commands(
                MemSystemStats(), MemSystemStats()
            )


class TestEnergyAccountant:
    def test_background_splits_awake_and_powerdown(self):
        acct = EnergyAccountant(ranks=2)
        calc = acct.calculator
        breakdown = acct.interval_energy(
            activates=0, column_reads=0, column_writes=0, refreshes=0,
            interval_ps=10_000, powerdown_ps=4_000,
        )
        expected = 2 * (
            calc.standby_power_w() * 6.0 + calc.powerdown_power_w() * 4.0
        )
        assert breakdown.background_nj == pytest.approx(expected)
        assert breakdown.dynamic_nj == 0.0

    def test_dynamic_components(self):
        acct = EnergyAccountant()
        calc = acct.calculator
        b = acct.interval_energy(
            activates=3, column_reads=2, column_writes=1, refreshes=1,
            interval_ps=1_000,
        )
        assert b.act_nj == pytest.approx(3 * calc.act_pre_energy_nj())
        assert b.rd_nj == pytest.approx(2 * calc.column_energy_nj())
        assert b.wr_nj == pytest.approx(calc.column_energy_nj(is_write=True))
        assert b.refresh_nj == pytest.approx(calc.refresh_energy_nj())
        assert b.total_nj == pytest.approx(b.dynamic_nj + b.background_nj)

    def test_powerdown_clamped_to_interval(self):
        acct = EnergyAccountant()
        b = acct.interval_energy(0, 0, 0, 0, interval_ps=1_000,
                                 powerdown_ps=5_000)
        # A gap credited to the window it closes in can exceed the window
        # length; the background split clamps so awake time never goes
        # negative.
        assert b.background_nj == pytest.approx(
            acct.calculator.powerdown_power_w() * 1.0
        )

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            EnergyAccountant().interval_energy(0, 0, 0, 0, interval_ps=-1)

    def test_breakdown_defaults(self):
        assert EnergyBreakdown().total_nj == 0.0


class TestFig13Equivalence:
    """Figure 13's switch to the per-command model changes no numbers."""

    def test_relative_power_identical_on_real_runs(
        self, fbd_base_run, fbd_ap_run
    ):
        old = relative_dynamic_power(fbd_ap_run.mem, fbd_base_run.mem)
        new = relative_dynamic_power_from_commands(
            fbd_ap_run.mem, fbd_base_run.mem
        )
        assert new == old  # bit-exact, not approx

    def test_contract_preconditions_hold(self, fbd_base_run, fbd_ap_run):
        for result in (fbd_base_run, fbd_ap_run):
            mem = result.mem
            assert mem.column_reads + mem.column_writes == mem.column_accesses
            assert mem.refreshes == 0


# ----------------------------------------------------------------------
# Window-edge semantics on a stub schedule
# ----------------------------------------------------------------------


def make_collector(window_ns=1.0, max_windows=100_000, device=None):
    sim = Simulator()
    stats = MemSystemStats()
    config = TimelineConfig(
        enabled=True, window_ns=window_ns, max_windows=max_windows
    )
    counters = device if device is not None else {}
    collector = TimelineCollector(
        sim=sim,
        stats=stats,
        config=config,
        accountant=EnergyAccountant(),
        device_counters=lambda: dict(counters),
        queue_depth=lambda: 0,
    )
    return sim, stats, collector


def complete_read(stats, latency_ps=63_000):
    stats.record_read_completion(
        latency_ps, 0, is_demand=True, amb_hit=False, line_bytes=64
    )


class TestWindowEdges:
    def test_requires_enabled_config(self):
        with pytest.raises(ValueError, match="enabled"):
            TimelineCollector(
                sim=Simulator(),
                stats=MemSystemStats(),
                config=TimelineConfig(),
                accountant=EnergyAccountant(),
                device_counters=dict,
                queue_depth=lambda: 0,
            )

    def test_double_start_rejected(self):
        sim, _, collector = make_collector()
        collector.start()
        with pytest.raises(RuntimeError):
            collector.start()

    def test_boundary_tie_lands_in_next_window(self):
        # The tick is scheduled at start(); an event sharing its timestamp
        # was scheduled later, so the tick fires first and the completion
        # counts in the *next* window (half-open [start, end)).
        sim, stats, collector = make_collector(window_ns=1.0)
        collector.start()
        sim.schedule(1000, lambda: complete_read(stats))
        sim.run(until=2500)
        timeline = collector.finalize(sim.now)
        assert [w.demand_reads for w in timeline.windows] == [0, 1, 0]
        assert [(w.start_ps, w.end_ps) for w in timeline.windows] == [
            (0, 1000), (1000, 2000), (2000, 2500),
        ]

    def test_zero_length_final_window_never_emitted(self):
        sim, stats, collector = make_collector(window_ns=1.0)
        collector.start()
        sim.schedule(500, lambda: complete_read(stats))
        sim.run(until=2000)
        timeline = collector.finalize(sim.now)  # ends exactly on a boundary
        assert len(timeline.windows) == 2
        assert timeline.windows[-1].end_ps == 2000
        assert validate_timeline(timeline) == []

    def test_final_partial_window(self):
        sim, stats, collector = make_collector(window_ns=1.0)
        collector.start()
        sim.schedule(1200, lambda: complete_read(stats))
        sim.run(until=1300)
        timeline = collector.finalize(sim.now)
        last = timeline.windows[-1]
        assert (last.start_ps, last.end_ps) == (1000, 1300)
        assert last.demand_reads == 1

    def test_reset_drops_windows_and_reanchors(self):
        sim, stats, collector = make_collector(window_ns=1.0)
        collector.start()
        sim.schedule(300, lambda: complete_read(stats))
        sim.run(until=2400)
        # Mimic the controller's warm-up discard mid-window.
        stats.reset_measurement()
        collector.on_measurement_reset()
        sim.schedule(200, lambda: complete_read(stats))  # at t=2600
        sim.run(until=3500)
        timeline = collector.finalize(sim.now)
        assert timeline.resets == 1
        # The tick cadence stayed on the absolute grid: the first
        # post-reset window is the short [2400, 3000) remainder.
        assert [(w.start_ps, w.end_ps) for w in timeline.windows] == [
            (2400, 3000), (3000, 3500),
        ]
        assert sum(w.demand_reads for w in timeline.windows) == 1
        assert validate_timeline(timeline) == []

    def test_max_windows_truncates(self):
        sim, _, collector = make_collector(window_ns=1.0, max_windows=2)
        collector.start()
        sim.run(until=10_000)
        timeline = collector.finalize(sim.now)
        assert timeline.truncated
        assert len(timeline.windows) == 2
        # The ended tick series stops adding events.
        assert sim.queue.peek_time() is None

    def test_device_counter_deltas(self):
        device = {"activates": 0, "column_reads": 0}
        sim, _, collector = make_collector(window_ns=1.0, device=device)
        collector.start()

        def bump():
            device["activates"] += 3
            device["column_reads"] += 5

        sim.schedule(500, bump)
        sim.run(until=2000)
        timeline = collector.finalize(sim.now)
        assert [w.activates for w in timeline.windows] == [3, 0]
        assert timeline.windows[0].energy_act_nj == pytest.approx(
            3 * MicronPowerCalculator().act_pre_energy_nj()
        )

    def test_window_percentiles_use_fresh_samples_only(self):
        sim, stats, collector = make_collector(window_ns=1.0)
        collector.start()
        sim.schedule(100, lambda: complete_read(stats, 10_000))
        sim.schedule(200, lambda: complete_read(stats, 30_000))
        sim.schedule(1100, lambda: complete_read(stats, 99_000))
        sim.run(until=2000)
        timeline = collector.finalize(sim.now)
        w0, w1 = timeline.windows
        assert (w0.latency_p50_ps, w0.latency_max_ps) == (10_000, 30_000)
        assert (w1.latency_p50_ps, w1.latency_max_ps) == (99_000, 99_000)


class TestPercentile:
    def test_nearest_rank(self):
        samples = sorted([10, 20, 30, 40, 50])
        assert _percentile_ps(samples, 50) == 30
        assert _percentile_ps(samples, 95) == 50
        assert _percentile_ps(samples, 99) == 50

    def test_single_sample(self):
        assert _percentile_ps([7], 50) == 7
        assert _percentile_ps([7], 99) == 7

    def test_empty(self):
        assert _percentile_ps([], 50) == 0


class TestScheduleEvery:
    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            Simulator().schedule_every(0, lambda: None)

    def test_fires_on_the_grid(self):
        sim = Simulator()
        fired = []
        sim.schedule_every(100, lambda: fired.append(sim.now))
        sim.run(until=350)
        assert fired == [100, 200, 300]

    def test_returning_false_ends_the_series(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            return False if len(fired) >= 2 else None

        sim.schedule_every(100, tick)
        sim.run(until=10_000)
        assert fired == [100, 200]
        assert sim.queue.peek_time() is None


# ----------------------------------------------------------------------
# Real runs: conservation, zero overhead, residency
# ----------------------------------------------------------------------

#: Window fields whose sum over all windows must equal the run total.
_CONSERVED = (
    ("demand_reads", "demand_reads"),
    ("sw_prefetch_reads", "sw_prefetch_reads"),
    ("writes", "writes"),
    ("amb_hits", "amb_hits"),
    ("bytes_read", "bytes_read"),
    ("bytes_written", "bytes_written"),
    ("demand_latency_sum_ps", "demand_latency_sum_ps"),
    ("activates", "activates"),
    ("column_reads", "column_reads"),
    ("column_writes", "column_writes"),
    ("refreshes", "refreshes"),
    ("row_hits", "row_hits"),
    ("row_misses", "row_misses"),
    ("prefetched_lines", "prefetched_lines"),
    ("idle_ps", "idle_ps"),
    ("powerdown_ps", "powerdown_ps"),
)


class TestRealRuns:
    def test_timeline_off_by_default(self, fbd_ap_run):
        assert fbd_ap_run.timeline is None

    def test_enabling_does_not_change_the_simulation(
        self, fbd_ap_run, ap_timeline_run
    ):
        assert ap_timeline_run.core_ipcs == fbd_ap_run.core_ipcs
        assert ap_timeline_run.elapsed_ps == fbd_ap_run.elapsed_ps
        assert ap_timeline_run.mem.demand_reads == fbd_ap_run.mem.demand_reads
        assert ap_timeline_run.mem.bytes_read == fbd_ap_run.mem.bytes_read
        assert ap_timeline_run.mem.activates == fbd_ap_run.mem.activates

    def test_off_runs_are_bit_identical(self):
        config = _with_insts(fbdimm_amb_prefetch(num_cores=2), 3000)
        a = run_system(config, PROGRAMS)
        b = run_system(config, PROGRAMS)
        assert canonical_dumps(encode_value(a)) == \
            canonical_dumps(encode_value(b))

    def test_conservation_invariant(self, ap_timeline_run):
        timeline = ap_timeline_run.timeline
        assert timeline is not None and timeline.windows
        mem = ap_timeline_run.mem
        for window_field, stats_field in _CONSERVED:
            total = sum(getattr(w, window_field) for w in timeline.windows)
            assert total == getattr(mem, stats_field), window_field

    def test_windows_validate_clean(self, ap_timeline_run):
        assert validate_timeline(ap_timeline_run.timeline) == []

    def test_prefetch_run_shows_amb_traffic(self, ap_timeline_run):
        timeline = ap_timeline_run.timeline
        assert sum(w.amb_hits for w in timeline.windows) > 0
        assert max(w.bandwidth_gbs for w in timeline.windows) > 0.0

    def test_energy_totals_positive_and_consistent(self, ap_timeline_run):
        for w in ap_timeline_run.timeline.windows:
            assert w.energy_total_nj == pytest.approx(
                w.energy_dynamic_nj + w.energy_background_nj
            )
            assert w.energy_background_nj > 0.0  # ranks always pay standby

    def test_idle_powerdown_residency_visible(self):
        # A single slow core on DDR2 leaves the subsystem idle between
        # misses — the paper's power-down opportunity.
        config = _with_insts(ddr2_baseline(num_cores=1), 4000).with_timeline(
            window_ns=200.0
        )
        result = run_system(config, ("wupwise",))
        mem = result.mem
        assert mem.idle_gaps > 0
        assert mem.idle_ps > 0
        assert 0 < mem.powerdown_ps <= mem.idle_ps
        spans = sum(w.powerdown_ps for w in result.timeline.windows)
        assert spans == mem.powerdown_ps

    def test_warmup_reset_drops_prefix_windows(self):
        config = _with_insts(fbdimm_amb_prefetch(num_cores=2), 4000)
        config = dataclasses.replace(config, warmup_instructions=1000)
        result = run_system(config.with_timeline(window_ns=500.0), PROGRAMS)
        timeline = result.timeline
        assert timeline.resets == 1
        assert timeline.windows[0].start_ps > 0
        # Post-reset sums still reconcile with the (reset) run totals.
        total = sum(w.demand_reads for w in timeline.windows)
        assert total == result.mem.demand_reads


# ----------------------------------------------------------------------
# Serialization and validation
# ----------------------------------------------------------------------


def synthetic_timeline(depths=(1, 1, 1, 1), window_ps=1000):
    windows = [
        WindowRecord(
            index=i,
            start_ps=i * window_ps,
            end_ps=(i + 1) * window_ps,
            demand_reads=2,
            bytes_read=128,
            demand_latency_sum_ps=100_000,
            queue_depth=depth,
        )
        for i, depth in enumerate(depths)
    ]
    return TimelineResult(window_ps=window_ps, windows=windows)


class TestSerialization:
    def test_jsonl_round_trip(self, ap_timeline_run, tmp_path):
        timeline = ap_timeline_run.timeline
        path = tmp_path / "tl.jsonl"
        write_timeline_jsonl(timeline, path, meta={"system": "fbd-ap"})
        loaded, header = read_timeline_jsonl(path)
        assert loaded == timeline
        assert header["num_windows"] == len(timeline.windows)
        assert header["meta"]["system"] == "fbd-ap"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_timeline_jsonl(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "wrong.jsonl"
        path.write_text('{"format": "other", "version": 1}\n')
        with pytest.raises(ValueError, match="not a repro-timeline"):
            read_timeline_jsonl(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text('{"format": "repro-timeline", "version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            read_timeline_jsonl(path)

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-timeline", "version": 1, "window_ps": 10}\n'
            '{"type": "mystery"}\n'
        )
        with pytest.raises(ValueError, match="unknown record type"):
            read_timeline_jsonl(path)

    @pytest.mark.parametrize("line, reason", [
        ('{"type": "window", "index": 0, "demand_reads": "7"}',
         "demand_reads must be an integer, got '7'"),
        (None, "record must be a JSON object, got [1, 2]"),
        ('{"type": "window", "index": 0, "bogus": 3}',
         "unknown field(s) bogus"),
        ('{"type": "window",', "not valid JSON"),
    ], ids=["string-counter", "non-object", "unknown-field", "bad-json"])
    def test_malformed_record_rejected_at_its_line(self, tmp_path, capsys,
                                                    line, reason):
        from repro.timeline.cli import main

        if line is None:  # the committed fixture CI feeds the CLI
            path = Path(__file__).parent / "fixtures" / "timeline_non_object.jsonl"
        else:
            path = tmp_path / "bad.jsonl"
            path.write_text(
                '{"format": "repro-timeline", "version": 1, "window_ps": 10}\n'
                + line + "\n"
            )
        with pytest.raises(ValueError) as excinfo:
            read_timeline_jsonl(path)
        assert str(excinfo.value).startswith(f"{path}:2: {reason}")
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: {reason}")
        assert "Traceback" not in err

    def test_csv_columns_and_rows(self):
        timeline = synthetic_timeline()
        lines = timeline_csv_lines(timeline)
        assert len(lines) == 1 + len(timeline.windows)
        header = lines[0].split(",")
        assert list(WINDOW_FIELDS) == header[: len(WINDOW_FIELDS)]
        assert "bandwidth_gbs" in header and "avg_power_w" in header
        row = lines[1].split(",")
        # 128 B over the 1 ns window = 128 GB/s; avg latency 50 ns.
        assert row[header.index("bandwidth_gbs")] == "128"
        assert row[header.index("avg_latency_ns")] == "50"

    def test_result_serializes_with_timeline(self, ap_timeline_run):
        # SimulationResult round-trips through the run-cache serializer
        # with the timeline attached.
        from repro.serialize import decode_value
        from repro.system import SimulationResult

        encoded = encode_value(ap_timeline_run)
        decoded = decode_value(encoded, SimulationResult)
        assert decoded.timeline == ap_timeline_run.timeline


class TestValidation:
    def test_clean(self):
        assert validate_timeline(synthetic_timeline()) == []

    def test_bad_index(self):
        tl = synthetic_timeline()
        windows = list(tl.windows)
        windows[1] = dataclasses.replace(windows[1], index=7)
        issues = validate_timeline(dataclasses.replace(tl, windows=windows))
        assert any("index 7" in i for i in issues)

    def test_non_positive_duration(self):
        w = WindowRecord(index=0, start_ps=100, end_ps=100)
        issues = validate_timeline(
            TimelineResult(window_ps=100, windows=[w])
        )
        assert any("non-positive duration" in i for i in issues)

    def test_gap_between_windows(self):
        tl = synthetic_timeline()
        windows = list(tl.windows)
        windows[2] = dataclasses.replace(
            windows[2], start_ps=windows[2].start_ps + 1
        )
        issues = validate_timeline(dataclasses.replace(tl, windows=windows))
        assert any("previous ended" in i for i in issues)

    def test_interior_window_too_long(self):
        w0 = WindowRecord(index=0, start_ps=0, end_ps=5000)
        w1 = WindowRecord(index=1, start_ps=5000, end_ps=6000)
        issues = validate_timeline(
            TimelineResult(window_ps=1000, windows=[w0, w1])
        )
        assert any("exceeds" in i for i in issues)

    def test_negative_counter(self):
        w = WindowRecord(index=0, start_ps=0, end_ps=1000, demand_reads=-1)
        issues = validate_timeline(TimelineResult(window_ps=1000, windows=[w]))
        assert any("negative demand_reads" in i for i in issues)


# ----------------------------------------------------------------------
# Phases, diff, report
# ----------------------------------------------------------------------


class TestPhases:
    def test_detects_a_step(self):
        tl = synthetic_timeline(depths=[1] * 8 + [10] * 8)
        changes = detect_phases(
            tl, metrics=("queue_depth",), half_window=4, threshold=0.5
        )
        assert len(changes) == 1
        assert changes[0].window_index == 8
        assert changes[0].before == pytest.approx(1.0)
        assert changes[0].after == pytest.approx(10.0)
        assert changes[0].relative_shift == pytest.approx(0.9)

    def test_flat_series_has_no_changes(self):
        tl = synthetic_timeline(depths=[5] * 16)
        assert detect_phases(tl, metrics=("queue_depth",)) == []

    def test_below_threshold_ignored(self):
        tl = synthetic_timeline(depths=[10] * 8 + [11] * 8)
        assert detect_phases(tl, metrics=("queue_depth",)) == []

    def test_bad_parameters_rejected(self):
        tl = synthetic_timeline()
        with pytest.raises(ValueError):
            detect_phases(tl, half_window=0)
        with pytest.raises(ValueError):
            detect_phases(tl, threshold=0.0)


class TestDiff:
    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError, match="window size mismatch"):
            diff_timelines(
                synthetic_timeline(window_ps=1000),
                synthetic_timeline(window_ps=2000),
            )

    def test_aligned_summary(self):
        a = synthetic_timeline(depths=(2, 2, 2, 2))
        b = synthetic_timeline(depths=(4, 4, 4, 4, 4))
        diff = diff_timelines(a, b)
        assert diff.aligned_windows == 4
        assert (diff.extra_a, diff.extra_b) == (0, 1)
        queue = next(m for m in diff.metrics if m.metric == "queue_depth")
        assert queue.mean_a == pytest.approx(2.0)
        assert queue.mean_b == pytest.approx(4.0)
        assert queue.mean_delta == pytest.approx(2.0)
        assert queue.relative == pytest.approx(1.0)
        assert queue.max_abs_delta == pytest.approx(2.0)

    def test_format_mentions_labels_and_extras(self):
        a = synthetic_timeline(depths=(2, 2))
        b = synthetic_timeline(depths=(4, 4, 4))
        text = format_diff(diff_timelines(a, b), a, b, "base", "ap")
        assert "base vs ap" in text
        assert "ap has 1 extra windows" in text
        assert "queue_depth" in text


class TestReport:
    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_flat_zero(self):
        assert sparkline([0.0, 0.0]) == "  "

    def test_sparkline_downsamples_to_width(self):
        assert len(sparkline(list(range(200)), width=60)) == 60

    def test_sparkline_peak_gets_the_tallest_bar(self):
        assert sparkline([0.0, 1.0]).endswith("█")

    def test_report_contents(self, ap_timeline_run):
        text = timeline_report(ap_timeline_run.timeline, label="ap")
        assert "timeline: ap" in text
        assert "windows x" in text
        assert "bandwidth GB/s" in text
        assert "energy:" in text
        assert "residency:" in text

    def test_report_flags_truncation_and_resets(self):
        tl = dataclasses.replace(
            synthetic_timeline(), resets=2, truncated=True
        )
        text = timeline_report(tl)
        assert "resets=2" in text
        assert "TRUNCATED" in text

    def test_empty_timeline_report(self):
        text = timeline_report(TimelineResult(window_ps=1000))
        assert "0 windows" in text

    def test_run_report_includes_timeline_and_energy(
        self, ap_timeline_run, fbd_base_run
    ):
        from repro.analysis.report import run_report

        text = run_report(ap_timeline_run, baseline=fbd_base_run)
        assert "dynamic energy:" in text
        assert "relative dynamic power vs baseline:" in text
        assert "timeline" in text

    def test_registry_exports_new_counters(self, ap_timeline_run):
        from repro.telemetry.registry import registry_from_stats

        snapshot = registry_from_stats(ap_timeline_run.mem).snapshot()
        for name in (
            "mem.column_reads", "mem.column_writes", "mem.refreshes",
            "mem.idle_ps", "mem.powerdown_ps", "mem.idle_gaps",
            "mem.dynamic_energy_units", "mem.powerdown_residency",
        ):
            assert name in snapshot, name


# ----------------------------------------------------------------------
# Chrome trace counter tracks
# ----------------------------------------------------------------------


class TestChromeCounters:
    def test_counter_tracks_validate(self, ap_timeline_run):
        from repro.telemetry.export import (
            TelemetryCapture,
            chrome_trace,
            validate_chrome_trace,
        )

        capture = TelemetryCapture(
            timeline=[
                encode_value(w) for w in ap_timeline_run.timeline.windows
            ]
        )
        doc = chrome_trace(capture)
        assert validate_chrome_trace(doc) == []
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert "bandwidth" in names
        assert "queue depth" in names


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

RECORD_ARGS = [
    "record", "--workload", "2C-1", "--insts", "3000", "--window-ns", "300",
]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    from repro.timeline.cli import main

    root = tmp_path_factory.mktemp("timeline")
    base = root / "base.jsonl"
    ap = root / "ap.jsonl"
    assert main([*RECORD_ARGS, "--system", "fbd", "--out", str(base)]) == 0
    assert main([*RECORD_ARGS, "--system", "fbd-ap", "--out", str(ap)]) == 0
    return base, ap


class TestCli:
    def test_record_writes_valid_jsonl(self, recorded):
        base, _ = recorded
        timeline, header = read_timeline_jsonl(base)
        assert timeline.windows
        assert header["meta"]["system"] == "fbd"
        assert validate_timeline(timeline) == []

    def test_report(self, recorded, capsys):
        from repro.timeline.cli import main

        base, _ = recorded
        assert main(["report", str(base)]) == 0
        out = capsys.readouterr().out
        assert "fbd / 2C-1" in out
        assert "bandwidth GB/s" in out

    def test_export_csv_and_chrome(self, recorded, tmp_path):
        from repro.telemetry import validate_chrome_trace
        from repro.timeline.cli import main

        _, ap = recorded
        csv = tmp_path / "tl.csv"
        chrome = tmp_path / "tl.trace.json"
        code = main([
            "export", str(ap), "--csv", str(csv), "--chrome", str(chrome),
        ])
        assert code == 0
        assert csv.read_text().splitlines()[0].startswith("index,")
        doc = json.loads(chrome.read_text())
        assert validate_chrome_trace(doc) == []

    def test_export_without_target_is_usage_error(self, recorded, capsys):
        from repro.timeline.cli import main

        base, _ = recorded
        assert main(["export", str(base)]) == 2
        assert "pass --csv" in capsys.readouterr().err

    def test_diff(self, recorded, capsys):
        from repro.timeline.cli import main

        base, ap = recorded
        code = main([
            "diff", str(base), str(ap), "--labels", "fbd,fbd-ap",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fbd vs fbd-ap" in out

    def test_diff_mismatched_grid_exits_one(self, recorded, tmp_path):
        from repro.timeline.cli import main

        base, _ = recorded
        other = tmp_path / "other.jsonl"
        code = main([
            *RECORD_ARGS[:-2], "--window-ns", "600", "--system", "fbd",
            "--out", str(other),
        ])
        assert code == 0
        assert main(["diff", str(base), str(other)]) == 1

    def test_missing_file_exits_two(self, capsys):
        from repro.timeline.cli import main

        assert main(["report", "/no/such/file.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_labels_rejected(self, recorded, capsys):
        from repro.timeline.cli import main

        base, ap = recorded
        code = main(["diff", str(base), str(ap), "--labels", "onlyone"])
        assert code == 2

    def test_main_cli_timeline_flag(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main([
            "run", "--workload", "swim", "--insts", "3000",
            "--timeline-ns", "500",
        ])
        assert code in (0, None)
        out = capsys.readouterr().out
        assert "timeline" in out


# ----------------------------------------------------------------------
# Lint: the WindowRecord counter-drift spec
# ----------------------------------------------------------------------


class TestWindowRecordLintSpec:
    FIXTURE = (
        (
            "timeline/records.py",
            "from dataclasses import dataclass\n"
            "\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class WindowRecord:\n"
            "    good: int = 0\n"
            "    bogus_counter: int = 0\n",
        ),
        (
            "timeline/collector.py",
            "def make(x: int) -> object:\n"
            "    return WindowRecord(good=x)\n",
        ),
    )

    def lint(self):
        from repro.check.lint.core import LintEngine

        return LintEngine().lint_sources(list(self.FIXTURE))

    def test_orphaned_window_field_fails_no_increment(self):
        findings = self.lint()
        assert [(f.rule, f.message.split()[0]) for f in findings] == [
            ("stat-no-increment", "WindowRecord.bogus_counter"),
        ]

    def test_fed_and_exported_field_is_clean(self):
        findings = self.lint()
        assert not any("WindowRecord.good" in f.message for f in findings)

    def test_shipped_tree_is_clean(self):
        # The real WindowRecord passes its own spec (also enforced repo-wide
        # by the lint CI job; this is the fast local pin).
        from pathlib import Path

        from repro.check.lint.core import LintEngine

        src = Path(__file__).parent.parent / "src" / "repro"
        findings = LintEngine().lint_paths([src])
        assert not any(f.rule.startswith("stat-") for f in findings)


class TestTimelineOverhead:
    def test_collector_adds_under_five_percent_of_repro_calls(self):
        """The collector's on-cost, as exact Python calls made in
        ``src/repro`` with the timeline on vs off: a 4-channel AMB-prefetch
        run must grow by less than 5% (+1.07% when this gate was set)."""
        from tests.test_call_budget import measure

        base = dataclasses.replace(
            fbdimm_amb_prefetch(num_cores=4, logic_channels=4),
            instructions_per_core=20_000, seed=12345,
        )
        programs = ("wupwise", "swim", "mgrid", "applu")
        off = sum(measure(base, programs).values())
        on = sum(measure(base.with_timeline(window_ns=1000.0), programs).values())
        overhead = on / off - 1.0
        assert overhead < 0.05, (
            f"timeline on costs {overhead:+.2%} repro calls "
            f"({off} -> {on}); budget 5%"
        )
