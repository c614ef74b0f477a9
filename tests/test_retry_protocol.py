"""A retried command stream is still a legal FB-DIMM command stream.

Differential tests: run a faulted system with the protocol checker armed
(zero violations expected — replays book real frame slots and respect
tWTR/tFAW/frame-grid rules like first transmissions), replay the faulted
command journal offline through ``repro.check`` with the retry budget
set, and pin golden retry-counter values at fixed seeds so the fault
pattern itself is part of the regression surface.
"""

import dataclasses

import pytest

from repro.check.protocol import check_trace
from repro.check.trace import (
    CheckEvent,
    TraceParams,
    default_params,
    load_events,
    save_events,
)
from repro.config import fbdimm_amb_prefetch, fbdimm_baseline
from repro.system import run_system

PROGRAMS = ("swim", "applu")


def faulted_config(**faults):
    base = dataclasses.replace(
        fbdimm_amb_prefetch(num_cores=2),
        instructions_per_core=4_000,
        check_protocol=True,
    )
    return base.with_faults(**faults)


class TestCheckedFaultedRuns:
    def test_faulted_run_passes_protocol_check(self):
        """System.run raises on any violation, so a clean return IS the
        assertion; the empty list is re-checked for explicitness."""
        config = faulted_config(error_rate=0.2, amb_bitflip_rate=0.1)
        result = run_system(config, list(PROGRAMS))
        assert result.protocol_violations == []
        assert result.mem.faults_corrupted > 0

    def test_faulted_baseline_run_passes_protocol_check(self):
        config = dataclasses.replace(
            fbdimm_baseline(num_cores=2),
            instructions_per_core=4_000,
            check_protocol=True,
        ).with_faults(error_rate=0.3, max_retries=2)
        result = run_system(config, list(PROGRAMS))
        assert result.protocol_violations == []
        assert result.mem.faults_dropped > 0  # recovery replays checked too

    def test_journal_records_retry_attempts(self):
        from repro.system import System

        config = faulted_config(error_rate=0.3)
        system = System(config, list(PROGRAMS))
        system.run()
        events = system.controller.collect_check_events()
        retried = [e for e in events if e.retry > 0]
        assert retried, "a rate-0.3 run must journal some replays"
        budget = config.faults.max_retries
        assert all(e.retry <= budget + 1 for e in retried)
        assert all(not e.is_dram_command for e in retried)


class TestOfflineJournalReplay:
    def test_saved_faulted_journal_passes_offline_check(self, tmp_path):
        from repro.system import System

        config = faulted_config(error_rate=0.25, amb_bitflip_rate=0.1)
        system = System(config, list(PROGRAMS))
        system.run()
        events = system.controller.collect_check_events()
        params = dataclasses.replace(
            TraceParams.from_memory_config(config.memory),
            max_retries=config.faults.max_retries,
        )
        path = tmp_path / "faulted.jsonl"
        save_events(path, params, events)
        loaded_params, loaded_events = load_events(path)
        assert loaded_params.max_retries == config.faults.max_retries
        # The retry annotation survives the JSONL round trip ("rt" code).
        assert any(e.retry > 0 for e in loaded_events)
        violations = check_trace(loaded_params, loaded_events)
        assert violations == []


class TestRetryBudgetRule:
    def params(self, max_retries=3):
        return dataclasses.replace(default_params("fbdimm"),
                                   max_retries=max_retries)

    def test_within_budget_passes(self):
        params = self.params(max_retries=3)
        frame = params.frame_ps
        events = [
            CheckEvent(time_ps=0, kind="SB_CMD", retry=0),
            CheckEvent(time_ps=frame * 4, kind="SB_CMD", retry=3),
            CheckEvent(time_ps=frame * 8, kind="SB_CMD", retry=4),  # recovery
        ]
        assert check_trace(params, events) == []

    def test_over_budget_flagged(self):
        params = self.params(max_retries=3)
        events = [CheckEvent(time_ps=0, kind="SB_CMD", retry=5)]
        violations = check_trace(params, events)
        assert [v.rule for v in violations] == ["retry-budget"]
        assert "attempt 5" in violations[0].message

    def test_rule_inert_without_budget(self):
        params = self.params(max_retries=0)
        events = [CheckEvent(time_ps=0, kind="SB_CMD", retry=99)]
        assert check_trace(params, events) == []

    def test_rule_applies_to_northbound_too(self):
        params = self.params(max_retries=1)
        frame = params.frame_ps
        phase = params.nb_phase_ps
        events = [
            CheckEvent(time_ps=phase, kind="NB_LINE", frames=2, retry=3),
            CheckEvent(
                time_ps=phase + 4 * frame, kind="NB_LINE", frames=2, retry=2
            ),
        ]
        violations = check_trace(params, events)
        assert [v.rule for v in violations] == ["retry-budget"]


class TestGoldenRetryNumbers:
    """Fault patterns are seeded; these exact counters are the regression
    surface for the retry state machine's timing and accounting."""

    def test_golden_moderate_rate(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(num_cores=2), instructions_per_core=4_000
        ).with_faults(error_rate=0.1, amb_bitflip_rate=0.05, seed=0xFBD1)
        mem = run_system(config, list(PROGRAMS)).mem
        assert mem.faults_corrupted == 27
        assert mem.faults_retried_ok == 27
        assert mem.faults_dropped == 0
        assert mem.faults_injected == 27
        assert mem.amb_parity_errors == 0
        assert mem.fault_retry_latency_ps == 480_000

    def test_golden_heavy_rate_with_drops(self):
        config = dataclasses.replace(
            fbdimm_amb_prefetch(num_cores=2), instructions_per_core=4_000
        ).with_faults(
            error_rate=0.6, amb_bitflip_rate=0.3, seed=7, max_retries=1
        )
        mem = run_system(config, list(PROGRAMS)).mem
        assert mem.faults_corrupted == 159
        assert mem.faults_retried_ok == 64
        assert mem.faults_dropped == 95
        assert mem.faults_injected == 254
        assert mem.amb_parity_errors == 16
        assert mem.fault_retry_latency_ps == 5_334_000
        assert mem.faults_corrupted == mem.faults_retried_ok + mem.faults_dropped

    def test_golden_latency_matches_report_line(self):
        from repro.analysis.report import run_report

        config = dataclasses.replace(
            fbdimm_amb_prefetch(num_cores=2), instructions_per_core=4_000
        ).with_faults(error_rate=0.1, amb_bitflip_rate=0.05, seed=0xFBD1)
        report = run_report(run_system(config, list(PROGRAMS)))
        assert "27 corrupted transfers" in report
        assert "480.0 ns retry latency" in report


class TestTelemetryIntegration:
    def test_tracer_sees_retry_phases(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        config = dataclasses.replace(
            fbdimm_amb_prefetch(num_cores=2), instructions_per_core=4_000
        ).with_faults(error_rate=0.3)
        run_system(config, list(PROGRAMS), tracer=tracer)
        retries = tracer.registry.get("trace.fault_retries")
        assert retries is not None and retries.value > 0
        marked = [
            t for t in tracer.traces() if t.phase_time("retry") is not None
        ]
        assert marked, "some traced requests must carry a retry phase"

    def test_registry_exports_fault_counters(self):
        from repro.telemetry import registry_from_stats

        config = dataclasses.replace(
            fbdimm_amb_prefetch(num_cores=2), instructions_per_core=4_000
        ).with_faults(error_rate=0.3)
        result = run_system(config, list(PROGRAMS))
        snap = registry_from_stats(result.mem).snapshot()
        assert snap["mem.faults_corrupted"]["value"] == result.mem.faults_corrupted
        assert snap["mem.faults_retried_ok"]["value"] > 0
        assert (
            snap["mem.faults_corrupted"]["value"]
            == snap["mem.faults_retried_ok"]["value"]
            + snap["mem.faults_dropped"]["value"]
        )


class TestCliFaults:
    def test_faults_subcommand_prints_table(self, capsys):
        from repro.__main__ import main

        code = main([
            "faults", "--workload", "swim", "--insts", "2500",
            "--rates", "0.3", "--system", "fbd",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "error rate" in out and "3.0e-01" in out and "off" in out

    def test_faults_subcommand_rejects_ddr2(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["faults", "--system", "ddr2"])
