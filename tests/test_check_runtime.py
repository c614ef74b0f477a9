"""Runtime assertion layer: full runs under check_protocol=True stay clean."""

import gc
import sys
import tracemalloc
from dataclasses import replace

import pytest

from repro.check.protocol import ProtocolViolationError
from repro.check.trace import CheckEvent, TraceParams
from repro.config import (
    InterleaveScheme,
    PagePolicy,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.dram.commands import PRE
from repro.system import System
from repro.workloads.spec import PROGRAMS

PROGS = sorted(PROGRAMS)
INSTS = 15_000


def run_checked(config, programs):
    return System(replace(config, check_protocol=True), programs).run()


class TestZeroViolationRuns:
    def test_ddr2_multicore(self):
        result = run_checked(
            replace(ddr2_baseline(num_cores=2), instructions_per_core=INSTS),
            PROGS[:2],
        )
        assert result.protocol_violations == []

    def test_fbdimm_baseline(self):
        result = run_checked(
            replace(fbdimm_baseline(), instructions_per_core=INSTS), PROGS[:1]
        )
        assert result.protocol_violations == []

    def test_fbdimm_amb_prefetch(self):
        result = run_checked(
            replace(fbdimm_amb_prefetch(num_cores=2), instructions_per_core=INSTS),
            PROGS[2:4],
        )
        assert result.protocol_violations == []

    def test_ddr2_open_page(self):
        config = replace(
            ddr2_baseline(), instructions_per_core=INSTS
        ).with_memory(
            page_policy=PagePolicy.OPEN_PAGE, interleave=InterleaveScheme.PAGE
        )
        assert run_checked(config, PROGS[4:5]).protocol_violations == []

    def test_off_by_default(self):
        config = replace(fbdimm_baseline(), instructions_per_core=INSTS)
        result = System(config, PROGS[:1]).run()
        assert result.protocol_violations is None


class TestRuntimePlumbing:
    def test_events_collected_and_checkable_offline(self):
        """The journalled stream is a valid offline trace for the CLI path."""
        config = replace(
            fbdimm_amb_prefetch(), instructions_per_core=INSTS, check_protocol=True
        )
        system = System(config, PROGS[:1])
        system.run()
        events = system.controller.collect_check_events()
        assert events, "a real run must journal DRAM commands"
        kinds = {e.kind for e in events}
        assert {"ACT", "RD", "PRE"} <= kinds
        assert "NB_LINE" in kinds and "SB_CMD" in kinds
        params = TraceParams.from_memory_config(config.memory)
        from repro.check.protocol import check_trace

        assert check_trace(params, events) == []

    def test_checker_disabled_keeps_banks_untraced(self):
        config = replace(fbdimm_baseline(), instructions_per_core=INSTS)
        system = System(config, PROGS[:1])
        system.run()
        channel = system.controller.channels[0]
        assert all(b.command_log is None for amb in channel.ambs for b in amb.banks)
        assert channel.links.north.journal is None

    def test_violation_raises(self, monkeypatch):
        """Any violation surfacing from the checker must abort the run.

        The model and checker derive timing from the same config, so a real
        divergence cannot be provoked from configuration alone; the raise
        path is exercised by stubbing the check hook.
        """
        from repro.check.protocol import Violation
        from repro.controller.controller import MemoryController

        planted = [Violation(rule="tRCD", time_ps=0,
                             location="ch0.dimm0.rank0.bank0",
                             message="planted")]
        monkeypatch.setattr(
            MemoryController, "check_protocol_violations", lambda self: planted
        )
        config = replace(
            fbdimm_baseline(), instructions_per_core=INSTS, check_protocol=True
        )
        with pytest.raises(ProtocolViolationError) as exc_info:
            System(config, PROGS[:1]).run()
        assert exc_info.value.violations == planted


class TestCheckCost:
    """Deterministic cost proxy for the post-run check: Python-level calls,
    counted with ``sys.setprofile``.

    The journal audit (``check_journals``) keeps its per-record work in C
    or in its bank loop, so its calls count ranks and channels, not
    events, and a run that breaks a rule pays only for the violations it
    reports.  The figures beside each config were measured with this
    same harness on the first event replay (frozen-dataclass events, a
    throwaway state object per event): 9.89 calls per event on the
    faulted FB-DIMM journal below, 13.22 on the DDR2 one.
    """

    CONFIGS = [
        (lambda: fbdimm_amb_prefetch(num_cores=2).with_faults(error_rate=1e-2),
         9.89),
        (lambda: ddr2_baseline(num_cores=2), 13.22),
    ]
    IDS = ["fbd-ap-faults", "ddr2"]

    @staticmethod
    def _controller(config):
        system = System(
            replace(config, instructions_per_core=10_000, check_protocol=True),
            ["swim", "wupwise"],
        )
        system.run()
        return system.controller

    @staticmethod
    def _profiled(fn):
        names = []

        def profile(frame, event, arg):
            if event == "call":
                names.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            result = fn()
        finally:
            sys.setprofile(None)
        return result, names

    @staticmethod
    def _states(events):
        banks = {(e.channel, e.dimm, e.rank, e.bank)
                 for e in events if e.is_dram_command}
        ranks = {key[:3] for key in banks}
        channels = {e.channel for e in events if not e.is_dram_command}
        return banks, ranks, channels

    @staticmethod
    def _break_one_rule(controller):
        """Move one journalled PRE back 1 ps so that exactly one rule
        breaks; returns the journal and the slot of the moved time."""
        for channel in controller.channels:
            for _, log in channel.bank_journals():
                for i in range(0, len(log), 3):
                    if log[i] != PRE:
                        continue
                    log[i + 1] -= 1
                    if len(controller.check_protocol_violations()) == 1:
                        return log, i + 1
                    log[i + 1] += 1
        raise AssertionError("no PRE sits on a timing bound")

    @pytest.mark.parametrize("make", [make for make, _ in CONFIGS], ids=IDS)
    def test_broken_run_calls_do_not_scale_with_events(self, make):
        controller = self._controller(make())
        events = controller.collect_check_events()
        assert len(events) > 500
        log, slot = self._break_one_rule(controller)
        try:
            violations, names = self._profiled(
                controller.check_protocol_violations)
        finally:
            log[slot] += 1
        assert len(violations) == 1
        _, ranks, channels = self._states(events)
        # The clean-run bound below, plus flagging and reporting the one
        # violation.
        assert len(names) <= 8 * (len(ranks) + len(channels)) + 50 + 10, (
            names)

    @pytest.mark.parametrize("make", [make for make, _ in CONFIGS], ids=IDS)
    def test_clean_run_calls_do_not_scale_with_events(self, make):
        controller = self._controller(make())
        events = controller.collect_check_events()
        violations, names = self._profiled(
            controller.check_protocol_violations)
        assert violations == []
        _, ranks, channels = self._states(events)
        # A few comprehensions per rank and per channel, the frame
        # counters, and building the params.
        assert len(names) <= 8 * (len(ranks) + len(channels)) + 50
        assert len(names) < len(events) / 5


class TestJournalMemory:
    """What a checked run holds per journalled command: the memory still
    traced after a checked run, minus the same run unchecked, over the
    commands and frame bookings its journals hold.

    Each journal's empty object (one per bank and two per link) is a
    fixed cost, not a per-command one, and is taken off first: at 10k
    insts/core a DDR2 bank journals ~13 commands, so the 64 headers
    would add ~6 B a command.  Flat integer journals cost 24 B a record
    plus the arrays' growth slack (24 B and 27 B measured); journals of
    tuples cost 115 B (faulted FB-DIMM) and 129 B (DDR2).
    """

    MAX_BYTES_PER_COMMAND = 32

    @staticmethod
    def _held_after_run(config):
        """(bytes traced while the finished run is alive, its controller)."""
        gc.collect()
        tracemalloc.start()
        try:
            system = System(config, ["swim", "wupwise"])
            system.run()
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, system.controller

    @staticmethod
    def _journals(controller):
        """Every journal of the run, empty ones included."""
        journals = []
        for channel in controller.channels:
            journals += [bank.command_log
                         for dimm in channel._dimms for bank in dimm.banks]
            for _, south, north in channel.link_journals():
                journals += [south, north]
        return journals

    @pytest.mark.parametrize("make", [make for make, _ in TestCheckCost.CONFIGS],
                             ids=TestCheckCost.IDS)
    def test_bytes_per_journalled_command(self, make):
        config = replace(make(), instructions_per_core=10_000)
        checked = replace(config, check_protocol=True)
        # A throwaway checked run first: lazy imports and first-use caches
        # are not the journals' cost.
        System(checked, ["swim", "wupwise"]).run()
        held_off, _ = self._held_after_run(config)
        held_on, controller = self._held_after_run(checked)
        journals = self._journals(controller)
        records = sum(map(len, journals)) // 3
        assert records > 500
        fixed = len(journals) * sys.getsizeof(journals[0][:0])
        per_command = (held_on - held_off - fixed) / records
        assert per_command <= self.MAX_BYTES_PER_COMMAND, per_command


class TestAuditMemory:
    """What the audit of a clean run allocates at its peak, per journalled
    record: ``check_protocol_violations()`` under ``tracemalloc``.

    The audit takes one channel at a time, with each rank's ACT, RD and
    WR times in integer arrays and one rank's or one bus's sorted times
    alive at once: 12 B a record (faulted FB-DIMM) and 8 B (DDR2) at 50k
    insts/core.  The audit that held every channel's ranks and buses as
    Python-int lists at once, and counted southbound slots in a
    ``Counter``, peaked at 42 B and 86 B.
    """

    MAX_PEAK_BYTES_PER_RECORD = 20

    @pytest.mark.parametrize("make", [make for make, _ in TestCheckCost.CONFIGS],
                             ids=TestCheckCost.IDS)
    def test_peak_bytes_per_journalled_record(self, make):
        config = replace(make(), instructions_per_core=50_000,
                         check_protocol=True)
        system = System(config, ["swim", "wupwise"])
        system.run()
        controller = system.controller
        journals = TestJournalMemory._journals(controller)
        records = sum(map(len, journals)) // 3
        assert records > 2000
        # A first pass outside the window: lazy imports are not the
        # audit's cost.
        assert controller.check_protocol_violations() == []
        gc.collect()
        tracemalloc.start()
        try:
            assert controller.check_protocol_violations() == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / records <= self.MAX_PEAK_BYTES_PER_RECORD, peak / records


class TestCleanRunSkipsReplay:
    def test_observed_run_builds_no_check_event(self):
        """``fbd-ap-observed`` at 20k insts/core, every observer on: the
        audit passes it, so the check builds no ``CheckEvent`` at all."""
        from tests.test_call_budget import build

        config, programs = build("fbd-ap-observed")
        system = System(config, programs)
        assert system.run().protocol_violations == []
        new_event = CheckEvent.__new__.__code__
        built = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is new_event:
                built.append(frame)

        sys.setprofile(profile)
        try:
            assert system.controller.check_protocol_violations() == []
        finally:
            sys.setprofile(None)
        assert built == []
        # The probe sees the replay's events.
        sys.setprofile(profile)
        try:
            system.controller.collect_check_events()
        finally:
            sys.setprofile(None)
        assert built
