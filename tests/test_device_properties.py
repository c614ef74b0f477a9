"""Cross-generation property suite for the device-spec machinery.

Hypothesis draws random *valid* :class:`~repro.dram.devices.DeviceSpec`
instances (the registry presets are just four points of that space) and
checks that the shared bank/channel state machine honours whatever the
spec declares:

* the Bank never violates its own spec's constraints — per-bank ACT
  spacing >= tRC, per-rank spacing >= tRRD, column commands >= tRCD after
  their ACT;
* tFAW holds as a sliding window: any five consecutive ACTs on one rank
  span at least tFAW, and the stall counters only move when tFAW is set;
* at the DDR2 point (tFAW = 0) the Bank is bit-identical to the frozen
  pre-rewrite oracle in ``tests/_legacy_bank.py`` — the same differential
  the PR-8 suite runs, re-drawn here from device-spec-shaped timings to
  prove the tFAW machinery is a no-op when disabled;
* scheduled refresh delivers exactly one all-bank REF per rank per tREFI
  interval (staggered across ranks), and none at all when tREFI is 0.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import tests._legacy_bank as legacy
from repro.check.trace import bank_commands
from repro.config import DRAM_CLOCK_PS, DramTimings, MemoryConfig, PagePolicy
from repro.dram.bank import Bank, RankTimer
from repro.dram.commands import CommandType
from repro.dram.devices import DEVICE_PRESETS, DeviceSpec
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator, ns


@st.composite
def device_specs(draw) -> DeviceSpec:
    """A random valid spec (every constraint of ``__post_init__`` holds).

    Timings are drawn in integer picoseconds and expressed in ns so the
    ``ns()`` conversion is exact, like the shipped presets.
    """
    def t(lo_ps: int, hi_ps: int) -> float:
        return draw(st.integers(lo_ps, hi_ps)) / 1000.0

    tRP = t(0, 20000)
    tRAS = t(0, 60000)
    timings = DramTimings(
        tRP=tRP,
        tRCD=t(0, 20000),
        tCL=t(0, 20000),
        tRC=tRAS + tRP,
        tRRD=t(0, 10000),
        tRPD=t(0, 20000),
        tWTR=t(0, 10000),
        tRAS=tRAS,
        tWL=t(0, 20000),
        tWPD=t(0, 20000),
    )
    return DeviceSpec(
        name="hypo",
        generation="HYPO",
        data_rate_mts=draw(st.sampled_from(sorted(DRAM_CLOCK_PS))),
        timings=timings,
        tFAW_ns=t(0, 60000),
        tREFI_ns=draw(st.sampled_from([0.0, 500.0, 3904.0, 7800.0])),
        tRFC_ns=t(1000, 400000),
        banks_per_dimm=draw(st.sampled_from([2, 4, 8, 16])),
        burst_length=draw(st.sampled_from([4, 8])),
    )


def _timing_of(spec: DeviceSpec) -> TimingPs:
    return TimingPs.from_config(
        spec.timings,
        DRAM_CLOCK_PS[spec.data_rate_mts],
        spec.burst_clocks,
        tfaw_ns=spec.tFAW_ns,
    )


#: Random command sequences: (op, bank index, row, lines, now-advance).
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "read", "read"]),
        st.integers(0, 2),
        st.integers(0, 3),
        st.integers(1, 4),
        st.integers(0, 30000),
    ),
    min_size=4,
    max_size=40,
)


def _drive(spec: DeviceSpec, steps, policy=PagePolicy.CLOSE_PAGE):
    """Run a sequence through two banks sharing one rank; return the banks."""
    timing = _timing_of(spec)
    banks = [Bank(b, timing, policy) for b in range(2)]
    for bank in banks:
        bank.enable_trace()
    rank = RankTimer()
    bus = BusResource("prop")
    now = 0
    for op, bank_idx, row, count, advance in steps:
        now += advance
        bank = banks[bank_idx % 2]
        if op == "read":
            bank.read(now, row, count, bus, rank)
        else:
            bank.write(now, row, bus, rank)
    return banks, rank


def _acts(bank: Bank):
    assert bank.command_log is not None
    return [time_ps for kind, time_ps, _ in bank_commands(bank.command_log)
            if kind is CommandType.ACTIVATE]


class TestBankHonoursSpecConstraints:
    @settings(max_examples=200, deadline=None)
    @given(spec=device_specs(), steps=STEPS)
    def test_act_spacing_respects_trc_and_trrd(self, spec, steps):
        banks, _rank = _drive(spec, steps)
        timing = _timing_of(spec)
        for bank in banks:
            acts = _acts(bank)
            for a, b in zip(acts, acts[1:]):
                assert b - a >= timing.tRC, "same-bank ACT gap under tRC"
        rank_acts = sorted(_acts(banks[0]) + _acts(banks[1]))
        for a, b in zip(rank_acts, rank_acts[1:]):
            assert b - a >= timing.tRRD, "same-rank ACT gap under tRRD"

    @settings(max_examples=200, deadline=None)
    @given(spec=device_specs(), steps=STEPS)
    def test_column_commands_wait_trcd(self, spec, steps):
        banks, _rank = _drive(spec, steps)
        timing = _timing_of(spec)
        for bank in banks:
            assert bank.command_log is not None
            last_act = None
            for kind, time_ps, _ in bank_commands(bank.command_log):
                if kind is CommandType.ACTIVATE:
                    last_act = time_ps
                elif kind in (CommandType.READ, CommandType.WRITE):
                    assert last_act is not None, "column command before ACT"
                    assert time_ps >= last_act + timing.tRCD


class TestFawSlidingWindow:
    @settings(max_examples=200, deadline=None)
    @given(spec=device_specs(), steps=STEPS)
    def test_any_five_acts_span_tfaw(self, spec, steps):
        banks, _rank = _drive(spec, steps)
        timing = _timing_of(spec)
        rank_acts = sorted(_acts(banks[0]) + _acts(banks[1]))
        for i in range(len(rank_acts) - 4):
            span = rank_acts[i + 4] - rank_acts[i]
            assert span >= timing.tFAW, (
                f"5 ACTs within {span}ps < tFAW={timing.tFAW}ps"
            )

    @settings(max_examples=100, deadline=None)
    @given(spec=device_specs(), steps=STEPS)
    def test_stall_counters_only_move_with_tfaw(self, spec, steps):
        import dataclasses

        disabled = dataclasses.replace(spec, tFAW_ns=0.0)
        banks, _rank = _drive(disabled, steps)
        for bank in banks:
            assert bank.stats.faw_stalls == 0
            assert bank.stats.faw_stall_ps == 0
        banks, _rank = _drive(spec, steps)
        for bank in banks:
            assert bank.stats.faw_stalls >= 0
            assert (bank.stats.faw_stall_ps > 0) <= (bank.stats.faw_stalls > 0)

    def test_presets_gate_matches_generation(self):
        # DDR2 must disable the window; every later generation enables it.
        for name, spec in DEVICE_PRESETS.items():
            timing = _timing_of(spec)
            bank = Bank(0, timing, PagePolicy.CLOSE_PAGE)
            if name == "ddr2-667":
                assert bank._tFAW == 0
            else:
                assert bank._tFAW == ns(spec.tFAW_ns) > 0


class TestDdr2PointMatchesLegacyOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        spec=device_specs(),
        steps=STEPS,
        policy=st.sampled_from([PagePolicy.CLOSE_PAGE, PagePolicy.OPEN_PAGE]),
    )
    def test_tfaw_zero_is_bit_identical_to_legacy(self, spec, steps, policy):
        """With tFAW disabled, a device-spec-shaped timing drives the Bank
        exactly like the frozen pre-rewrite oracle (which has no tFAW)."""
        timing = TimingPs.from_config(
            spec.timings, DRAM_CLOCK_PS[spec.data_rate_mts],
            spec.burst_clocks, tfaw_ns=0.0,
        )
        new_banks = [Bank(b, timing, policy) for b in range(2)]
        old_banks = [legacy.Bank(b, timing, policy) for b in range(2)]
        for bank in new_banks + old_banks:
            bank.enable_trace()
        new_rank, old_rank = RankTimer(), legacy.RankTimer()
        new_bus, old_bus = BusResource("new"), BusResource("old")
        now = 0
        for op, bank_idx, row, count, advance in steps:
            now += advance
            nb, ob = new_banks[bank_idx % 2], old_banks[bank_idx % 2]
            if op == "read":
                n = nb.read(now, row, count, new_bus, new_rank)
                o = ob.read(now, row, count, old_bus, old_rank)
            else:
                n = nb.write(now, row, new_bus, new_rank)
                o = ob.write(now, row, old_bus, old_rank)
            assert (n.command_start, n.data_times, n.data_starts) == (
                o.command_start, o.data_times, o.data_starts
            )
        for nb, ob in zip(new_banks, old_banks):
            assert nb.ready_at == ob.ready_at
            assert nb.column_ok == ob.column_ok
            assert nb.precharge_ok == ob.precharge_ok
            assert list(bank_commands(nb.command_log)) == [
                (r.kind, r.time_ps, r.row) for r in ob.command_log
            ]
        assert new_rank.next_act_ok == old_rank.next_act_ok
        assert new_rank.read_ok_after_write == old_rank.read_ok_after_write


class TestRefreshCadence:
    def _controller(self, ranks: int, dimms: int, trefi_ns: float,
                    trfc_ns: float = 100.0):
        from repro.controller.channel_controller import Ddr2ChannelController
        from repro.stats.collector import MemSystemStats

        config = MemoryConfig(
            ranks_per_dimm=ranks,
            dimms_per_channel=dimms,
            refresh_interval_ns=trefi_ns,
            refresh_cycle_ns=trfc_ns,
        )
        sim = Simulator()
        timing = TimingPs.from_config(
            config.timings, config.dram_clock_ps, config.burst_clocks,
            tfaw_ns=config.tFAW_ns,
        )
        controller = Ddr2ChannelController(
            sim, config, timing, 0, MemSystemStats()
        )
        return sim, config, controller

    @settings(max_examples=60, deadline=None)
    @given(
        ranks=st.integers(1, 4),
        dimms=st.integers(1, 2),
        trefi_ns=st.sampled_from([500.0, 1000.0, 3904.0, 7800.0]),
        cycles=st.integers(1, 6),
    )
    def test_exactly_one_ref_per_rank_per_trefi(
        self, ranks, dimms, trefi_ns, cycles
    ):
        sim, config, controller = self._controller(ranks, dimms, trefi_ns)
        interval = ns(trefi_ns)
        horizon = cycles * interval
        sim.run(until=horizon)
        total_ranks = dimms * ranks
        per_bank = config.banks_per_dimm
        for dimm_idx, dimm in enumerate(controller.dimms):
            for rank in range(ranks):
                index = dimm_idx * ranks + rank
                offset = (interval * index) // total_ranks
                # REF n of this rank fires at offset + n * interval, so
                # the count inside [0, horizon] is exact — one per tREFI.
                expected = max(0, (horizon - offset) // interval)
                bank_counts = {
                    bank.stats.refreshes
                    for bank in dimm.banks[rank * per_bank:(rank + 1) * per_bank]
                }
                assert bank_counts == {expected}, (
                    f"rank {index}: REF count {bank_counts} != {expected}"
                )

    @settings(max_examples=20, deadline=None)
    @given(ranks=st.integers(1, 4), dimms=st.integers(1, 2))
    def test_trefi_zero_never_refreshes(self, ranks, dimms):
        sim, _config, controller = self._controller(ranks, dimms, 0.0)
        sim.run(until=ns(50_000.0))
        for dimm in controller.dimms:
            for bank in dimm.banks:
                assert bank.stats.refreshes == 0

    def test_refresh_blackout_is_trfc(self):
        """After a REF the bank is unavailable for exactly tRFC."""
        sim, config, controller = self._controller(
            ranks=1, dimms=1, trefi_ns=1000.0, trfc_ns=127.5
        )
        interval = ns(1000.0)
        sim.run(until=interval)
        bank = controller.dimms[0].banks[0]
        assert bank.stats.refreshes == 1
        assert bank.ready_at == interval + ns(127.5)
