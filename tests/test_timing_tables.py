"""Differential property suite: table-driven Bank vs the legacy oracle.

The PR-8 hot-path rewrite replaced the branchy per-issue Table 2
constraint checks in ``repro.dram.bank`` with offsets precomputed by
``TimingPs.per_command_table``.  ``tests/_legacy_bank.py`` is the frozen
pre-rewrite implementation; hypothesis drives randomized command
sequences — reads (including multi-line group fetches), writes with
wire-order tWTR retries, refreshes, scheduling estimates, under both page
policies and cross-bank rank coupling — through both implementations and
asserts bit-identical timing, state, statistics and command logs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import tests._legacy_bank as legacy
from repro.check.trace import bank_commands
from repro.config import PagePolicy
from repro.dram.bank import Bank, RankTimer
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs


@st.composite
def _timings(draw) -> TimingPs:
    """Random but structurally plausible picosecond timing bundle."""
    clock = draw(st.integers(100, 4000))
    burst_clocks = draw(st.integers(1, 8))
    tCL = draw(st.integers(0, 20000))
    tRCD = draw(st.integers(0, 20000))
    tRP = draw(st.integers(0, 20000))
    tRAS = draw(st.integers(0, 60000))
    return TimingPs(
        tRP=tRP,
        tRCD=tRCD,
        tCL=tCL,
        tRC=tRAS + tRP,
        tRRD=draw(st.integers(0, 10000)),
        tRPD=draw(st.integers(0, 20000)),
        tWTR=draw(st.integers(0, 10000)),
        tRAS=tRAS,
        tWL=draw(st.integers(0, 20000)),
        tWPD=draw(st.integers(0, 20000)),
        clock=clock,
        burst=burst_clocks * clock,
    )


TIMINGS = _timings()

#: One step of the command sequence.  ``now`` advances by the drawn gap
#: before each step so sequences exercise both back-to-back and idle gaps.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "refresh", "estimate"]),
        st.integers(0, 2),  # bank index (2 banks share the rank timer)
        st.integers(0, 3),  # row
        st.integers(1, 4),  # num_lines for reads / trfc clocks for refresh
        st.integers(0, 30000),  # now advance, ps
    ),
    min_size=1,
    max_size=40,
)


def _probe(bank, now, row, rank):
    """(earliest start, row hit): ``Bank.probe``, or the oracle's pair of
    separate estimates."""
    if isinstance(bank, Bank):
        return bank.probe(now, row, rank)
    return bank.earliest_start(now, row, rank), bank.is_row_hit(row)


def _commands(bank):
    """The bank's journal as ``(command, time_ps, bank_id, row)``: the
    oracle logs records that carry the bank id, ``Bank`` a flat journal
    keyed by its bank."""
    if bank.command_log is None:
        return None
    if isinstance(bank, Bank):
        return [(kind, time_ps, bank.bank_id, row)
                for kind, time_ps, row in bank_commands(bank.command_log)]
    return [(r.kind, r.time_ps, r.bank_id, r.row) for r in bank.command_log]


class _Harness:
    """One side of the differential: two banks, one rank, one data bus."""

    def __init__(self, bank_cls, timer_cls, timing, policy, trace):
        self.banks = [bank_cls(b, timing, policy) for b in range(2)]
        if trace:
            for bank in self.banks:
                bank.enable_trace()
        self.rank = timer_cls()
        self.bus = BusResource("diff")
        self.now = 0

    def step(self, op, bank_idx, row, count, advance):
        self.now += advance
        bank = self.banks[bank_idx % len(self.banks)]
        if op == "read":
            result = bank.read(self.now, row, count, self.bus, self.rank)
        elif op == "write":
            result = bank.write(self.now, row, self.bus, self.rank)
        elif op == "refresh":
            bank.refresh(self.now, count * 1000)
            result = None
        else:
            return _probe(bank, self.now, row, self.rank)
        return result, _probe(bank, self.now, row, self.rank)[1]

    def snapshot(self):
        state = []
        for bank in self.banks:
            stats = bank.stats
            state.append((
                bank.open_row, bank.ready_at, bank.column_ok,
                bank.precharge_ok,
                (stats.activates, stats.precharges, stats.reads,
                 stats.writes, stats.row_hits, stats.row_misses,
                 stats.refreshes),
                _commands(bank),
            ))
        state.append((
            self.rank.next_act_ok,
            self.rank.read_ok_after_write,
            sorted(self.rank.pending_rd_cmds),
        ))
        state.append((self.bus.busy_ps, self.bus._intervals))
        return state


def _result_key(result):
    if result is None or isinstance(result, int):
        return result
    return (
        result.command_start,
        list(result.data_times),
        list(result.data_starts),
        result.row_hit,
    )


@settings(max_examples=250, deadline=None)
@given(
    timing=TIMINGS,
    steps=STEPS,
    policy=st.sampled_from([PagePolicy.CLOSE_PAGE, PagePolicy.OPEN_PAGE]),
    trace=st.booleans(),
)
def test_table_bank_matches_legacy_oracle(timing, steps, policy, trace):
    new = _Harness(Bank, RankTimer, timing, policy, trace)
    old = _Harness(legacy.Bank, legacy.RankTimer, timing, policy, trace)
    for op, bank_idx, row, count, advance in steps:
        new_result, new_hit = new.step(op, bank_idx, row, count, advance)
        old_result, old_hit = old.step(op, bank_idx, row, count, advance)
        assert _result_key(new_result) == _result_key(old_result)
        assert new_hit == old_hit
    assert new.snapshot() == old.snapshot()


@settings(max_examples=250, deadline=None)
@given(
    timing=TIMINGS,
    steps=STEPS,
    policy=st.sampled_from([PagePolicy.CLOSE_PAGE, PagePolicy.OPEN_PAGE]),
)
def test_estimates_are_side_effect_free_and_agree(timing, steps, policy):
    """probe never mutates, and agrees with the oracle's earliest_start
    and is_row_hit even when interleaved mid-sequence at every step."""
    new = _Harness(Bank, RankTimer, timing, policy, trace=False)
    old = _Harness(legacy.Bank, legacy.RankTimer, timing, policy, trace=False)
    for op, bank_idx, row, count, advance in steps:
        before = new.snapshot()
        for probe_row in range(3):
            assert _probe(
                new.banks[bank_idx % 2], new.now, probe_row, new.rank
            ) == _probe(old.banks[bank_idx % 2], old.now, probe_row, old.rank)
        assert new.snapshot() == before
        new.step(op, bank_idx, row, count, advance)
        old.step(op, bank_idx, row, count, advance)


@settings(max_examples=100, deadline=None)
@given(timing=TIMINGS)
def test_per_command_table_matches_formulas(timing):
    table = timing.per_command_table()
    assert table["rd_data_lead"] == timing.tCL
    assert table["rd_drain_step"] == timing.burst - timing.tCL
    assert table["rd_col_gate"] == timing.burst
    assert table["wr_data_lead"] == timing.tWL
    assert table["wr_turnaround"] == timing.tWL + timing.burst + timing.tWTR
    assert table["wr_col_gate"] == timing.tWL + timing.burst
    assert table["retry_step"] == timing.clock
    assert set(table) == {
        "rd_data_lead", "rd_drain_step", "rd_col_gate",
        "wr_data_lead", "wr_turnaround", "wr_col_gate", "retry_step",
    }


@settings(max_examples=100, deadline=None)
@given(timing=TIMINGS)
def test_bank_caches_exactly_the_table(timing):
    """The Bank's cached offsets are the table values — no drift between
    the documented formulas and the constructed hot-path constants."""
    bank = Bank(0, timing, PagePolicy.OPEN_PAGE)
    table = timing.per_command_table()
    assert bank._rd_data_lead == table["rd_data_lead"]
    assert bank._rd_drain_step == table["rd_drain_step"]
    assert bank._rd_col_gate == table["rd_col_gate"]
    assert bank._wr_data_lead == table["wr_data_lead"]
    assert bank._wr_turnaround == table["wr_turnaround"]
    assert bank._wr_col_gate == table["wr_col_gate"]
    assert bank._retry_step == table["retry_step"]
