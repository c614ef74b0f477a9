"""Property tests: bank command streams stay protocol-legal under any
randomised access sequence."""

from hypothesis import given, settings, strategies as st

from repro.check.trace import bank_commands
from repro.config import DramTimings, PagePolicy
from repro.dram.bank import Bank, RankTimer
from repro.dram.commands import CommandType
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs

T = TimingPs.from_config(DramTimings(), 3000, 4)

#: (is_write, row, num_lines) random access descriptors.
accesses = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=1,
    max_size=25,
)


def run_sequence(policy, ops):
    bank = Bank(0, T, policy)
    bank.enable_trace()
    bus, rank = BusResource("b"), RankTimer()
    now = 0
    for is_write, row, num_lines in ops:
        result = (bank.write(now, row, bus, rank) if is_write
                  else bank.read(now, row, num_lines, bus, rank))
        now = max(now, result.command_start)
    return bank


@given(ops=accesses, policy=st.sampled_from(list(PagePolicy)))
@settings(max_examples=60, deadline=None)
def test_act_to_act_respects_trc(ops, policy):
    bank = run_sequence(policy, ops)
    acts = [time_ps for kind, time_ps, _ in bank_commands(bank.command_log)
            if kind is CommandType.ACTIVATE]
    for first, second in zip(acts, acts[1:]):
        assert second - first >= T.tRC


@given(ops=accesses, policy=st.sampled_from(list(PagePolicy)))
@settings(max_examples=60, deadline=None)
def test_activate_and_precharge_counts_balance(ops, policy):
    bank = run_sequence(policy, ops)
    # Under close page every ACT is auto-precharged; under open page the
    # last row may still be open, so PRE lags ACT by at most one.
    diff = bank.stats.activates - bank.stats.precharges
    if policy is PagePolicy.CLOSE_PAGE:
        assert diff == 0
    else:
        assert diff in (0, 1)


@given(ops=accesses, policy=st.sampled_from(list(PagePolicy)))
@settings(max_examples=60, deadline=None)
def test_column_commands_follow_their_activate(ops, policy):
    bank = run_sequence(policy, ops)
    last_act = None
    for kind, time_ps, row in bank_commands(bank.command_log):
        if kind is CommandType.ACTIVATE:
            last_act = (time_ps, row)
        elif (kind in (CommandType.READ, CommandType.WRITE)
              and last_act is not None and last_act[1] == row):
            assert time_ps >= last_act[0] + T.tRCD


@given(ops=accesses)
@settings(max_examples=40, deadline=None)
def test_close_page_column_count_matches_requests(ops):
    bank = run_sequence(PagePolicy.CLOSE_PAGE, ops)
    expected_cols = sum(1 if w else n for w, _, n in ops)
    assert bank.stats.reads + bank.stats.writes == expected_cols
