"""Packed journal records: one 64-bit int per journalled command.

``repro.dram.commands`` declares the record layout once; the bank and
link writers append to it and the protocol check reads it.  These tests
pin the layout's two promises (a round trip, and raw-int order being the
audit's ``(time, command)`` walk order) and that a value which does not
fit its field fails instead of wrapping, both in a run and at the writer.
"""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    DramTimings,
    PagePolicy,
    ddr2_baseline,
    fbdimm_amb_prefetch,
)
from repro.dram.bank import Bank, RankTimer
from repro.dram.commands import (
    BANK_FIELDS,
    LOW_MASK,
    MID_MASK,
    TIME_LIMIT,
    pack_record,
    unpack_record,
)
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs
from repro.system import System

times = st.integers(0, TIME_LIMIT - 1)
mids = st.integers(0, MID_MASK)
lows = st.integers(0, LOW_MASK)
records = st.tuples(times, mids, lows)


@given(records)
def test_round_trip(fields):
    record = pack_record(*fields, BANK_FIELDS)
    assert 0 <= record < 1 << 63
    assert unpack_record(record) == fields


@given(st.lists(records, max_size=20))
def test_int_order_is_field_order(fields):
    """Sorting packed records sorts by (time, command, row): the bank
    walk's order, ties between rows being irrelevant to every rule."""
    packed = sorted(pack_record(*f, BANK_FIELDS) for f in fields)
    assert [unpack_record(record) for record in packed] == sorted(fields)


@pytest.mark.parametrize("fields, name", [
    ((TIME_LIMIT, 0, 0), "time_ps"),
    ((-1, 0, 0), "time_ps"),
    ((0, MID_MASK + 1, 0), "command"),
    ((0, 0, LOW_MASK + 1), "row"),
    ((0, 0, -1), "row"),
])
def test_unfit_field_is_named(fields, name):
    with pytest.raises(ValueError, match=f"^{name} .* does not fit"):
        pack_record(*fields, BANK_FIELDS)


def _checked(config):
    return replace(config, instructions_per_core=2000, check_protocol=True)


@pytest.mark.parametrize("change, message", [
    (lambda c: replace(c, memory=replace(c.memory, rows_per_bank=LOW_MASK + 2)),
     "last row"),
    (lambda c: c.with_faults(error_rate=1e-3, max_retries=LOW_MASK),
     "last replay"),
    # A 4096-B line is a 768 ns burst; the row and write windows grow
    # past it so the config is valid and only the frame count is too big.
    (lambda c: replace(c, memory=replace(
        c.memory, cacheline_bytes=4096, page_bytes=16384,
        timings=replace(c.memory.timings, tRAS=800.0, tRC=820.0, tWPD=800.0))),
     "frames per line"),
], ids=["rows", "retries", "frames"])
def test_checked_run_rejects_what_a_journal_cannot_hold(change, message):
    config = _checked(change(fbdimm_amb_prefetch(num_cores=1)))
    with pytest.raises(ValueError, match=message):
        System(config, ["swim"])
    # Unchecked, nothing is journalled and nothing needs to fit.
    System(replace(config, check_protocol=False), ["swim"])


def test_largest_journalled_row_count_runs():
    config = _checked(ddr2_baseline(num_cores=1))
    config = replace(config, memory=replace(config.memory,
                                            rows_per_bank=LOW_MASK + 1))
    assert System(config, ["swim"]).run().protocol_violations == []


def test_writer_fails_past_the_time_field():
    """A command journalled at or past 2**(63 - TIME_SHIFT) ps overflows the
    ``array('q')`` instead of wrapping into another record."""
    bank = Bank(0, TimingPs.from_config(DramTimings(), 3000, 4),
                PagePolicy.CLOSE_PAGE)
    bank.enable_trace()
    bank.read(TIME_LIMIT - 10**6, 5, 1, BusResource("bus"), RankTimer())
    assert len(bank.command_log) == 3
    with pytest.raises(OverflowError):
        bank.read(TIME_LIMIT, 5, 1, BusResource("bus"), RankTimer())
