"""Differential property suite: the protocol check vs its frozen oracle.

``repro.check.protocol.check_journals`` audits journals where they sit;
``tests/_legacy_protocol.py`` is the frozen event replay it replaced.
Hypothesis takes real journals from short runs (DDR2, FB-DIMM, FB-DIMM
with AMB prefetch, the same with link faults and replays, controller-side
prefetch, and a tFAW device) and mutates them at random: an event shifted
by ±k ps, dropped, copied up to three times, moved to another bank or
row, given another kind or replay attempt, or (frames) moved off the
frame grid.

The oracle is fed the events in one canonical order, ``(time_ps,
command code, channel, dimm, rank, bank)`` with frame events at code 0;
the check takes them in list order or sorted.  With both caps lifted the
check must report the oracle's ``{(rule, location, time_ps)}`` set, each
oracle violation located through the table in the protocol module's
docstring, and with the caps on exactly the earliest
``min(n, MAX_VIOLATIONS)`` of that set.  ``check_protocol_violations()``
on a real run, its journals mutated in place, must do the same.
"""

import dataclasses
import random
import sys
from contextlib import contextmanager
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.check.protocol as protocol
import tests._legacy_protocol as legacy
from repro.check.protocol import MAX_VIOLATIONS, check_journals, check_trace
from repro.check.selftest import cases as self_test_cases
from repro.check.trace import (
    DRAM_COMMANDS,
    EVENT_KINDS,
    FRAME_EVENTS,
    event_journals,
    journal_events,
)
from repro.config import (
    PrefetchLocation,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.dram.commands import (
    BANK_FIELDS,
    NORTH_FIELDS,
    SOUTH_FIELDS,
    pack_record,
    unpack_record,
)
from repro.system import System

INSTS = 3000


def _controller(config):
    """The memory controller of one short checked run."""
    system = System(
        dataclasses.replace(config, instructions_per_core=INSTS,
                            check_protocol=True),
        ["swim", "wupwise"],
    )
    system.run()
    return system.controller


@pytest.fixture(scope="module")
def controllers():
    return {
        "ddr2": _controller(ddr2_baseline(num_cores=2)),
        "fbd": _controller(fbdimm_baseline(num_cores=2)),
        "fbd-ap": _controller(fbdimm_amb_prefetch(num_cores=2)),
        "fbd-ap-faults": _controller(
            fbdimm_amb_prefetch(num_cores=2).with_faults(error_rate=2e-2)
        ),
        "fbd-ctl": _controller(
            fbdimm_amb_prefetch(num_cores=2).with_prefetch(
                location=PrefetchLocation.CONTROLLER)
        ),
        "ddr4-2400": _controller(
            ddr2_baseline(num_cores=2).with_device("ddr4-2400")
        ),
    }


@pytest.fixture(scope="module")
def journals(controllers):
    """(params, time-sorted events) per run, with the retry budget set
    exactly as the post-run check sets it."""
    runs = {
        name: (controller.check_params(), controller.collect_check_events())
        for name, controller in controllers.items()
    }
    _, faulted = runs["fbd-ap-faults"]
    assert any(e.retry for e in faulted), "faulted run journalled no replay"
    assert runs["ddr4-2400"][0].timing.tFAW > 0
    return runs


BANK_RULES = {"row-state", "tRCD", "tRAS", "tRPD", "tWPD", "tRP", "tRC"}
RANK_RULES = {"tRRD", "tFAW", "tWTR"}
BUS_RULES = {"burst-overlap", "bus-turnaround"}


def _canonical(event):
    code = (DRAM_COMMANDS.index(event.kind) if event.kind in DRAM_COMMANDS
            else 0)
    return (event.time_ps, code, event.channel, event.dimm, event.rank,
            event.bank)


def _location(params, violation):
    """Where the check reports an oracle violation (the location table)."""
    e = violation.second
    if violation.rule in BANK_RULES:
        return f"ch{e.channel}.dimm{e.dimm}.rank{e.rank}.bank{e.bank}"
    if violation.rule in RANK_RULES:
        return f"ch{e.channel}.dimm{e.dimm}.rank{e.rank}"
    if violation.rule in BUS_RULES:
        return (f"ch{e.channel}" if params.kind == "ddr2"
                else f"ch{e.channel}.dimm{e.dimm}")
    link = "northbound" if e.kind == "NB_LINE" else "southbound"
    return f"ch{e.channel}.{link}"


@contextmanager
def _uncapped():
    with mock.patch.object(legacy, "MAX_VIOLATIONS", sys.maxsize), \
            mock.patch.object(protocol, "MAX_VIOLATIONS", sys.maxsize):
        yield


def _keys(violations):
    keys = [(v.rule, v.location, v.time_ps) for v in violations]
    assert len(set(keys)) == len(keys), "one violation per key"
    return keys


def _earliest(keys):
    return sorted(keys, key=itemgetter(2, 0, 1))[:MAX_VIOLATIONS]


def _outside_geometry(params, events):
    """Whether some DRAM command names a place ``params`` has not (a
    ``kind`` mutation turns a frame event into one at bank -1)."""
    try:
        for event in events:
            params.check_location(event)
    except ValueError:
        return True
    return False


def _assert_reports_oracle(params, events, check=None):
    """``check()`` (default: ``check_trace`` over ``events`` in list
    order) reports the oracle's located set, and capped, its earliest
    entries.  Returns that set.  ``check_trace`` rejects a command
    outside the geometry, so the default then audits the events'
    journals instead, which judge every location."""
    if check is None and _outside_geometry(params, events):
        with pytest.raises(ValueError, match="outside the trace's geometry"):
            check_trace(params, events)
        # Such a command keeps the frame event's row -1, which no journal
        # field holds and no rule reads: it is journalled at row 0.
        journalled = [event._replace(row=0)
                      if event.row < 0 and event.is_dram_command else event
                      for event in events]

        def check():
            return check_journals(params, *event_journals(journalled))
    elif check is None:
        def check():
            return check_trace(params, events)
    with _uncapped():
        replayed = legacy.ProtocolChecker(params).check(
            sorted(events, key=_canonical))
        expected = {(v.rule, _location(params, v), v.time_ps)
                    for v in replayed}
        assert set(_keys(check())) == expected
    assert _keys(check()) == _earliest(expected)
    return expected


def _mutate(rnd, params, events, op):
    """Apply one mutation named ``op`` in place; a no-op on an empty list."""
    if not events:
        return
    i = rnd.randrange(len(events))
    event = events[i]
    if op == "shift":
        k = rnd.choice([1, params.timing.clock, params.timing.tRCD,
                        rnd.randint(1, 4 * params.timing.tRC)])
        k = k if rnd.random() < 0.5 else -k
        events[i] = event._replace(time_ps=max(0, event.time_ps + k))
    elif op == "drop":
        del events[i]
    elif op == "duplicate":
        # Up to three copies: enough to overfill a southbound frame.
        events[i:i] = [event] * rnd.randint(1, 3)
    elif op == "bank":
        events[i] = event._replace(bank=rnd.randrange(params.banks_per_dimm))
    elif op == "row":
        events[i] = event._replace(row=event.row + rnd.randint(1, 3))
    elif op == "kind":
        events[i] = event._replace(kind=rnd.choice(EVENT_KINDS))
    elif op == "retry":
        frames = [j for j, e in enumerate(events) if e.kind in FRAME_EVENTS]
        j = rnd.choice(frames) if frames else i
        events[j] = events[j]._replace(retry=events[j].retry + rnd.randint(1, 3))
    elif op == "off-grid":
        frames = [j for j, e in enumerate(events) if e.kind in FRAME_EVENTS]
        j = rnd.choice(frames) if frames else i
        step = max(params.frame_ps, params.timing.clock)
        events[j] = events[j]._replace(
            time_ps=events[j].time_ps + rnd.randint(1, step - 1)
        )


OPS = ["shift", "drop", "duplicate", "bank", "row", "kind", "retry",
       "off-grid"]


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["ddr2", "fbd", "fbd-ap", "fbd-ap-faults",
                          "ddr4-2400"]),
    ops=st.lists(st.sampled_from(OPS), max_size=6),
    seed=st.integers(0, 2**32 - 1),
    window=st.integers(0, 400),
    presorted=st.booleans(),
)
def test_mutated_journals_match_legacy(journals, name, ops, seed, window,
                                       presorted):
    params, journal = journals[name]
    rnd = random.Random(seed)
    # A window of the journal keeps each example fast; mutations land
    # anywhere in it.
    start = rnd.randrange(max(1, len(journal) - window))
    events = list(journal[start:start + window])
    for op in ops:
        _mutate(rnd, params, events, op)
    if presorted:
        events.sort(key=itemgetter(0))
    _assert_reports_oracle(params, events)


#: The runs mutated whole: link faults and replays, DDR2 bus turnaround,
#: controller-side prefetch buffering, and a tFAW device.
AUDITED = ["fbd-ap-faults", "ddr2", "fbd-ctl", "ddr4-2400"]


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(AUDITED),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    presorted=st.booleans(),
)
def test_mutated_whole_journals_match_legacy(journals, name, ops, seed,
                                             presorted):
    """Whole journals, so an unmutated stream is clean and any report is
    the mutation's.  Journals are built from the mutated events in list
    order (banks out of time order when a shift passes a neighbour) or
    time-sorted."""
    params, journal = journals[name]
    rnd = random.Random(seed)
    events = list(journal)
    for op in ops:
        _mutate(rnd, params, events, op)
    if presorted:
        events.sort(key=itemgetter(0))
    _assert_reports_oracle(params, events)


@pytest.mark.parametrize("name", ["ddr2", "fbd", "fbd-ap", "fbd-ap-faults",
                                  "ddr4-2400"])
def test_whole_journals_clean_and_equal(journals, name):
    params, journal = journals[name]
    assert _assert_reports_oracle(params, journal) == set()


@pytest.mark.parametrize("name", ["ddr2", "fbd-ap-faults", "ddr4-2400"])
def test_violation_cap_matches_legacy(journals, name):
    """Time-compressed journals break rules on nearly every event: the
    report is the earliest MAX_VIOLATIONS of the oracle's set."""
    params, journal = journals[name]
    events = [e._replace(time_ps=e.time_ps // 16) for e in journal]
    assert len(_assert_reports_oracle(params, events)) > MAX_VIOLATIONS
    assert len(check_trace(params, events)) == MAX_VIOLATIONS


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_overfilled_frames_match_legacy(journals, copies):
    """Every frame event repeated: southbound frames pass three commands
    (or one command plus data) and northbound frames are booked twice."""
    params, journal = journals["fbd-ap-faults"]
    events = []
    for event in journal:
        events.extend([event] * (1 + copies if event.kind in FRAME_EVENTS
                                 else 1))
    rules = {key[0] for key in _assert_reports_oracle(params, events)}
    assert {"frame-reuse", "frame-overcommit"} <= rules


def test_retry_budget_rule_matches_legacy(journals):
    params, journal = journals["fbd-ap-faults"]
    tight = dataclasses.replace(params, max_retries=1)
    events = [e._replace(retry=e.retry + 2) if e.kind in FRAME_EVENTS else e
              for e in journal]
    report = _assert_reports_oracle(tight, events)
    assert {key[0] for key in report} >= {"retry-budget"}


@pytest.mark.parametrize("case", self_test_cases(), ids=lambda c: c.name)
def test_self_test_cases_match_legacy(case):
    report = _assert_reports_oracle(case.params, case.events)
    assert {key[0] for key in report} == set(case.expect_rules)


@pytest.mark.parametrize("name", AUDITED)
def test_real_runs_pass_the_check(controllers, journals, name):
    controller = controllers[name]
    params, events = journals[name]
    banks, links = [], []
    for channel in controller.channels:
        banks += channel.bank_journals()
        links += channel.link_journals()
    assert check_journals(params, banks, links) == []
    assert controller.check_protocol_violations() == []
    # The differential builds its journals with event_journals: on a real
    # run they hold exactly the events the journals do.
    assert sorted(journal_events(*event_journals(events))) == sorted(events)


def _journal_lists(controller):
    """Every journal of a run, with the field names of its packed
    records (``repro.dram.commands``): bank command logs ``(time, code,
    row)``, southbound ``(start, code, retry)`` and northbound ``(start,
    frames, retry)`` link journals."""
    lists = []
    for channel in controller.channels:
        lists += [(log, BANK_FIELDS) for _, log in channel.bank_journals()]
        for _, south, north in channel.link_journals():
            lists += [(south, SOUTH_FIELDS), (north, NORTH_FIELDS)]
    return lists


def _mutate_in_place(rnd, params, lists, op):
    """Shift, drop or copy one journal record, or bump its replay attempt."""
    journal, names = rnd.choice([entry for entry in lists if entry[0]])
    i = rnd.randrange(len(journal))
    time_ps, mid, low = unpack_record(journal[i])
    if op == "drop":
        del journal[i]
    elif op == "duplicate":
        journal[i:i] = journal[i:i + 1] * rnd.randint(1, 3)
    elif op == "retry" and names[2] == "retry":
        journal[i] = pack_record(time_ps, mid, low + rnd.randint(1, 3), names)
    else:
        k = rnd.choice([1, params.timing.clock, params.timing.tRCD,
                        rnd.randint(1, 4 * params.timing.tRC)])
        k = k if rnd.random() < 0.5 else -k
        journal[i] = pack_record(max(0, time_ps + k), mid, low, names)


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(AUDITED),
    ops=st.lists(st.sampled_from(["shift", "drop", "duplicate", "retry"]),
                 max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_mutated_run_reports_the_replay(controllers, name, ops, seed):
    """Mutate a real run's journals where they sit (restored afterwards):
    ``check_protocol_violations()`` reports what the oracle replays."""
    controller = controllers[name]
    params = controller.check_params()
    lists = _journal_lists(controller)
    saved = [journal[:] for journal, _ in lists]
    rnd = random.Random(seed)
    try:
        for op in ops:
            _mutate_in_place(rnd, params, lists, op)
        _assert_reports_oracle(params, controller.collect_check_events(),
                               controller.check_protocol_violations)
    finally:
        for (journal, _), original in zip(lists, saved):
            journal[:] = original
