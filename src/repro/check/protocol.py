"""DDR2 / FB-DIMM protocol checker.

Audits a run's command journals where they sit and re-derives every
Table 2 constraint from first principles — deliberately sharing no code
with the bank model it audits, so a scheduler or bank-state bug cannot
hide by being self-consistent.

Checked rules (rule ids in parentheses) and the location each reports:

* same bank, at ``chC.dimmD.rankR.bankB`` — ACT→RD/WR ≥ tRCD (``tRCD``),
  ACT→PRE ≥ tRAS (``tRAS``), RD→PRE ≥ tRPD (``tRPD``), WR→PRE ≥ tWPD
  (``tWPD``), PRE→ACT ≥ tRP (``tRP``), ACT→ACT ≥ tRC (``tRC``), and no
  column command to a closed bank and no double ACT (``row-state``);
* same rank, at ``chC.dimmD.rankR`` — consecutive ACTs ≥ tRRD apart
  (``tRRD``), write-data end to the next RD command ≥ tWTR (``tWTR``),
  and — when the device generation defines a four-activate window
  (``timing.tFAW > 0``; DDR2 presets leave it 0) — any five consecutive
  ACTs span at least tFAW (``tFAW``);
* data bus, at ``chC`` (DDR2, one bus per channel) or ``chC.dimmD``
  (FB-DIMM, one bus per DIMM behind its AMB) — burst occupancy windows
  must not overlap (``burst-overlap``); on DDR2, bursts of different
  direction or rank must additionally be separated by the switching
  bubble (``bus-turnaround``);
* FB-DIMM frames, at ``chC.southbound`` or ``chC.northbound`` — slot
  starts must sit on the frame grid (``frame-align``; any frame event in
  a DDR2 trace breaks it too), southbound frames hold at most three
  commands or one command plus write data (``frame-overcommit``),
  northbound frames carry at most one line and a line's frames are
  contiguous (``frame-reuse``);
* fault-injection replays — when ``params.max_retries`` is set, no frame
  event's replay attempt may exceed ``max_retries + 1``, the +1 being the
  post-reset recovery replay (``retry-budget``).

:func:`check_journals` reads the journals one channel at a time, with
no event list, and holds nothing of a channel once it moves on:

* each bank log is walked in ``(time, command)`` order, which is ACT,
  RD, WR, PRE at one instant: the order its packed records
  (``repro.dram.commands``) sort in as plain ints;
* each rank's sorted ACT times give tRRD (neighbours) and tFAW
  (``act[i] - act[i-4]``); a RD breaks tWTR when a WR of its rank
  strictly before it has a data end less than tWTR before it;
* each bus's sorted burst starts give the bus rules.  Bursts that start
  together on a DDR2 bus are taken in issue order: RD before WR (while
  tWL ≤ tCL), then by (dimm, rank);
* the link journals give the frame rules: southbound overcommit from
  each frame's final slot count (exact: counts only grow), northbound
  reuse from the sorted line starts and ends.

No answer depends on the order of records in a journal.  The report is
the earliest :data:`MAX_VIOLATIONS` violations by ``(time_ps, rule,
location)``, one per key.  Every ``(rule, location)`` stream is met in
time order, so each stops collecting at :data:`MAX_VIOLATIONS` instants
and the cut is still exact; a badly broken trace's report stays bounded.

Known model approximations the checker deliberately does *not* police:
command-bus slot exclusivity (the simulator reserves one command-bus slot
per transaction, not per command) and refresh (tRFC windows are modelled
as bank-busy time, not as REF commands in the trace).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import add, and_, attrgetter, eq, lt, mul, rshift, sub
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.check.trace import (
    DRAM_COMMANDS,
    BankJournal,
    CheckEvent,
    LinkJournal,
    TraceParams,
    event_journals,
)
from repro.dram.commands import (
    ACT,
    LOW_MASK,
    MID_MASK,
    MID_SHIFT,
    PRE,
    RD,
    TIME_SHIFT,
    unpack_record,
)

#: Cap on violations kept per check run; a broken trace would otherwise
#: produce one report per command.
MAX_VIOLATIONS = 200


@dataclass(frozen=True)
class Violation:
    """One protocol violation: the rule, the instant, where, and why."""

    rule: str
    time_ps: int
    location: str
    message: str

    def format(self) -> str:
        return f"[{self.rule}] t={self.time_ps}ps {self.location}: {self.message}"


class ProtocolViolationError(AssertionError):
    """Raised by the runtime assertion layer when a run breaks protocol."""

    def __init__(self, violations: List[Violation]) -> None:
        self.violations = violations
        shown = "\n  ".join(v.format() for v in violations[:10])
        extra = len(violations) - min(len(violations), 10)
        suffix = f"\n  ... and {extra} more" if extra > 0 else ""
        super().__init__(
            f"{len(violations)} protocol violation(s):\n  {shown}{suffix}"
        )


#: ``(rule, location) -> {time_ps: message}``: what each stream found.
_Found = Dict[Tuple[str, str], Dict[int, str]]

_NEVER = float("-inf")
#: Past every time an ``array('q')`` journal can hold.
_AFTER_ALL = 1 << 63


def check_journals(
    params: TraceParams,
    banks: Iterable[BankJournal],
    links: Iterable[LinkJournal],
) -> List[Violation]:
    """Every protocol violation in these journals (one entry per bank and
    per channel): the earliest :data:`MAX_VIOLATIONS`, sorted by
    ``(time_ps, rule, location)``.  Every rule is local to a channel, so
    the check takes one channel at a time."""
    bank_groups: Dict[int, List[BankJournal]] = {}
    for journal in banks:
        bank_groups.setdefault(journal[0][0], []).append(journal)
    link_groups: Dict[int, List[LinkJournal]] = {}
    for journal in links:
        link_groups.setdefault(journal[0], []).append(journal)
    found: _Found = {}
    for channel in sorted(bank_groups.keys() | link_groups.keys()):
        _check_banks(params, channel, bank_groups.get(channel, ()), found)
        _check_links(params, channel, link_groups.get(channel, ()), found)
    if not found:
        return []
    report = [
        Violation(rule, time_ps, location, message)
        for (rule, location), times in found.items()
        for time_ps, message in times.items()
    ]
    report.sort(key=attrgetter("time_ps", "rule", "location"))
    return report[:MAX_VIOLATIONS]


def check_trace(params: TraceParams, events: Iterable[CheckEvent]) -> List[Violation]:
    """:func:`check_journals` over check events, in any order.

    Raises ValueError for a DRAM command outside the geometry of
    ``params`` (:meth:`TraceParams.check_location`).
    """
    return check_journals(params, *event_journals(_located(params, events)))


def _located(params: TraceParams,
             events: Iterable[CheckEvent]) -> Iterator[CheckEvent]:
    check = params.check_location
    for event in events:
        check(event)
        yield event


def _flag(found: _Found, rule: str, location: str, time_ps: int,
          message: str) -> None:
    """Note one violation, once per instant.  A ``(rule, location)``
    stream comes in time order, so once it holds :data:`MAX_VIOLATIONS`
    instants no later one can make the report."""
    times = found.setdefault((rule, location), {})
    if time_ps not in times and len(times) < MAX_VIOLATIONS:
        times[time_ps] = message


def _gap(what: str, time_ps: int, earlier: float, minimum: int) -> str:
    return (f"{what}: gap {time_ps - earlier}ps < {minimum}ps "
            f"(previous at t={earlier}ps)")


def _flag_gaps(found: _Found, rule: str, location: str,
               pairs: List[Tuple[int, int]], minimum: int, what: str) -> None:
    """Flag each ``(time_ps, earlier)`` pair, in time order."""
    for time_ps, earlier in pairs:
        _flag(found, rule, location, time_ps,
              _gap(what, time_ps, earlier, minimum))


def _check_banks(params: TraceParams, channel: int,
                 journals: Iterable[BankJournal], found: _Found) -> None:
    """The bank, rank and data-bus rules over one channel's bank journals."""
    t = params.timing
    tRC, tRP, tRAS, tRCD = t.tRC, t.tRP, t.tRAS, t.tRCD
    tRPD, tWPD = t.tRPD, t.tWPD
    time_shift, mid_shift, mid_mask = TIME_SHIFT, MID_SHIFT, MID_MASK
    # (dimm, rank) -> ACT, RD and WR command times, in walk order
    ranks: Dict[Tuple[int, int], Tuple[array, array, array]] = {}
    for (_, dimm, rank, bank), log in journals:
        columns = ranks.get((dimm, rank))
        if columns is None:
            columns = ranks[dimm, rank] = (array("q"), array("q"), array("q"))
        acts, rds, wrs = columns
        location = f"ch{channel}.dimm{dimm}.rank{rank}.bank{bank}"
        last_act = last_pre = last_rd = last_wr = _NEVER
        open_row = False
        # Packed records sort by (time, command), the walk order (rows,
        # which no rule reads, break ties); timsort takes one pass over a
        # log already in order, as every clean run's is.
        for record in sorted(log):
            time_ps = record >> time_shift
            code = record >> mid_shift & mid_mask
            if code == ACT:
                if open_row:
                    _flag(found, "row-state", location, time_ps,
                          "ACT while a row is already open (missing PRE)")
                if time_ps - last_act < tRC:
                    _flag(found, "tRC", location, time_ps,
                          _gap("ACT after ACT", time_ps, last_act, tRC))
                if time_ps - last_pre < tRP:
                    _flag(found, "tRP", location, time_ps,
                          _gap("ACT after PRE", time_ps, last_pre, tRP))
                open_row = True
                last_act = time_ps
                last_rd = last_wr = _NEVER
                acts.append(time_ps)
            elif code == PRE:
                if not open_row:
                    _flag(found, "row-state", location, time_ps,
                          "PRE with no row open")
                if time_ps - last_act < tRAS:
                    _flag(found, "tRAS", location, time_ps,
                          _gap("PRE after ACT", time_ps, last_act, tRAS))
                if time_ps - last_rd < tRPD:
                    _flag(found, "tRPD", location, time_ps,
                          _gap("PRE after RD", time_ps, last_rd, tRPD))
                if time_ps - last_wr < tWPD:
                    _flag(found, "tWPD", location, time_ps,
                          _gap("PRE after WR", time_ps, last_wr, tWPD))
                open_row = False
                last_pre = time_ps
            else:
                if not open_row:
                    _flag(found, "row-state", location, time_ps,
                          f"{DRAM_COMMANDS[code]} with no row open")
                if time_ps - last_act < tRCD:
                    _flag(found, "tRCD", location, time_ps,
                          _gap(f"{DRAM_COMMANDS[code]} after ACT",
                               time_ps, last_act, tRCD))
                if code == RD:
                    last_rd = time_ps
                    rds.append(time_ps)
                else:
                    last_wr = time_ps
                    wrs.append(time_ps)

    # Gap rules over each rank's sorted ACT times: times[i] must follow
    # times[i - lag] by at least the minimum.
    act_rules = [("tRRD", 1, t.tRRD, "ACT after rank ACT")]
    if t.tFAW:
        act_rules.append(("tFAW", 4, t.tFAW,
                          "fifth ACT inside the tFAW window"))
    tWL, burst, tWTR = t.tWL, t.burst, t.tWTR
    wr_reach = tWL + burst + tWTR  # WR command to its tWTR window end
    times: list = []
    for (dimm, rank), (acts, rds, wrs) in ranks.items():
        location = f"ch{channel}.dimm{dimm}.rank{rank}"
        times = sorted(acts)
        for rule, lag, minimum, what in act_rules:
            pairs = list(compress(
                zip(islice(times, lag, None), times),
                map(minimum.__gt__, map(sub, islice(times, lag, None), times)),
            ))
            if pairs:
                _flag_gaps(found, rule, location, pairs, minimum, what)
        if not wrs:
            continue
        # A RD breaks tWTR when the first WR after ``RD - wr_reach`` comes
        # strictly before it; the tail answers for a RD with none.
        writes = sorted(wrs)
        writes.append(_AFTER_ALL)
        times = sorted(rds)
        for time_ps in compress(times, map(lt, map(
                writes.__getitem__,
                map(bisect_right, repeat(writes),
                    map(sub, times, repeat(wr_reach)))), times)):
            # The latest WR before the RD binds it.
            end = writes[bisect_left(writes, time_ps) - 1] + tWL + burst
            _flag(found, "tWTR", location, time_ps,
                  _gap("RD after write-data end", time_ps, end, tWTR))
    del times  # the last rank's: one sorted list alive at a time

    tCL = t.tCL
    if params.kind == "fbdimm":
        # One data bus per DIMM, behind its AMB, built and checked in turn.
        dimms: Dict[int, list] = {}
        for (dimm, _), columns in ranks.items():
            dimms.setdefault(dimm, []).append(columns)
        for dimm, rank_columns in dimms.items():
            bus: List[int] = []
            for _, rds, wrs in rank_columns:
                bus += map(tCL.__add__, rds)
                bus += map(tWL.__add__, wrs)
            bus.sort()
            pairs = list(compress(
                zip(islice(bus, 1, None), bus),
                map(burst.__gt__, map(sub, islice(bus, 1, None), bus)),
            ))
            if pairs:
                _flag_gaps(found, "burst-overlap", f"ch{channel}.dimm{dimm}",
                           pairs, burst, "burst start after burst start")
        return
    # DDR2: one bus per channel, whose bursts carry a (direction, rank)
    # tag.  Each burst is one int, start * scale + tag, so the bus sorts
    # by start, then in issue order, with no tuple per burst.
    scale = 2 * len(ranks)
    rd_tag, wr_tag = (0, len(ranks)) if tCL >= tWL else (len(ranks), 0)
    bus = []
    for tag, (_, (_, rds, wrs)) in enumerate(sorted(ranks.items())):
        bus += map((tCL * scale + rd_tag + tag).__add__, map(scale.__mul__, rds))
        bus += map((tWL * scale + wr_tag + tag).__add__, map(scale.__mul__, wrs))
    del ranks
    bus.sort()
    starts = array("q", map(scale.__rfloordiv__, bus))
    # Neighbouring bursts closer than a burst overlap; closer than a
    # burst plus the switch gap, they need the same tag.
    pairs = list(compress(
        zip(islice(starts, 1, None), starts),
        map(burst.__gt__, map(sub, islice(starts, 1, None), starts)),
    ))
    if pairs:
        _flag_gaps(found, "burst-overlap", f"ch{channel}", pairs, burst,
                   "burst start after burst start")
    gap = params.switch_gap_ps
    pairs = list(compress(
        zip(islice(starts, 1, None), starts),
        map(mul,
            map(range(burst, burst + gap).__contains__,
                map(sub, islice(starts, 1, None), starts)),
            map(scale.__rmod__, map(sub, islice(bus, 1, None), bus))),
    ))
    if pairs:
        _flag_gaps(found, "bus-turnaround", f"ch{channel}", pairs,
                   burst + gap,
                   "burst start across a direction or rank switch")


def _check_links(params: TraceParams, channel: int,
                 journals: Iterable[LinkJournal], found: _Found) -> None:
    """The frame and retry rules over one channel's link journals, packed
    records (``repro.dram.commands``): south ``(start, code, retry)``,
    north ``(start, frames, retry)``."""
    frame_ps = params.frame_ps
    phase = params.nb_phase_ps
    budget = params.max_retries
    south_at, north_at = f"ch{channel}.southbound", f"ch{channel}.northbound"
    # A field is one C-level pass: ``map(rshift, journal, shifts)``.
    shifts, masks = repeat(TIME_SHIFT), repeat(LOW_MASK)
    code_bits = repeat(MID_MASK << MID_SHIFT)
    for _, south, north in journals:
        if params.kind == "ddr2":
            for location, journal in ((south_at, south), (north_at, north)):
                for time_ps in sorted(map(rshift, journal, shifts)):
                    _flag(found, "frame-align", location, time_ps,
                          "frame event in a ddr2 trace")
            continue
        if budget:
            for location, journal in ((south_at, south), (north_at, north)):
                late = list(compress(journal, map(
                    (budget + 1).__lt__, map(and_, journal, masks))))
                for time_ps, retry in sorted(zip(map(rshift, late, shifts),
                                                 map(and_, late, masks))):
                    _flag(found, "retry-budget", location, time_ps,
                          f"replay attempt {retry} exceeds the retry budget "
                          f"of {budget} (+1 recovery replay)")
        # A southbound frame holds three commands, or one command plus
        # data: with each data booking listed twice, no frame start may
        # appear four times in the sorted slot starts.
        slots = sorted(chain(
            map(rshift, south, shifts),
            map(rshift, compress(south, map(and_, south, code_bits)), shifts),
        ))
        off_grid = list(compress(slots, map(frame_ps.__rmod__, slots)))
        if off_grid:
            for time_ps in off_grid:
                _flag(found, "frame-align", south_at, time_ps,
                      f"southbound frame start off the {frame_ps}ps grid")
            slots = [start for start in slots if not start % frame_ps]
        for time_ps in compress(islice(slots, 3, None),
                                map(eq, slots, islice(slots, 3, None))):
            _flag(found, "frame-overcommit", south_at, time_ps,
                  "a southbound frame carries three commands, or one "
                  "command plus 16 B of data; this one holds more")
        del slots
        # Northbound lines, each [start, start + frames * frame_ps), must
        # sit on the shifted grid and be pairwise disjoint: with starts
        # and ends sorted apart, a start before the end ahead of it
        # overlaps a line booked before it.
        starts = sorted(map(rshift, north, shifts))
        frames = map(and_, map(rshift, north, repeat(MID_SHIFT)),
                     repeat(MID_MASK))
        ends = sorted(map(add, map(rshift, north, shifts), map(
            frame_ps.__mul__, map(max, frames, repeat(1)))))
        off_grid = list(compress(starts, map(frame_ps.__rmod__,
                                             map(sub, starts, repeat(phase)))))
        if off_grid:
            for time_ps in off_grid:
                _flag(found, "frame-align", north_at, time_ps,
                      f"northbound line start off the {frame_ps}ps grid "
                      f"(phase {phase}ps)")
            lines = [(start, start + max(frames, 1) * frame_ps)
                     for start, frames, _ in map(unpack_record, north)
                     if not (start - phase) % frame_ps]
            starts = sorted(start for start, _ in lines)
            ends = sorted(end for _, end in lines)
        for time_ps in compress(islice(starts, 1, None),
                                map(lt, islice(starts, 1, None), ends)):
            _flag(found, "frame-reuse", north_at, time_ps,
                  "northbound line overlaps a line booked before it")
