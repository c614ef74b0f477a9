"""DDR2 / FB-DIMM protocol checker.

Replays a time-sorted command trace through independent per-bank and
per-rank state machines and re-derives every Table 2 constraint from first
principles — deliberately sharing no code with the bank model it audits,
so a scheduler or bank-state bug cannot hide by being self-consistent.

Checked rules (rule ids in parentheses):

* same bank — ACT→RD/WR ≥ tRCD (``tRCD``), ACT→PRE ≥ tRAS (``tRAS``),
  RD→PRE ≥ tRPD (``tRPD``), WR→PRE ≥ tWPD (``tWPD``), PRE→ACT ≥ tRP
  (``tRP``), ACT→ACT ≥ tRC (``tRC``);
* bank state — no column command to a closed bank, no double ACT
  (``row-state``);
* same rank — consecutive ACTs ≥ tRRD apart (``tRRD``), write-data end to
  the next RD command ≥ tWTR (``tWTR``), and — when the device generation
  defines a four-activate window (``timing.tFAW > 0``; DDR2 presets leave
  it 0) — any five consecutive ACTs span at least tFAW (``tFAW``);
* data bus — burst occupancy windows must not overlap (``burst-overlap``);
  on DDR2, bursts of different direction or rank must additionally be
  separated by the switching bubble (``bus-turnaround``);
* FB-DIMM frames — slot starts must sit on the frame grid
  (``frame-align``), southbound frames hold at most three commands or one
  command plus write data (``frame-overcommit``), northbound frames carry
  at most one line and a line's frames are contiguous (``frame-reuse``);
* fault-injection replays — when ``params.max_retries`` is set, no frame
  event's replay attempt may exceed ``max_retries + 1``, the +1 being the
  post-reset recovery replay (``retry-budget``).

Two stages check a run.  :func:`journals_clean` decides whether it is
clean: it audits the journals where they sit, one channel at a time,
with no event list and no global sort.  Each bank log runs the bank
rules in log order; each rank's sorted ACT times give tRRD (neighbours)
and tFAW (``act[i] - act[i-4]``); tWTR breaks when a RD of the rank
comes at or after a WR's instant but before the WR's data end plus
tWTR; each bus's sorted burst starts give the bus rules; and the
channel's frame journals give the frame and retry rules, southbound
overcommit from each frame's final slot count (exact: counts only
grow), northbound reuse from the sorted line starts and ends.  Every
audit is exact except two
cases, which it reports as not clean: a bank log out of time order, and
a RD and a WR of one rank at the same instant, where the replay's tie
order decides tWTR.  A run that is not clean is replayed event by event
through :class:`ProtocolChecker`, the only author of violation reports.

Known model approximations the checker deliberately does *not* police:
command-bus slot exclusivity (the simulator reserves one command-bus slot
per transaction, not per command) and refresh (tRFC windows are modelled
as bank-busy time, not as REF commands in the trace).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import add, eq, itemgetter, lt, sub
from typing import Dict, Iterable, List, Optional, Tuple

from repro.check.trace import (
    DRAM_COMMANDS,
    FRAME_EVENTS,
    MEMORY_KINDS,
    BankJournal,
    CheckEvent,
    LinkJournal,
    TraceParams,
)
from repro.dram.commands import ACT, PRE, RD, SB_CMD

#: Cap on violations kept per check run; a broken trace would otherwise
#: produce one report per command.
MAX_VIOLATIONS = 200


@dataclass(frozen=True)
class Violation:
    """One protocol violation: the rule, the instant, and the command pair."""

    rule: str
    time_ps: int
    message: str
    first: Optional[CheckEvent] = None
    second: Optional[CheckEvent] = None

    def format(self) -> str:
        return f"[{self.rule}] t={self.time_ps}ps: {self.message}"


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


@dataclass
class _BankState:
    """Per-(channel, dimm, rank, bank) command history."""

    last_act: Optional[int] = None
    last_pre: Optional[int] = None
    last_rd: Optional[int] = None
    last_wr: Optional[int] = None
    last_act_event: Optional[CheckEvent] = None
    last_pre_event: Optional[CheckEvent] = None
    open_row: bool = False


@dataclass
class _RankState:
    """Per-(channel, dimm, rank) cross-bank history."""

    last_act: Optional[int] = None
    last_act_event: Optional[CheckEvent] = None
    wr_data_end: Optional[int] = None
    wr_event: Optional[CheckEvent] = None
    #: Last four ACT times+events (tFAW sliding window); only maintained
    #: when the trace's timing defines tFAW.
    act_window: List[Tuple[int, CheckEvent]] = field(default_factory=list)


@dataclass
class _FrameBook:
    """Southbound/northbound slot occupancy per channel."""

    #: southbound frame index -> [command_count, has_data]
    south: Dict[int, List[int]] = field(default_factory=dict)
    #: northbound frame index -> the NB_LINE event that booked it
    north: Dict[int, CheckEvent] = field(default_factory=dict)


class ProtocolChecker:
    """Validates a time-sorted :class:`CheckEvent` stream.

    One instance is single-use per trace: construct, call :meth:`check`,
    read the violations.
    """

    def __init__(self, params: TraceParams) -> None:
        if params.kind not in MEMORY_KINDS:
            raise ValueError(f"unknown memory kind {params.kind!r}")
        self.params = params
        self.timing = params.timing
        self.violations: List[Violation] = []
        self._banks: Dict[Tuple[int, int, int, int], _BankState] = {}
        self._ranks: Dict[Tuple[int, int, int], _RankState] = {}
        #: bus key -> list of (start, end, tag, event); DDR2 shares one bus
        #: per channel, FB-DIMM has one DDR2 bus per DIMM behind its AMB.
        self._bursts: Dict[Tuple, List[Tuple[int, int, Tuple, CheckEvent]]] = {}
        self._frames: Dict[int, _FrameBook] = {}
        self.commands_checked = 0

    # -- public API -----------------------------------------------------

    def check(self, events: List[CheckEvent]) -> List[Violation]:
        """Validate ``events`` (must be sorted by ``time_ps``)."""
        last_time = None
        for event in events:
            if last_time is not None and event.time_ps < last_time:
                raise ValueError(
                    "check trace is not time-sorted: "
                    f"{event.time_ps} after {last_time}"
                )
            last_time = event.time_ps
            kind = event.kind
            if kind in DRAM_COMMANDS:
                self._check_dram(event)
            elif kind in FRAME_EVENTS:
                self._check_frame(event)
            else:
                raise ValueError(f"unknown check-event kind {kind!r}")
            self.commands_checked += 1
            if len(self.violations) >= MAX_VIOLATIONS:
                break
        self._check_bursts()
        self.violations.sort(key=lambda v: v.time_ps)
        return self.violations

    # -- DRAM command rules ----------------------------------------------

    def _flag(
        self,
        rule: str,
        event: CheckEvent,
        message: str,
        first: Optional[CheckEvent] = None,
    ) -> None:
        self.violations.append(
            Violation(
                rule=rule, time_ps=event.time_ps, message=message,
                first=first, second=event,
            )
        )

    def _gap(
        self,
        rule: str,
        earlier: Optional[int],
        earlier_event: Optional[CheckEvent],
        event: CheckEvent,
        minimum: int,
        what: str,
    ) -> None:
        """Flag when ``event`` follows ``earlier`` by less than ``minimum``."""
        if earlier is None:
            return
        gap = event.time_ps - earlier
        if gap < minimum:
            self._flag(
                rule,
                event,
                f"{what} at {event.location()}: gap {gap}ps < {minimum}ps "
                f"(previous at t={earlier}ps)",
                first=earlier_event,
            )

    def _check_dram(self, event: CheckEvent) -> None:
        t = self.timing
        bank_key = (event.channel, event.dimm, event.rank, event.bank)
        rank_key = (event.channel, event.dimm, event.rank)
        bank = self._banks.get(bank_key)
        if bank is None:
            bank = self._banks[bank_key] = _BankState()
        rank = self._ranks.get(rank_key)
        if rank is None:
            rank = self._ranks[rank_key] = _RankState()

        if event.kind == "ACT":
            if bank.open_row:
                self._flag(
                    "row-state", event,
                    f"ACT at {event.location()} while a row is already open "
                    "(missing PRE)",
                    first=bank.last_act_event,
                )
            self._gap("tRC", bank.last_act, bank.last_act_event, event,
                      t.tRC, "ACT after ACT")
            self._gap("tRP", bank.last_pre, bank.last_pre_event, event,
                      t.tRP, "ACT after PRE")
            self._gap("tRRD", rank.last_act, rank.last_act_event, event,
                      t.tRRD, "ACT after rank ACT")
            if t.tFAW:
                window = rank.act_window
                if len(window) == 4:
                    oldest, oldest_event = window.pop(0)
                    self._gap("tFAW", oldest, oldest_event, event,
                              t.tFAW, "fifth ACT inside the tFAW window")
                window.append((event.time_ps, event))
            bank.last_act = event.time_ps
            bank.last_act_event = event
            bank.last_rd = bank.last_wr = None
            bank.open_row = True
            rank.last_act = event.time_ps
            rank.last_act_event = event
            return

        if event.kind == "PRE":
            if not bank.open_row:
                self._flag(
                    "row-state", event,
                    f"PRE at {event.location()} with no row open",
                )
            self._gap("tRAS", bank.last_act, bank.last_act_event, event,
                      t.tRAS, "PRE after ACT")
            self._gap("tRPD", bank.last_rd, None, event, t.tRPD,
                      "PRE after RD")
            self._gap("tWPD", bank.last_wr, None, event, t.tWPD,
                      "PRE after WR")
            bank.last_pre = event.time_ps
            bank.last_pre_event = event
            bank.open_row = False
            return

        # Column commands (RD / WR).
        if not bank.open_row:
            self._flag(
                "row-state", event,
                f"{event.kind} at {event.location()} with no row open",
            )
        self._gap("tRCD", bank.last_act, bank.last_act_event, event,
                  t.tRCD, f"{event.kind} after ACT")
        if event.kind == "RD":
            if rank.wr_data_end is not None:
                self._gap("tWTR", rank.wr_data_end, rank.wr_event, event,
                          t.tWTR, "RD after write-data end")
            bank.last_rd = event.time_ps
            self._note_burst(event, event.time_ps + t.tCL)
        else:  # WR
            bank.last_wr = event.time_ps
            data_end = event.time_ps + t.tWL + t.burst
            if rank.wr_data_end is None or data_end > rank.wr_data_end:
                rank.wr_data_end = data_end
                rank.wr_event = event
            self._note_burst(event, event.time_ps + t.tWL)

    # -- data-bus occupancy ------------------------------------------------

    def _note_burst(self, event: CheckEvent, start: int) -> None:
        if self.params.kind == "ddr2":
            bus_key: Tuple = ("ddr2", event.channel)
            tag: Tuple = (event.dimm, event.rank, event.kind)
        else:
            bus_key = ("dimm", event.channel, event.dimm)
            tag = ()
        self._bursts.setdefault(bus_key, []).append(
            (start, start + self.timing.burst, tag, event)
        )

    def _check_bursts(self) -> None:
        gap = self.params.switch_gap_ps
        for bus_key, bursts in sorted(self._bursts.items()):
            bursts.sort(key=itemgetter(0, 1))
            for (s1, e1, tag1, ev1), (s2, e2, tag2, ev2) in zip(
                bursts, bursts[1:]
            ):
                if s2 < e1:
                    self.violations.append(Violation(
                        rule="burst-overlap", time_ps=s2,
                        message=(
                            f"data bursts overlap on {'/'.join(map(str, bus_key))}: "
                            f"[{s1}, {e1}) from {ev1.kind}@{ev1.location()} vs "
                            f"[{s2}, {e2}) from {ev2.kind}@{ev2.location()}"
                        ),
                        first=ev1, second=ev2,
                    ))
                elif (
                    self.params.kind == "ddr2"
                    and tag1 != tag2
                    and s2 - e1 < gap
                ):
                    self.violations.append(Violation(
                        rule="bus-turnaround", time_ps=s2,
                        message=(
                            f"bursts {s2 - e1}ps apart across a "
                            f"direction/rank switch (< {gap}ps) on "
                            f"{'/'.join(map(str, bus_key))}: "
                            f"{ev1.kind}@{ev1.location()} then "
                            f"{ev2.kind}@{ev2.location()}"
                        ),
                        first=ev1, second=ev2,
                    ))

    # -- FB-DIMM frame slots ----------------------------------------------

    def _check_frame(self, event: CheckEvent) -> None:
        if self.params.kind != "fbdimm" or self.params.frame_ps <= 0:
            self._flag(
                "frame-align", event,
                f"frame event {event.kind} in a {self.params.kind} trace",
            )
            return
        frame_ps = self.params.frame_ps
        book = self._frames.get(event.channel)
        if book is None:
            book = self._frames[event.channel] = _FrameBook()

        budget = self.params.max_retries
        if budget and event.retry > budget + 1:
            self._flag(
                "retry-budget", event,
                f"{event.kind} replay attempt {event.retry} exceeds the "
                f"retry budget of {budget} (+1 recovery replay)",
            )

        if event.kind == "NB_LINE":
            phase = self.params.nb_phase_ps
            if (event.time_ps - phase) % frame_ps:
                self._flag(
                    "frame-align", event,
                    f"northbound line start {event.time_ps}ps off the frame "
                    f"grid (frame {frame_ps}ps, phase {phase}ps)",
                )
                return
            index = (event.time_ps - phase) // frame_ps
            for k in range(max(1, event.frames)):
                taken = book.north.get(index + k)
                if taken is not None:
                    self._flag(
                        "frame-reuse", event,
                        f"northbound frame {index + k} "
                        f"(t={phase + (index + k) * frame_ps}ps) booked twice",
                        first=taken,
                    )
                else:
                    book.north[index + k] = event
            return

        # Southbound command / data frames sit on the unshifted grid.
        if event.time_ps % frame_ps:
            self._flag(
                "frame-align", event,
                f"southbound frame start {event.time_ps}ps off the "
                f"{frame_ps}ps frame grid",
            )
            return
        index = event.time_ps // frame_ps
        state = book.south.get(index)
        if state is None:
            state = book.south[index] = [0, 0]
        if event.kind == "SB_CMD":
            state[0] += 1
        else:
            state[1] += 1
        commands, data = state
        limit = 1 if data else 3
        if data > 1 or commands > limit:
            self._flag(
                "frame-overcommit", event,
                f"southbound frame {index} (t={event.time_ps}ps) holds "
                f"{commands} command(s) + {data} data slot(s); a frame "
                "carries three commands, or one command plus 16 B of data",
            )


_NEVER = float("-inf")


def journals_clean(
    params: TraceParams,
    banks: Iterable[BankJournal],
    links: Iterable[LinkJournal],
) -> bool:
    """True only when :class:`ProtocolChecker` would report nothing for
    these journals (one entry per bank and per channel).

    False means replay to find out: a rule is broken, or the run is one of
    the two cases the audit leaves to the replay (module docstring).
    Every rule is local to a channel, so the audit takes one channel at a
    time and holds nothing of it once it moves on to the next.
    """
    if params.kind not in MEMORY_KINDS:
        return False
    bank_groups: Dict[int, List[BankJournal]] = {}
    for journal in banks:
        bank_groups.setdefault(journal[0][0], []).append(journal)
    link_groups: Dict[int, List[LinkJournal]] = {}
    for journal in links:
        link_groups.setdefault(journal[0], []).append(journal)
    for channel in bank_groups.keys() | link_groups.keys():
        if not _banks_clean(params, bank_groups.get(channel, ())):
            return False
        if not _links_clean(params, link_groups.get(channel, ())):
            return False
    return True


def _banks_clean(params: TraceParams, journals: Iterable[BankJournal]) -> bool:
    """The bank, rank and data-bus rules over one channel's bank journals."""
    t = params.timing
    tRC, tRP, tRAS, tRCD = t.tRC, t.tRP, t.tRAS, t.tRCD
    tRPD, tWPD = t.tRPD, t.tWPD
    # (dimm, rank) -> ACT, RD and WR command times, in log order
    ranks: Dict[Tuple[int, int], Tuple[array, array, array]] = {}
    for (_, dimm, rank, _), log in journals:
        columns = ranks.get((dimm, rank))
        if columns is None:
            columns = ranks[dimm, rank] = (array("q"), array("q"), array("q"))
        acts, rds, wrs = columns
        last_act = last_pre = last_rd = last_wr = previous = _NEVER
        open_row = False
        it = iter(log)
        for code, time_ps, _ in zip(it, it, it):
            if time_ps < previous:
                return False
            previous = time_ps
            if code == ACT:
                if (open_row or time_ps - last_act < tRC
                        or time_ps - last_pre < tRP):
                    return False
                open_row = True
                last_act = time_ps
                last_rd = last_wr = _NEVER
                acts.append(time_ps)
            elif code == PRE:
                if (not open_row or time_ps - last_act < tRAS
                        or time_ps - last_rd < tRPD
                        or time_ps - last_wr < tWPD):
                    return False
                open_row = False
                last_pre = time_ps
            elif not open_row or time_ps - last_act < tRCD:
                return False
            elif code == RD:
                last_rd = time_ps
                rds.append(time_ps)
            else:
                last_wr = time_ps
                wrs.append(time_ps)

    wr_reach = t.tWL + t.burst + t.tWTR  # WR command to its tWTR window end
    times: list = []
    for acts, rds, wrs in ranks.values():
        times = sorted(acts)
        if len(times) > 1 and min(map(sub, islice(times, 1, None), times)) < t.tRRD:
            return False
        if (t.tFAW and len(times) > 4
                and min(map(sub, islice(times, 4, None), times)) < t.tFAW):
            return False
        times = sorted(rds)
        for wr in wrs:
            i = bisect_left(times, wr)
            if i < len(times) and times[i] - wr < wr_reach:
                return False
    del times  # the last rank's: one sorted list alive at a time

    tCL, tWL, burst = t.tCL, t.tWL, t.burst
    if params.kind == "fbdimm":
        # One data bus per DIMM, behind its AMB, built and checked in turn.
        dimms: Dict[int, list] = {}
        for (dimm, _), columns in ranks.items():
            dimms.setdefault(dimm, []).append(columns)
        for rank_columns in dimms.values():
            bus: List[int] = []
            for _, rds, wrs in rank_columns:
                bus += map(tCL.__add__, rds)
                bus += map(tWL.__add__, wrs)
            bus.sort()
            if len(bus) > 1 and min(map(sub, islice(bus, 1, None), bus)) < burst:
                return False
        return True
    # DDR2: one bus per channel, whose bursts carry a (rank, direction)
    # tag.  Each burst is one int, start * scale + tag, so the bus sorts
    # by start with no tuple per burst.
    scale = 2 * len(ranks)
    bus = []
    for tag, (_, rds, wrs) in enumerate(ranks.values()):
        bus += map((tCL * scale + 2 * tag).__add__, map(scale.__mul__, rds))
        bus += map((tWL * scale + 2 * tag + 1).__add__, map(scale.__mul__, wrs))
    del ranks
    bus.sort()
    # Equal starts count as suspect whatever the burst length: the
    # replay's tie order would decide which burst comes first.
    overlap, turnaround = max(burst, 1), burst + params.switch_gap_ps
    for first, second in zip(bus, islice(bus, 1, None)):
        gap = second // scale - first // scale
        if gap < overlap or ((second - first) % scale and gap < turnaround):
            return False
    return True


def _links_clean(params: TraceParams, journals: Iterable[LinkJournal]) -> bool:
    """The frame and retry rules over one channel's link journals."""
    frame_ps = params.frame_ps
    phase = params.nb_phase_ps
    budget = params.max_retries
    for _, south, north in journals:
        if not south and not north:
            continue
        if params.kind == "ddr2" or frame_ps <= 0:
            return False
        # Slots of the flat triples: south (code, start, retry), north
        # (start, frames, retry).
        if budget and max(
            max(islice(south, 2, None, 3), default=0),
            max(islice(north, 2, None, 3), default=0),
        ) > budget + 1:
            return False
        # A southbound frame holds three commands, or one command plus
        # data: with each data booking listed twice, no frame start may
        # appear four times in the sorted slot starts.
        slots = sorted(chain(
            islice(south, 1, None, 3),
            compress(islice(south, 1, None, 3),
                     map(SB_CMD.__ne__, islice(south, 0, None, 3))),
        ))
        if (any(map(frame_ps.__rmod__, slots))
                or any(map(eq, slots, islice(slots, 3, None)))):
            return False
        # Northbound lines, each [start, start + frames * frame_ps), must
        # sit on the shifted grid and be pairwise disjoint: with starts
        # and ends sorted apart, each start at or after the end before it.
        starts = sorted(islice(north, 0, None, 3))
        if any(map(frame_ps.__rmod__, map(sub, starts, repeat(phase)))):
            return False
        ends = sorted(map(
            add, islice(north, 0, None, 3),
            map(frame_ps.__mul__, map(max, islice(north, 1, None, 3),
                                      repeat(1))),
        ))
        if any(map(lt, islice(starts, 1, None), ends)):
            return False
    return True


def check_trace(params: TraceParams, events: List[CheckEvent]) -> List[Violation]:
    """Convenience one-shot: run a fresh checker over ``events``."""
    return ProtocolChecker(params).check(events)
