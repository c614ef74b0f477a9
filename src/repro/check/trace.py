"""Command-trace event model and JSONL persistence for the protocol checker.

A check trace is a flat, time-sorted stream of :class:`CheckEvent` records —
DRAM commands (ACT/RD/WR/PRE) located by channel/DIMM/rank/bank, plus
FB-DIMM frame-slot records (southbound command and data frames, northbound
line transfers).  The header line of a saved trace carries the
:class:`TraceParams` the checker validates against, so a trace file is
self-describing: ``python -m repro.check trace.jsonl`` needs nothing else.

Format (one JSON object per line)::

    {"version": 1, "params": {...}}
    {"t": 15000, "c": "ACT", "ch": 0, "d": 0, "r": 0, "b": 2, "row": 17}
    {"t": 45000, "c": "NB_LINE", "ch": 0, "n": 2}
"""

from __future__ import annotations

import dataclasses
import json
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, NamedTuple, Tuple, Union,
)

from repro.config import DRAM_CLOCK_PS, MemoryConfig, MemoryKind
from repro.dram.commands import (
    BANK_FIELDS,
    COMMANDS_BY_CODE,
    LOW_MASK,
    MID_MASK,
    MID_SHIFT,
    NORTH_FIELDS,
    SOUTH_FIELDS,
    TIME_SHIFT,
    CommandType,
    pack_record,
)
from repro.dram.timing import TimingPs
from repro.engine.simulator import ns
from repro.serialize import unknown_fields

FORMAT_VERSION = 1

#: DRAM command kinds (the :class:`repro.dram.commands.CommandType`
#: values, indexed by journal code) plus the FB-DIMM frame-slot kinds,
#: the southbound ones indexed by slot code.
DRAM_COMMANDS = tuple(command.value for command in COMMANDS_BY_CODE)
FRAME_EVENTS = ("SB_CMD", "SB_DATA", "NB_LINE")
EVENT_KINDS = DRAM_COMMANDS + FRAME_EVENTS
#: The channel kinds a trace can describe.
MEMORY_KINDS = ("ddr2", "fbdimm")


class CheckEvent(NamedTuple):
    """One trace record: a DRAM command or an FB-DIMM frame-slot booking.

    A plain tuple underneath, so it compares equal to the tuple of its
    field values; the kind is validated where events come from outside
    (:func:`record_to_event`) and by the checker's dispatch, not here.

    Attributes:
        time_ps: Command instant (DRAM commands) or frame start (frames).
        kind: One of :data:`EVENT_KINDS`.
        channel: Physical channel index.
        dimm / rank / bank / row: DRAM command location (-1 where n/a).
        frames: NB_LINE only — number of contiguous northbound frames.
        retry: Frame events only — replay attempt number under fault
            injection (0 = first transmission).
    """

    time_ps: int
    kind: str
    channel: int = 0
    dimm: int = -1
    rank: int = -1
    bank: int = -1
    row: int = -1
    frames: int = 1
    retry: int = 0

    @property
    def is_dram_command(self) -> bool:
        return self.kind in DRAM_COMMANDS

    def location(self) -> str:
        """Human-readable location for violation messages."""
        if self.is_dram_command:
            return (
                f"ch{self.channel}.dimm{self.dimm}.rank{self.rank}"
                f".bank{self.bank}"
            )
        return f"ch{self.channel}.{self.kind.lower()}"


@dataclass(frozen=True)
class TraceParams:
    """Everything the protocol checker needs to judge a trace.

    Attributes:
        kind: ``"ddr2"`` or ``"fbdimm"`` — selects the bus/frame rules.
        timing: The Table 2 constraints in picoseconds.
        frame_ps: FB-DIMM frame period (two DRAM clocks).
        nb_phase_ps: Northbound frame-grid phase offset.
        switch_gap_ps: DDR2 data-bus turnaround/rank-switch bubble.
        banks_per_dimm: Logic banks per rank: a DRAM command's bank index
            must lie in ``[0, banks_per_dimm)`` (:meth:`check_location`).
        max_retries: Fault-injection retry budget; 0 disables the
            retry-budget rule.  A journalled replay may reach at most
            ``max_retries + 1`` (the post-reset recovery replay).

    Construction raises ValueError for values no channel has: an unknown
    kind, a negative timing, an FB-DIMM frame grid that is not one, a
    negative gap or budget, or no banks.
    """

    kind: str
    timing: TimingPs
    frame_ps: int = 0
    nb_phase_ps: int = 0
    switch_gap_ps: int = 0
    banks_per_dimm: int = 4
    max_retries: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MEMORY_KINDS:
            raise ValueError(f"unknown memory kind {self.kind!r}")
        for name, value in vars(self.timing).items():
            if value < 0:
                raise ValueError(
                    f"timing.{name} must not be negative, got {value}")
        if self.kind == "fbdimm":
            if self.frame_ps <= 0:
                raise ValueError(f"frame_ps must be positive in an fbdimm "
                                 f"trace, got {self.frame_ps}")
            if not 0 <= self.nb_phase_ps < self.frame_ps:
                raise ValueError(f"nb_phase_ps must lie in [0, frame_ps), "
                                 f"got {self.nb_phase_ps}")
        for name in ("switch_gap_ps", "max_retries"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must not be negative, got {getattr(self, name)}")
        if self.banks_per_dimm < 1:
            raise ValueError(f"banks_per_dimm must be at least 1, "
                             f"got {self.banks_per_dimm}")

    @classmethod
    def from_memory_config(cls, config: MemoryConfig,
                           max_retries: int = 0) -> "TraceParams":
        """Derive checker parameters from a simulator memory config."""
        timing = TimingPs.from_config(
            config.timings, config.dram_clock_ps, config.burst_clocks,
            tfaw_ns=config.tFAW_ns,
        )
        if config.kind is MemoryKind.FBDIMM:
            return cls(
                kind="fbdimm",
                timing=timing,
                frame_ps=config.frame_ps,
                nb_phase_ps=ns(config.command_delay_ns) % config.frame_ps,
                banks_per_dimm=config.banks_per_dimm,
                max_retries=max_retries,
            )
        return cls(
            kind="ddr2",
            timing=timing,
            switch_gap_ps=round(config.ddr2_switch_gap_clocks * config.dram_clock_ps),
            banks_per_dimm=config.banks_per_dimm,
            max_retries=max_retries,
        )

    def check_location(self, event: CheckEvent) -> None:
        """Raise ValueError when a DRAM command names a place no channel
        with these parameters has: a bank outside ``[0, banks_per_dimm)``
        or a negative channel, DIMM or rank.  Frame events carry no DRAM
        location and always pass."""
        if event.kind not in DRAM_COMMANDS:
            return
        if (not 0 <= event.bank < self.banks_per_dimm
                or min(event.channel, event.dimm, event.rank) < 0):
            raise ValueError(
                f"{event.kind} at {event.location()} lies outside the trace's "
                f"geometry ({self.banks_per_dimm} banks per rank)")

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["timing"] = asdict(self.timing)
        return data

    @classmethod
    def from_dict(cls, data: object) -> "TraceParams":
        """Rebuild from :meth:`to_dict` output; ValueError on anything else."""
        kwargs = _checked_kwargs("params", data, cls, exempt=("kind", "timing"))
        kwargs["timing"] = TimingPs(
            **_checked_kwargs("params.timing", kwargs["timing"], TimingPs)
        )
        return cls(**kwargs)


def _checked_kwargs(
    where: str, data: object, cls: Any, exempt: Tuple[str, ...] = ()
) -> Dict[str, Any]:
    """``data`` as keyword arguments for the dataclass ``cls``.

    It must be a JSON object naming only fields of ``cls`` and every field
    without a default; each value outside ``exempt`` must be an integer.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"{where}: {unknown_fields(unknown)}")
    missing = [
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.name not in data
    ]
    if missing:
        raise ValueError(f"{where}: missing field(s) {', '.join(missing)}")
    for name, value in data.items():
        if name not in exempt and type(value) is not int:
            raise ValueError(f"{where}.{name} must be an integer, got {value!r}")
    return dict(data)


#: Default timing bundle for hand-written traces: Table 2 at 667 MT/s with
#: the standard 4-clock cacheline burst.
def default_params(kind: str = "fbdimm") -> TraceParams:
    """Checker parameters for the paper's default 667 MT/s configuration."""
    from repro.config import DramTimings

    clock = DRAM_CLOCK_PS[667]
    timing = TimingPs.from_config(DramTimings(), clock, 4)
    if kind == "fbdimm":
        return TraceParams(
            kind=kind, timing=timing, frame_ps=2 * clock,
            nb_phase_ps=ns(3.0) % (2 * clock),
        )
    if kind == "ddr2":
        return TraceParams(
            kind=kind, timing=timing, switch_gap_ps=round(1.5 * clock)
        )
    raise ValueError(f"unknown memory kind {kind!r}")


# ----------------------------------------------------------------------
# Journals: the form a run records them in
# ----------------------------------------------------------------------

#: ``((channel, dimm, rank, bank), command_log)``: one bank's journal,
#: one packed ``(time_ps, command code, row)`` int per command in an
#: ``array('q')``, in the order the bank issued them (``Bank.command_log``;
#: the packing is ``repro.dram.commands.pack_record``'s).
BankJournal = Tuple[Tuple[int, int, int, int], array]
#: ``(channel, southbound, northbound)``: one FB-DIMM channel's frame
#: bookings, packed ``(start, slot code, retry)`` ints southbound and
#: ``(start, frames, retry)`` northbound (see ``repro.channel.frames``).
LinkJournal = Tuple[int, array, array]


def bank_commands(log: Iterable[int]) -> Iterator[Tuple[CommandType, int, int]]:
    """A bank journal's ``(command, time_ps, row)`` records, in log order."""
    return ((COMMANDS_BY_CODE[record >> MID_SHIFT & MID_MASK],
             record >> TIME_SHIFT, record & LOW_MASK) for record in log)


def event_record(event: CheckEvent) -> int:
    """``event`` as a record of its journal (``repro.dram.commands``).

    Raises ValueError for an unknown kind, or naming the field whose
    value does not fit: a time, row, frame count or replay attempt that
    is negative or too large.
    """
    kind = event.kind
    try:
        if kind in DRAM_COMMANDS:
            return pack_record(event.time_ps, DRAM_COMMANDS.index(kind),
                               event.row, BANK_FIELDS)
        if kind == "NB_LINE":
            return pack_record(event.time_ps, event.frames, event.retry,
                               NORTH_FIELDS)
        if kind in FRAME_EVENTS:
            return pack_record(event.time_ps, FRAME_EVENTS.index(kind),
                               event.retry, SOUTH_FIELDS)
    except ValueError as exc:
        raise ValueError(f"{kind} {exc}") from None
    raise ValueError(f"unknown check-event kind {kind!r}")


def journal_events(
    banks: Iterable[BankJournal], links: Iterable[LinkJournal]
) -> List[CheckEvent]:
    """The journals as check events: bank streams, then link journals, each
    in journal order (not time-sorted).  :func:`event_journals` inverts it."""
    events: List[CheckEvent] = []
    for (channel, dimm, rank, bank), log in banks:
        events += [
            CheckEvent(record >> TIME_SHIFT,
                       DRAM_COMMANDS[record >> MID_SHIFT & MID_MASK],
                       channel, dimm, rank, bank, record & LOW_MASK, 1, 0)
            for record in log
        ]
    for channel, south, north in links:
        events += [
            CheckEvent(record >> TIME_SHIFT,
                       FRAME_EVENTS[record >> MID_SHIFT & MID_MASK],
                       channel, -1, -1, -1, -1, 1, record & LOW_MASK)
            for record in south
        ]
        events += [
            CheckEvent(record >> TIME_SHIFT, "NB_LINE", channel, -1, -1, -1,
                       -1, record >> MID_SHIFT & MID_MASK, record & LOW_MASK)
            for record in north
        ]
    return events


def event_journals(
    events: Iterable[CheckEvent],
) -> Tuple[List[BankJournal], List[LinkJournal]]:
    """Split check events into journals, each stream in event order.

    The journal key carries each command's location.  Raises ValueError
    for an unknown kind or a value that does not fit its journal field
    (:func:`event_record`).
    """
    banks: Dict[Tuple[int, int, int, int], array] = {}
    links: Dict[int, Tuple[array, array]] = {}
    for event in events:
        record = event_record(event)
        kind = event.kind
        if kind in DRAM_COMMANDS:
            key = (event.channel, event.dimm, event.rank, event.bank)
            banks.setdefault(key, array("q")).append(record)
            continue
        south, north = links.setdefault(event.channel,
                                        (array("q"), array("q")))
        (north if kind == "NB_LINE" else south).append(record)
    return (list(banks.items()),
            [(channel, south, north) for channel, (south, north) in links.items()])


# ----------------------------------------------------------------------
# JSONL persistence
# ----------------------------------------------------------------------

_FIELD_CODES = (
    ("t", "time_ps"), ("c", "kind"), ("ch", "channel"), ("d", "dimm"),
    ("r", "rank"), ("b", "bank"), ("row", "row"), ("n", "frames"),
    ("rt", "retry"),
)
_DEFAULTS = CheckEvent._field_defaults


def event_to_record(event: CheckEvent) -> Dict[str, object]:
    """Encode one event with the short JSONL field codes (defaults elided).

    Shared by the check-trace files and the telemetry capture stream, so
    both speak the same command-record dialect.
    """
    record: Dict[str, object] = {}
    for (code, name), value in zip(_FIELD_CODES, event):
        if name not in _DEFAULTS or value != _DEFAULTS[name]:
            record[code] = value
    return record


def record_to_event(record: object) -> CheckEvent:
    """Decode one short-field-code record back into a :class:`CheckEvent`.

    This is where outside input arrives, so the record is validated: a
    JSON object with an integer ``t``, a known kind ``c``, and an integer
    for every other field code it carries.  Keys that are not field codes
    are ignored (telemetry capture records carry a ``type``).
    """
    if not isinstance(record, dict):
        raise ValueError(f"record must be a JSON object, got {record!r}")
    values: List[object] = []
    for code, name in _FIELD_CODES:
        if code not in record:
            if name not in _DEFAULTS:
                raise ValueError(f"record has no {code!r} ({name})")
            values.append(_DEFAULTS[name])
            continue
        value = record[code]
        if name == "kind":
            if value not in EVENT_KINDS:
                raise ValueError(f"unknown check-event kind {value!r}")
        elif type(value) is not int:
            raise ValueError(f"{code!r} must be an integer, got {value!r}")
        values.append(value)
    return CheckEvent._make(values)


def save_events(
    path: Union[str, Path],
    params: TraceParams,
    events: Iterable[CheckEvent],
) -> int:
    """Write a self-describing check trace; returns events written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        header = {"version": FORMAT_VERSION, "params": params.to_dict()}
        handle.write(json.dumps(header) + "\n")
        for event in events:
            handle.write(json.dumps(event_to_record(event)) + "\n")
            count += 1
    return count


def _parse_json(line: str) -> object:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg})") from exc


def _parse_header(line: str) -> TraceParams:
    header = _parse_json(line)
    if not isinstance(header, dict):
        raise ValueError(f"header must be a JSON object, got {header!r}")
    unknown = set(header) - {"version", "params"}
    if unknown:
        raise ValueError(f"header: {unknown_fields(unknown)}")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported check-trace version {header.get('version')!r}"
        )
    return TraceParams.from_dict(header.get("params"))


def load_journals(
    path: Union[str, Path],
) -> Tuple[TraceParams, List[BankJournal], List[LinkJournal]]:
    """Load a saved check trace straight into its journals, each stream in
    file order (:func:`event_journals`), for
    :func:`repro.check.protocol.check_journals`.

    Each record is decoded, placed in the header's geometry
    (:meth:`TraceParams.check_location`) and packed (:func:`event_record`)
    once.  Raises OSError when the file cannot be read, and ValueError
    prefixed ``path:line:`` for a malformed header or record, a DRAM
    command outside the geometry, or a value that does not fit its journal
    field.
    """
    path = Path(path)
    line_no = 1

    def located(handle: Iterable[str], params: TraceParams) -> Iterator[CheckEvent]:
        nonlocal line_no
        for line_no, line in enumerate(handle, start=2):
            if line.strip():
                event = record_to_event(_parse_json(line))
                params.check_location(event)
                yield event

    with path.open("r", encoding="utf-8") as handle:
        try:
            params = _parse_header(handle.readline())
            banks, links = event_journals(located(handle, params))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return params, banks, links
