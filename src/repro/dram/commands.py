"""DRAM command vocabulary and the integer codes the protocol journals use."""

from __future__ import annotations

import enum
from typing import Tuple


class CommandType(enum.Enum):
    """The DRAM operations the power model cares about (Section 5.5)."""

    ACTIVATE = "ACT"
    READ = "RD"
    WRITE = "WR"
    PRECHARGE = "PRE"


#: Journal codes: a DRAM command's is its index here; a southbound slot
#: is :data:`SB_CMD` or :data:`SB_DATA`.
COMMANDS_BY_CODE: Tuple[CommandType, ...] = tuple(CommandType)
ACT, RD, WR, PRE = range(len(COMMANDS_BY_CODE))
SB_CMD, SB_DATA = 0, 1

#: Journal records.  Every journal is a flat ``array('q')`` holding one
#: non-negative int per record, ``time << TIME_SHIFT | mid << MID_SHIFT |
#: low``:
#:
#: * a bank command (``Bank.command_log``): ``(time_ps, code, row)``;
#: * a southbound slot: ``(start, slot code, retry)``;
#: * a northbound line: ``(start, frames, retry)``.
#:
#: The time sits highest, so sorting the raw ints sorts by time, and a
#: bank log's codes (ACT < RD < WR < PRE) then order one instant's
#: commands as the audit walks them.  The low field takes a row or a
#: replay attempt below ``2**MID_SHIFT``, the middle field a code or a
#: frame count below ``2**(TIME_SHIFT - MID_SHIFT)``, and the time lies
#: below ``2**(63 - TIME_SHIFT)`` ps (0.55 s).
MID_SHIFT = 18
TIME_SHIFT = 24
LOW_MASK = (1 << MID_SHIFT) - 1
MID_MASK = (1 << (TIME_SHIFT - MID_SHIFT)) - 1
TIME_LIMIT = 1 << (63 - TIME_SHIFT)
#: The field names of each record kind, in ``(time, mid, low)`` order.
BANK_FIELDS = ("time_ps", "command", "row")
SOUTH_FIELDS = ("start", "slot", "retry")
NORTH_FIELDS = ("start", "frames", "retry")


def pack_record(time_ps: int, mid: int, low: int,
                names: Tuple[str, str, str]) -> int:
    """One journal record.  Raises ValueError naming the first field (of
    ``names``, e.g. :data:`BANK_FIELDS`) whose value does not fit,
    instead of wrapping it."""
    for name, value, limit in zip(
        names, (time_ps, mid, low), (TIME_LIMIT, MID_MASK + 1, LOW_MASK + 1),
    ):
        if not 0 <= value < limit:
            raise ValueError(
                f"{name} {value} does not fit its journal field [0, {limit})")
    return time_ps << TIME_SHIFT | mid << MID_SHIFT | low


def unpack_record(record: int) -> Tuple[int, int, int]:
    """``(time, mid, low)``: the inverse of :func:`pack_record`."""
    return record >> TIME_SHIFT, record >> MID_SHIFT & MID_MASK, record & LOW_MASK
