"""DRAM command vocabulary and per-command accounting records."""

from __future__ import annotations

import enum
from typing import NamedTuple


class CommandType(enum.Enum):
    """The DRAM operations the power model cares about (Section 5.5)."""

    ACTIVATE = "ACT"
    READ = "RD"
    WRITE = "WR"
    PRECHARGE = "PRE"


class CommandRecord(NamedTuple):
    """One issued DRAM command, for traces and debugging."""

    kind: CommandType
    time_ps: int
    bank_id: int
    row: int
