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


#: Journal codes.  A bank journal (``Bank.command_log``) is a flat
#: ``array('q')`` of ``(command code, time_ps, row)`` triples, the code
#: being the command's index here; a southbound link journal holds
#: ``(slot code, start, retry)`` triples with :data:`SB_CMD` or
#: :data:`SB_DATA`.
COMMANDS_BY_CODE: Tuple[CommandType, ...] = tuple(CommandType)
ACT, RD, WR, PRE = range(len(COMMANDS_BY_CODE))
SB_CMD, SB_DATA = 0, 1
