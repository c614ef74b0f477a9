"""Frozen pre-rewrite copy of ``repro.dram.bank`` — a test-only oracle.

This is the branchy per-issue implementation that the PR-8 hot-path
rewrite replaced with precomputed timing tables.  The hypothesis suite in
``test_timing_tables.py`` drives randomized command sequences through both
this oracle and the rewritten ``repro.dram.bank`` and asserts identical
timing, state and statistics.  Do not modernise this file: its value is
being exactly the old code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from repro.config import PagePolicy
from repro.dram.commands import CommandType
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs


class CommandRecord(NamedTuple):
    """One issued DRAM command, for traces and debugging."""

    kind: CommandType
    time_ps: int
    bank_id: int
    row: int


@dataclass
class BankStats:
    """DRAM operation counters, the input to the power model (Section 5.5)."""

    activates: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    refreshes: int = 0


@dataclass
class RankTimer:
    """Cross-bank constraints shared by the banks of one rank.

    tRRD separates ACTs to different banks; tWTR separates the end of write
    data from the next read command on the same rank.

    ``pending_rd_cmds`` records the command instants of reads already
    committed on this rank (transactions are issued atomically, so commands
    can be committed ahead of simulated time).  A later write whose data
    burst backfills an earlier bus hole must not land so that a committed
    read command falls inside its wire-order tWTR window — that read was
    gated on the writes known *when it issued*, not on this one.
    """

    next_act_ok: int = 0
    read_ok_after_write: int = 0
    pending_rd_cmds: List[int] = field(default_factory=list)

    def act_gate(self, earliest: int) -> int:
        """Earliest time an ACT may issue respecting tRRD."""
        return max(earliest, self.next_act_ok)

    def note_act(self, act_time: int, tRRD: int) -> None:
        """Record an ACT so the next one (any bank) waits tRRD."""
        self.next_act_ok = max(self.next_act_ok, act_time + tRRD)

    def note_write_data_end(self, end_time: int, tWTR: int) -> None:
        """Record the end of a write burst; reads must wait tWTR."""
        self.read_ok_after_write = max(self.read_ok_after_write, end_time + tWTR)

    def note_read_cmd(self, cmd_time: int, now: int) -> None:
        """Record a committed RD command instant.

        Entries at or before ``now`` can never conflict with a future write
        (writes always place their command at or after the current time),
        so they are dropped here to keep the list at in-flight size.
        """
        if self.pending_rd_cmds and self.pending_rd_cmds[0] <= now:
            self.pending_rd_cmds = [c for c in self.pending_rd_cmds if c > now]
        self.pending_rd_cmds.append(cmd_time)
        self.pending_rd_cmds.sort()

    def read_in_window(self, wr_cmd: int, window_end: int) -> Optional[int]:
        """Latest committed read command in ``[wr_cmd, window_end)``."""
        hit: Optional[int] = None
        for cmd in self.pending_rd_cmds:
            if wr_cmd <= cmd < window_end:
                hit = cmd
        return hit


@dataclass
class AccessResult:
    """Timing outcome of one bank access.

    Attributes:
        command_start: When the first DRAM command (ACT or column) issued.
        data_times: Completion time of each cacheline's burst on the DIMM
            data bus, in fetch order (demanded line first for group reads).
        data_starts: Start time of each burst (for forwarding pipelining).
        row_hit: True when an open-page access found the row already open.
    """

    command_start: int
    data_times: List[int] = field(default_factory=list)
    data_starts: List[int] = field(default_factory=list)
    row_hit: bool = False


class Bank:
    """State machine for one logic DRAM bank."""

    def __init__(self, bank_id: int, timing: TimingPs, page_policy: PagePolicy) -> None:
        self.bank_id = bank_id
        self.timing = timing
        self.page_policy = page_policy
        self.open_row: Optional[int] = None
        self.ready_at = 0  # earliest next ACT (close page) / next row op
        self.column_ok = 0  # earliest next column command to the open row
        self.precharge_ok = 0  # earliest PRE honouring tRAS / tRPD / tWPD
        self.stats = BankStats()
        #: Optional per-command log (enable_trace); None keeps the hot
        #: path allocation-free.
        self.command_log: Optional[List[CommandRecord]] = None

    def enable_trace(self) -> None:
        """Record every issued DRAM command (debugging/verification aid)."""
        if self.command_log is None:
            self.command_log = []

    def _log(self, kind: CommandType, time_ps: int, row: int) -> None:
        if self.command_log is not None:
            self.command_log.append(
                CommandRecord(kind=kind, time_ps=time_ps, bank_id=self.bank_id, row=row)
            )

    # ------------------------------------------------------------------
    # Scheduling estimates (used by the hit-first scheduler; no mutation)
    # ------------------------------------------------------------------

    def is_row_hit(self, row: int) -> bool:
        """Whether an open-page access to ``row`` would skip ACT."""
        return self.page_policy is PagePolicy.OPEN_PAGE and self.open_row == row

    def earliest_start(self, now: int, row: int, rank: RankTimer) -> int:
        """Estimate when the command chain for ``row`` could begin."""
        if self.page_policy is PagePolicy.CLOSE_PAGE:
            return rank.act_gate(max(now, self.ready_at))
        if self.open_row == row:
            return max(now, self.column_ok)
        if self.open_row is None:
            return rank.act_gate(max(now, self.ready_at))
        # Row conflict: precharge first.
        return max(now, self.precharge_ok)

    # ------------------------------------------------------------------
    # Accesses (mutating)
    # ------------------------------------------------------------------

    def read(
        self,
        now: int,
        row: int,
        num_lines: int,
        data_bus: BusResource,
        rank: RankTimer,
    ) -> AccessResult:
        """Read ``num_lines`` cachelines from ``row``.

        The first line is the demanded one; under AMB prefetching the
        remaining K-1 column accesses are pipelined behind it.
        """
        t = self.timing
        row_hit = self.is_row_hit(row)
        act_time, first_rd_floor = self._row_phase(now, row, rank, row_hit)
        first_rd_floor = max(first_rd_floor, rank.read_ok_after_write)

        data_starts: List[int] = []
        data_times: List[int] = []
        rd_floor = first_rd_floor
        last_rd = first_rd_floor
        for _ in range(num_lines):
            start = data_bus.reserve(rd_floor + t.tCL, t.burst)
            data_starts.append(start)
            data_times.append(start + t.burst)
            last_rd = start - t.tCL  # effective RD command instant
            rank.note_read_cmd(last_rd, now)
            rd_floor = start + t.burst - t.tCL  # next RD gated by bus drain
        self.stats.reads += num_lines
        if row_hit:
            self.stats.row_hits += 1
        elif self.page_policy is PagePolicy.OPEN_PAGE:
            self.stats.row_misses += 1
        if self.command_log is not None:
            for start in data_starts:
                self._log(CommandType.READ, start - t.tCL, row)

        self._close_or_keep(act_time, last_rd, is_write=False, row=row)
        command_start = act_time if act_time is not None else first_rd_floor
        return AccessResult(
            command_start=command_start,
            data_times=data_times,
            data_starts=data_starts,
            row_hit=row_hit,
        )

    def write(
        self,
        now: int,
        row: int,
        data_bus: BusResource,
        rank: RankTimer,
    ) -> AccessResult:
        """Write one cacheline to ``row``."""
        t = self.timing
        row_hit = self.is_row_hit(row)
        act_time, wr_floor = self._row_phase(now, row, rank, row_hit)
        # Wire-order tWTR guard: if the candidate slot would put a
        # committed read command inside this write's data-end + tWTR
        # window, push the write past that read command and retry.
        while True:
            candidate = data_bus.probe(wr_floor + t.tWL, t.burst)
            conflict = rank.read_in_window(
                candidate - t.tWL, candidate + t.burst + t.tWTR
            )
            if conflict is None:
                break
            wr_floor = conflict + t.clock
        data_start = data_bus.reserve(wr_floor + t.tWL, t.burst)
        data_end = data_start + t.burst
        wr_time = data_start - t.tWL
        rank.note_write_data_end(data_end, t.tWTR)
        self._log(CommandType.WRITE, wr_time, row)
        self.stats.writes += 1
        if row_hit:
            self.stats.row_hits += 1
        elif self.page_policy is PagePolicy.OPEN_PAGE:
            self.stats.row_misses += 1

        self._close_or_keep(act_time, wr_time, is_write=True, row=row)
        command_start = act_time if act_time is not None else wr_floor
        return AccessResult(
            command_start=command_start,
            data_times=[data_end],
            data_starts=[data_start],
            row_hit=row_hit,
        )

    def refresh(self, now: int, trfc_ps: int) -> None:
        """All-bank refresh: the bank is unavailable for tRFC and any open
        row is closed.  Commands already scheduled keep their timing (the
        controller is assumed to slot refreshes into idle windows)."""
        busy_until = max(now, self.ready_at) + trfc_ps
        self.ready_at = busy_until
        self.column_ok = max(self.column_ok, busy_until)
        self.precharge_ok = max(self.precharge_ok, busy_until)
        self.open_row = None
        self.stats.refreshes += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _row_phase(
        self, now: int, row: int, rank: RankTimer, row_hit: bool
    ) -> "tuple[Optional[int], int]":
        """Run the PRE/ACT part of an access.

        Returns (act_time or None, earliest column-command time).
        """
        t = self.timing
        if row_hit:
            return None, max(now, self.column_ok)

        pre_first = (
            self.page_policy is PagePolicy.OPEN_PAGE and self.open_row is not None
        )
        if pre_first:
            pre_time = max(now, self.precharge_ok)
            self.stats.precharges += 1
            self._log(CommandType.PRECHARGE, pre_time, row)
            act_floor = pre_time + t.tRP
        else:
            act_floor = max(now, self.ready_at)
        act_time = rank.act_gate(act_floor)
        rank.note_act(act_time, t.tRRD)
        self.stats.activates += 1
        self._log(CommandType.ACTIVATE, act_time, row)
        return act_time, act_time + t.tRCD

    def _close_or_keep(
        self, act_time: Optional[int], last_col: int, is_write: bool, row: int
    ) -> None:
        """Apply post-access state: auto-precharge or keep the row open."""
        t = self.timing
        col_to_pre = t.tWPD if is_write else t.tRPD
        if self.page_policy is PagePolicy.CLOSE_PAGE:
            act = act_time if act_time is not None else last_col
            pre_time = max(act + t.tRAS, last_col + col_to_pre)
            self.stats.precharges += 1
            self._log(CommandType.PRECHARGE, pre_time, row)
            self.ready_at = max(act + t.tRC, pre_time + t.tRP)
            self.open_row = None
        else:
            self.open_row = row
            self.column_ok = last_col + (t.burst if not is_write else t.tWL + t.burst)
            if act_time is not None:
                self.precharge_ok = max(act_time + t.tRAS, last_col + col_to_pre)
                self.ready_at = act_time + t.tRC
            else:
                self.precharge_ok = max(self.precharge_ok, last_col + col_to_pre)
