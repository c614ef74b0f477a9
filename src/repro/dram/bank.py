"""Logic-DRAM-bank state machine.

One :class:`Bank` models a *logic* bank — all physical banks of a rank that
are precharged, activated and column-accessed in lockstep (Section 3.2).
It enforces the Table 2 constraints and supports both page policies:

* **close page** (default for cacheline / multi-cacheline interleaving):
  every access is ACT -> column command(s) -> auto-precharge, so the bank's
  externally visible state is just "when can the next ACT start";
* **open page** (for page interleaving): the row stays open and a row hit
  skips straight to the column access.

A multi-cacheline group fetch (the AMB issuing K pipelined column accesses,
Section 3.2) is a single ACT followed by K reads whose bursts queue on the
DIMM data bus.

Hot-path layout: every class here carries ``__slots__``, and the per-issue
constraint arithmetic consumes the offsets precomputed by
:meth:`~repro.dram.timing.TimingPs.per_command_table` (materialised as
plain instance integers at construction) instead of re-deriving them from
the individual Table 2 constraints on every command.  The pre-rewrite
branchy implementation survives as ``tests/_legacy_bank.py``, the oracle
the property suite differentials this file against.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional, Tuple

from repro.config import PagePolicy
from repro.dram.commands import CommandRecord, CommandType
from repro.dram.resources import BusResource
from repro.dram.timing import TimingPs


class BankStats:
    """DRAM operation counters, the input to the power model (Section 5.5).

    The bare class-level annotations are what the ``stat-no-increment``
    lint checks; the channel controllers fold the counters into
    ``MemSystemStats`` through ``BANK_FOLD``
    (``repro.controller.channel_controller``).
    """

    __slots__ = (
        "activates", "precharges", "reads", "writes",
        "row_hits", "row_misses", "refreshes",
        "faw_stalls", "faw_stall_ps",
    )

    activates: int
    #: Close-page auto-precharges mirror ``activates`` one-for-one, so no
    #: stats counter folds them.
    precharges: int
    reads: int
    writes: int
    row_hits: int
    row_misses: int
    refreshes: int
    #: ACTs delayed by the four-activate window, and the total delay.
    faw_stalls: int
    faw_stall_ps: int

    def __init__(self) -> None:
        self.activates = 0
        self.precharges = 0
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.refreshes = 0
        self.faw_stalls = 0
        self.faw_stall_ps = 0


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

    __slots__ = (
        "next_act_ok", "read_ok_after_write", "pending_rd_cmds", "act_times",
    )

    def __init__(self) -> None:
        self.next_act_ok = 0
        self.read_ok_after_write = 0
        self.pending_rd_cmds: List[int] = []
        #: Issue times of the most recent ACTs on this rank (at most four
        #: kept), for the tFAW sliding window.  Only maintained by banks
        #: whose spec enables tFAW; recorded times are monotone
        #: non-decreasing because every ACT is gated on ``next_act_ok``.
        self.act_times: List[int] = []

    def act_gate(self, earliest: int) -> int:
        """Earliest time an ACT may issue respecting tRRD."""
        gate = self.next_act_ok
        return earliest if earliest >= gate else gate

    def note_act(self, act_time: int, tRRD: int) -> None:
        """Record an ACT so the next one (any bank) waits tRRD."""
        ok = act_time + tRRD
        if ok > self.next_act_ok:
            self.next_act_ok = ok

    def note_write_data_end(self, end_time: int, tWTR: int) -> None:
        """Record the end of a write burst; reads must wait tWTR."""
        ok = end_time + tWTR
        if ok > self.read_ok_after_write:
            self.read_ok_after_write = ok

    def note_read_cmd(self, cmd_time: int, now: int) -> None:
        """Record a committed RD command instant.

        Entries at or before ``now`` can never conflict with a future write
        (writes always place their command at or after the current time),
        so they are dropped here to keep the list at in-flight size.
        """
        cmds = self.pending_rd_cmds
        if cmds and cmds[0] <= now:
            self.pending_rd_cmds = cmds = [c for c in cmds if c > now]
        insort(cmds, cmd_time)

    def read_in_window(self, wr_cmd: int, window_end: int) -> Optional[int]:
        """Latest committed read command in ``[wr_cmd, window_end)``."""
        hit: Optional[int] = None
        for cmd in self.pending_rd_cmds:  # sorted ascending
            if cmd >= window_end:
                break
            if cmd >= wr_cmd:
                hit = cmd
        return hit


class AccessResult:
    """Timing outcome of one bank access.

    Attributes:
        command_start: When the first DRAM command (ACT or column) issued.
        data_times: Completion time of each cacheline's burst on the DIMM
            data bus, in fetch order (demanded line first for group reads).
        data_starts: Start time of each burst (for forwarding pipelining).
        row_hit: True when an open-page access found the row already open.
    """

    __slots__ = ("command_start", "data_times", "data_starts", "row_hit")

    def __init__(
        self,
        command_start: int,
        data_times: Optional[List[int]] = None,
        data_starts: Optional[List[int]] = None,
        row_hit: bool = False,
    ) -> None:
        self.command_start = command_start
        self.data_times: List[int] = [] if data_times is None else data_times
        self.data_starts: List[int] = [] if data_starts is None else data_starts
        self.row_hit = row_hit


class Bank:
    """State machine for one logic DRAM bank."""

    __slots__ = (
        "bank_id", "timing", "page_policy",
        "open_row", "ready_at", "column_ok", "precharge_ok",
        "stats", "command_log",
        # Precomputed timing table (per_command_table) plus the raw
        # constraints the row phase needs, as plain integers.
        "_open_page", "_rd_data_lead", "_rd_drain_step", "_rd_col_gate",
        "_wr_data_lead", "_wr_turnaround", "_wr_col_gate", "_retry_step",
        "_tRP", "_tRCD", "_tRRD", "_tRAS", "_tRC", "_tRPD", "_tWPD",
        "_tFAW",
    )

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
        self._open_page = page_policy is PagePolicy.OPEN_PAGE
        table = timing.per_command_table()
        self._rd_data_lead = table["rd_data_lead"]
        self._rd_drain_step = table["rd_drain_step"]
        self._rd_col_gate = table["rd_col_gate"]
        self._wr_data_lead = table["wr_data_lead"]
        self._wr_turnaround = table["wr_turnaround"]
        self._wr_col_gate = table["wr_col_gate"]
        self._retry_step = table["retry_step"]
        self._tRP = timing.tRP
        self._tRCD = timing.tRCD
        self._tRRD = timing.tRRD
        self._tRAS = timing.tRAS
        self._tRC = timing.tRC
        self._tRPD = timing.tRPD
        self._tWPD = timing.tWPD
        # 0 for DDR2-class specs: the gate below is then never evaluated,
        # so the constraint is a provable no-op for the paper's device.
        self._tFAW = timing.tFAW

    def enable_trace(self) -> None:
        """Record every issued DRAM command (debugging/verification aid)."""
        if self.command_log is None:
            self.command_log = []

    def _log(self, kind: CommandType, time_ps: int, row: int) -> None:
        if self.command_log is not None:
            self.command_log.append(
                CommandRecord(kind, time_ps, self.bank_id, row)
            )

    # ------------------------------------------------------------------
    # Scheduling estimates (used by the hit-first scheduler; no mutation)
    # ------------------------------------------------------------------

    def probe(self, now: int, row: int, rank: RankTimer) -> Tuple[int, bool]:
        """``(earliest_start, row_hit)`` for an access to ``row``.

        The first is when the command chain could begin; the second is
        whether an open-page access would skip ACT.  One call answers the
        scheduler's whole per-candidate question.
        """
        if self._open_page:
            open_row = self.open_row
            if open_row == row:
                col = self.column_ok
                return (col if col >= now else now), True
            if open_row is not None:
                # Row conflict: precharge first.
                pre = self.precharge_ok
                return (pre if pre >= now else now), False
        floor = self.ready_at
        if now > floor:
            floor = now
        gate = rank.next_act_ok
        start = floor if floor >= gate else gate
        return (self._faw_gate(rank, start) if self._tFAW else start), False

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
        row_hit = self._open_page and self.open_row == row
        act_time, rd_floor = self._row_phase(now, row, rank, row_hit)
        if rank.read_ok_after_write > rd_floor:
            rd_floor = rank.read_ok_after_write
        first_rd_floor = rd_floor

        rd_lead = self._rd_data_lead
        rd_step = self._rd_drain_step
        burst = self._rd_col_gate
        reserve = data_bus.reserve
        note_read_cmd = rank.note_read_cmd
        data_starts: List[int] = []
        data_times: List[int] = []
        last_rd = rd_floor
        for _ in range(num_lines):
            start = reserve(rd_floor + rd_lead, burst)
            data_starts.append(start)
            data_times.append(start + burst)
            last_rd = start - rd_lead  # effective RD command instant
            note_read_cmd(last_rd, now)
            rd_floor = start + rd_step  # next RD gated by bus drain
        stats = self.stats
        stats.reads += num_lines
        if row_hit:
            stats.row_hits += 1
        elif self._open_page:
            stats.row_misses += 1
        if self.command_log is not None:
            for start in data_starts:
                self._log(CommandType.READ, start - rd_lead, row)

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
        row_hit = self._open_page and self.open_row == row
        act_time, wr_floor = self._row_phase(now, row, rank, row_hit)
        # Wire-order tWTR guard: if the candidate slot would put a
        # committed read command inside this write's data-end + tWTR
        # window, push the write past that read command and retry.
        wr_lead = self._wr_data_lead
        burst = self._rd_col_gate
        turnaround = self._wr_turnaround
        probe = data_bus.probe
        read_in_window = rank.read_in_window
        while True:
            candidate = probe(wr_floor + wr_lead, burst)
            wr_cmd = candidate - wr_lead
            conflict = read_in_window(wr_cmd, wr_cmd + turnaround)
            if conflict is None:
                break
            wr_floor = conflict + self._retry_step
        data_start = data_bus.reserve(wr_floor + wr_lead, burst)
        data_end = data_start + burst
        wr_time = data_start - wr_lead
        rank.note_write_data_end(data_end, self.timing.tWTR)
        if self.command_log is not None:
            self._log(CommandType.WRITE, wr_time, row)
        stats = self.stats
        stats.writes += 1
        if row_hit:
            stats.row_hits += 1
        elif self._open_page:
            stats.row_misses += 1

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

    def _faw_gate(self, rank: RankTimer, start: int) -> int:
        """Push an ACT estimate past the four-activate window (no mutation).

        Only called when ``self._tFAW`` is non-zero.  ``act_times`` holds
        the last four ACT instants in ascending order, so the window gate
        is simply the oldest entry plus tFAW.
        """
        acts = rank.act_times
        if len(acts) == 4:
            faw = acts[0] + self._tFAW
            if faw > start:
                return faw
        return start

    def _row_phase(
        self, now: int, row: int, rank: RankTimer, row_hit: bool
    ) -> "tuple[Optional[int], int]":
        """Run the PRE/ACT part of an access.

        Returns (act_time or None, earliest column-command time).
        """
        if row_hit:
            col = self.column_ok
            return None, col if col >= now else now

        if self._open_page and self.open_row is not None:
            pre_time = self.precharge_ok
            if now > pre_time:
                pre_time = now
            self.stats.precharges += 1
            if self.command_log is not None:
                self._log(CommandType.PRECHARGE, pre_time, row)
            act_floor = pre_time + self._tRP
        else:
            act_floor = self.ready_at
            if now > act_floor:
                act_floor = now
        gate = rank.next_act_ok
        act_time = act_floor if act_floor >= gate else gate
        if self._tFAW:
            acts = rank.act_times
            if len(acts) == 4:
                faw_gate = acts[0] + self._tFAW
                if faw_gate > act_time:
                    self.stats.faw_stalls += 1
                    self.stats.faw_stall_ps += faw_gate - act_time
                    act_time = faw_gate
                del acts[0]
            acts.append(act_time)
        act_ok = act_time + self._tRRD
        if act_ok > gate:
            rank.next_act_ok = act_ok
        self.stats.activates += 1
        if self.command_log is not None:
            self._log(CommandType.ACTIVATE, act_time, row)
        return act_time, act_time + self._tRCD

    def _close_or_keep(
        self, act_time: Optional[int], last_col: int, is_write: bool, row: int
    ) -> None:
        """Apply post-access state: auto-precharge or keep the row open."""
        col_to_pre = self._tWPD if is_write else self._tRPD
        if not self._open_page:
            act = act_time if act_time is not None else last_col
            pre_time = act + self._tRAS
            drain = last_col + col_to_pre
            if drain > pre_time:
                pre_time = drain
            self.stats.precharges += 1
            if self.command_log is not None:
                self._log(CommandType.PRECHARGE, pre_time, row)
            ready = act + self._tRC
            recovered = pre_time + self._tRP
            self.ready_at = ready if ready >= recovered else recovered
            self.open_row = None
        else:
            self.open_row = row
            self.column_ok = last_col + (
                self._wr_col_gate if is_write else self._rd_col_gate
            )
            drain = last_col + col_to_pre
            if act_time is not None:
                pre_ok = act_time + self._tRAS
                self.precharge_ok = pre_ok if pre_ok >= drain else drain
                self.ready_at = act_time + self._tRC
            elif drain > self.precharge_ok:
                self.precharge_ok = drain
