"""Bounded-window core model.

Each core replays a program's L2-miss trace at the program's base IPC
(its throughput when every access hits on-chip) and interacts with the
memory system exactly where a real out-of-order core would:

* a **demand read** occupies a data-cache MSHR and a shared-L2 MSHR and
  blocks *retirement*; the core keeps running ahead until the ROB window
  behind the oldest outstanding miss fills (memory-level parallelism);
* a **software prefetch** uses the same MSHR resources but never stalls —
  it is dropped when no MSHR is free, like a real non-binding prefetch;
* a **write** occupies a store-buffer slot and stalls only when the store
  buffer is full.

The model is event-driven: the core sleeps between trace points and is
woken by completions, so simulated time costs nothing when the core is
compute-bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional

from repro.config import CpuConfig
from repro.controller.controller import MemoryController
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.cpu.l2 import L2FillTable
from repro.cpu.mshr import Limiter
from repro.engine.simulator import Simulator
from repro.workloads.trace import TraceEvent, TraceKind

#: The trace kinds _try_process dispatches on, read once.
READ = TraceKind.READ
PREFETCH = TraceKind.PREFETCH


@dataclass
class CoreStats:
    """Per-core event counters."""

    demand_misses: int = 0
    l2_prefetch_hits: int = 0  # demand found the line already filled
    l2_merges: int = 0  # demand merged with an in-flight prefetch
    sw_prefetches_issued: int = 0
    sw_prefetches_squashed: int = 0  # line already present or in flight
    sw_prefetches_dropped: int = 0  # no MSHR free
    hw_prefetches_issued: int = 0  # stream prefetcher (optional)
    writes_issued: int = 0
    rob_stalls: int = 0  # episodes parked behind the ROB window
    mshr_stalls: int = 0  # episodes blocked on a full MSHR pool
    store_stalls: int = 0


class Core:
    """One simulated processor core running one program trace."""

    __slots__ = (
        "sim", "core_id", "config", "base_ipc", "trace", "controller",
        "l2", "l2_mshr", "data_mshr", "target", "on_finished",
        "warmup_target", "on_warmup", "_warmup_fired", "ps_per_inst",
        "progress_inst", "progress_time", "pending", "_pending_inst",
        "_pending_action", "outstanding_reads", "stores_outstanding",
        "blocked", "finished", "stats", "_recent_misses", "_recent_miss_cap",
    )

    _merge_tokens = itertools.count(1)

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        config: CpuConfig,
        base_ipc: float,
        trace: Iterator[TraceEvent],
        controller: MemoryController,
        l2: L2FillTable,
        l2_mshr: Limiter,
        target_instructions: int,
        on_finished: Callable[["Core"], None],
        warmup_instructions: int = 0,
        on_warmup: Optional[Callable[["Core"], None]] = None,
    ) -> None:
        if base_ipc <= 0:
            raise ValueError("base_ipc must be positive")
        self.sim = sim
        self.core_id = core_id
        self.config = config
        self.base_ipc = base_ipc
        self.trace = trace
        self.controller = controller
        self.l2 = l2
        self.l2_mshr = l2_mshr
        self.data_mshr = Limiter(config.data_mshr_entries, f"core{core_id}.mshr")
        self.target = target_instructions
        self.on_finished = on_finished
        self.warmup_target = warmup_instructions
        self.on_warmup = on_warmup
        self._warmup_fired = warmup_instructions <= 0

        self.ps_per_inst = config.cycle_ps / base_ipc
        self.progress_inst = 0
        self.progress_time = 0
        self.pending: Optional[TraceEvent] = None
        #: The last fetched event's instruction (-1 before the first), so
        #: one comparison per fetch enforces strictly increasing order.
        self._pending_inst = -1
        self._pending_action = self._try_process
        #: token -> inst index, in dispatch (hence instruction) order.
        self.outstanding_reads: Dict[int, int] = {}
        self.stores_outstanding = 0
        self.blocked: Optional[str] = None
        self.finished = False
        self.stats = CoreStats()
        #: Recent demand-miss lines, for hardware stream detection.
        self._recent_misses: Dict[int, bool] = {}
        self._recent_miss_cap = 64

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin execution at time zero."""
        self._fetch_next()

    @property
    def committed_instructions(self) -> int:
        """Instructions retired so far (the IPC numerator)."""
        return self.progress_inst

    def ipc(self, elapsed_ps: int) -> float:
        """IPC over an elapsed wall-time window."""
        if elapsed_ps <= 0:
            return 0.0
        cycles = elapsed_ps / self.config.cycle_ps
        return self.progress_inst / cycles

    # ------------------------------------------------------------------

    def _window_limit(self) -> Optional[int]:
        """Farthest instruction the front end may reach: the oldest
        outstanding demand miss plus the ROB size (None = unbounded).

        Reads enter ``outstanding_reads`` in trace order, which
        _fetch_next keeps strictly increasing, so the oldest is the first.
        """
        reads = self.outstanding_reads
        if not reads:
            return None
        return next(iter(reads.values())) + self.config.rob_entries

    def _fetch_next(self) -> None:
        try:
            event = next(self.trace)
        except StopIteration:
            # Finite (recorded) trace exhausted: run the remaining
            # instructions at the base rate and finish.
            self.pending = None
            self._pending_inst = self.target
            self._pending_action = self._finish
            self._schedule_pending()
            return
        if event.inst <= self._pending_inst:
            raise ValueError(
                f"core {self.core_id}: trace order violated: inst "
                f"{event.inst} after {self._pending_inst}"
            )
        if event.inst >= self.target:
            self.pending = None
            self._pending_inst = self.target
            self._pending_action = self._finish
        else:
            self.pending = event
            self._pending_inst = event.inst
            self._pending_action = self._try_process
        self._schedule_pending()

    def _schedule_pending(self) -> None:
        """Schedule the next step, or park behind the ROB window."""
        limit = self._window_limit()
        if limit is not None and self._pending_inst > limit:
            if self.blocked != "rob":
                self.stats.rob_stalls += 1
            self.blocked = "rob"
            return  # a read completion re-invokes us
        self.blocked = None
        now = self.sim.now
        due = self.progress_time + round(
            (self._pending_inst - self.progress_inst) * self.ps_per_inst
        )
        self.sim.schedule_fire(due if due > now else now, self._pending_action)

    def _finish(self) -> None:
        if self.finished:
            return
        if self.outstanding_reads:
            # In-order commit: the target instruction cannot retire while
            # an earlier demand miss is outstanding.
            self.blocked = "rob"
            return
        self.finished = True
        self.progress_inst = self.target
        self.progress_time = self.sim.now
        self._check_warmup()
        self.on_finished(self)

    def resume(self) -> None:
        """Wake-up from a limiter or completion; retry the pending step.

        ``blocked`` stays set through the retry, so a retry that blocks
        again continues the same stall episode.
        """
        if self.finished or self.blocked is None:
            return
        if self.blocked == "rob":
            self._schedule_pending()
        else:
            self._pending_action()

    def needs_slot(self) -> bool:
        """Limiter hook: whether the blocked read still needs an MSHR.

        A read whose line has since entered the L2 hits or merges without
        one; a core with nothing pending (finished) needs none either.
        Asked of every waiter still queued behind a taken slot, so it
        reads the fill table directly instead of calling ``has_line``.
        """
        pending = self.pending
        return pending is not None and pending.line_addr not in self.l2._ready

    def _try_process(self) -> None:
        if self.finished or self.pending is None:
            return
        event = self.pending
        kind = event.kind
        if kind is READ:
            dispatched = self._dispatch_read(event)
        elif kind is PREFETCH:
            dispatched = self._dispatch_prefetch(event)
        else:
            dispatched = self._dispatch_write(event)
        if not dispatched:
            return  # blocked; a waiter will resume us
        self.blocked = None
        self.pending = None
        self.progress_inst = event.inst
        self.progress_time = self.sim.now  # >= the no-stall ideal by construction
        if not self._warmup_fired:
            self._check_warmup()
        self._fetch_next()

    def _check_warmup(self) -> None:
        if not self._warmup_fired and self.progress_inst >= self.warmup_target:
            self._warmup_fired = True
            if self.on_warmup is not None:
                self.on_warmup(self)

    # ------------------------------------------------------------------

    def _acquire_mshrs(self) -> bool:
        """Take one data-cache MSHR and one shared-L2 MSHR, or neither."""
        if not self.data_mshr.try_acquire():
            self.data_mshr.add_waiter(self)
            return False
        if not self.l2_mshr.try_acquire():
            self.data_mshr.release()
            self.l2_mshr.add_waiter(self)
            return False
        return True

    def _release_mshrs(self) -> None:
        self.l2_mshr.release()
        self.data_mshr.release()

    def _dispatch_read(self, event: TraceEvent) -> bool:
        status, waiters = self.l2.probe(event.line_addr, self.sim.now)
        if status == "hit":
            self.stats.l2_prefetch_hits += 1
            return True
        if status == "inflight":
            assert waiters is not None
            self.stats.l2_merges += 1
            token = -next(self._merge_tokens)
            self.outstanding_reads[token] = event.inst
            waiters.append(lambda t=token: self._read_settled(t))
            return True
        if not self._acquire_mshrs():
            if self.blocked != "mshr":
                self.stats.mshr_stalls += 1
                self.blocked = "mshr"
            return False
        self.stats.demand_misses += 1
        request = MemoryRequest(
            kind=RequestKind.DEMAND_READ,
            line_addr=event.line_addr,
            core_id=self.core_id,
            arrival=self.sim.now,
            on_complete=self._demand_done,
        )
        self.outstanding_reads[request.req_id] = event.inst
        self.controller.submit(request)
        if self.config.hw_prefetch_degree:
            self._maybe_hw_prefetch(event.line_addr)
        return True

    def _maybe_hw_prefetch(self, line_addr: int) -> None:
        """L2 stream prefetcher: on a miss continuing a detected stream,
        fetch ``hw_prefetch_degree`` lines ahead (non-binding, dropped when
        MSHRs are scarce — like a real tagged next-line prefetcher).

        Called on each demand miss only while the prefetcher is on; the
        recent-miss history it keeps is read nowhere else.
        """
        degree = self.config.hw_prefetch_degree
        self._note_recent_miss(line_addr)
        if (
            line_addr - 1 not in self._recent_misses
            and line_addr - 2 not in self._recent_misses
        ):
            return  # no ascending stream ending here
        for ahead in range(1, degree + 1):
            target = line_addr + ahead
            if self.l2.has_line(target):
                continue
            if not self.data_mshr.try_acquire():
                return
            if not self.l2_mshr.try_acquire():
                self.data_mshr.release()
                return
            self.stats.hw_prefetches_issued += 1
            self.l2.start_fill(target)
            request = MemoryRequest(
                kind=RequestKind.SW_PREFETCH,  # memory cannot tell hw/sw apart
                line_addr=target,
                core_id=self.core_id,
                arrival=self.sim.now,
                on_complete=self._prefetch_done,
            )
            self.controller.submit(request)

    def _note_recent_miss(self, line_addr: int) -> None:
        self._recent_misses[line_addr] = True
        if len(self._recent_misses) > self._recent_miss_cap:
            oldest = next(iter(self._recent_misses))
            del self._recent_misses[oldest]

    def _demand_done(self, request: MemoryRequest) -> None:
        self.l2_mshr.release()  # _release_mshrs, on the demand hot path
        self.data_mshr.release()
        self._read_settled(request.req_id)

    def _read_settled(self, token: int) -> None:
        self.outstanding_reads.pop(token, None)
        if self.blocked == "rob":
            self.resume()

    def _dispatch_prefetch(self, event: TraceEvent) -> bool:
        if self.l2.has_line(event.line_addr):
            self.stats.sw_prefetches_squashed += 1
            return True
        if not self.data_mshr.try_acquire():
            self.stats.sw_prefetches_dropped += 1
            return True  # non-binding prefetch: dropped, never stalls
        if not self.l2_mshr.try_acquire():
            self.data_mshr.release()
            self.stats.sw_prefetches_dropped += 1
            return True
        self.stats.sw_prefetches_issued += 1
        self.l2.start_fill(event.line_addr)
        request = MemoryRequest(
            kind=RequestKind.SW_PREFETCH,
            line_addr=event.line_addr,
            core_id=self.core_id,
            arrival=self.sim.now,
            on_complete=self._prefetch_done,
        )
        self.controller.submit(request)
        return True

    def _prefetch_done(self, request: MemoryRequest) -> None:
        self._release_mshrs()
        self.l2.complete_fill(request.line_addr, self.sim.now)

    def _dispatch_write(self, event: TraceEvent) -> bool:
        if self.stores_outstanding >= self.config.store_buffer_entries:
            self.stats.store_stalls += 1
            self.blocked = "store"
            return False
        self.stores_outstanding += 1
        self.stats.writes_issued += 1
        self.l2.invalidate(event.line_addr)
        request = MemoryRequest(
            kind=RequestKind.WRITE,
            line_addr=event.line_addr,
            core_id=self.core_id,
            arrival=self.sim.now,
            on_complete=self._store_done,
        )
        self.controller.submit(request)
        return True

    def _store_done(self, request: MemoryRequest) -> None:
        self.stores_outstanding -= 1
        if self.blocked == "store":
            self.resume()
