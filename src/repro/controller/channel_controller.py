"""Per-physical-channel issue engines.

A channel controller owns one physical channel's queues and resources and
turns scheduled requests into timed DRAM activity.  Two variants share the
queueing/scheduling skeleton:

* :class:`Ddr2ChannelController` — shared command + data bus, DIMMs directly
  on the channel;
* :class:`FbdimmChannelController` — southbound/northbound links, AMBs with
  optional AMB-cache prefetching.

Transactions are issued atomically: when the scheduler picks a request, the
controller computes the whole command/data timeline against the bank state
and bus reservations, then schedules a single completion event.  An
in-flight cap bounds how far ahead resources can be reserved, which is what
keeps the reordering window meaningful (like a real controller's finite
command pipeline).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from functools import partial
from operator import attrgetter
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, Iterable, Optional, Sequence, Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.bank import Bank
    from repro.prefetch.lifecycle import PrefetchLifecycle
    from repro.telemetry.spans import Tracer

from repro.channel.amb import Amb
from repro.channel.ddr2_bus import Ddr2Dimm
from repro.channel.fbdimm_link import FbdimmLinks
from repro.config import FaultConfig, MemoryConfig, PagePolicy, PrefetchLocation
from repro.faults.retry import ChannelFaults
from repro.controller.prefetch_buffer import PrefetchBuffer
from repro.controller.scheduler import HitFirstScheduler
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.dram.commands import LOW_MASK, MID_MASK, pack_record
from repro.dram.resources import BusResource, TaggedBusResource
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator
from repro.stats.collector import MemSystemStats

#: The request kinds every issue and completion branches on, read once.
WRITE = RequestKind.WRITE
DEMAND_READ = RequestKind.DEMAND_READ

#: Device-scope MemSystemStats counters each channel sums over its banks,
#: with the BankStats slot each one reads.  ``column_accesses`` is
#: ``column_reads + column_writes``; close-page precharges mirror
#: activates one-for-one, so no counter reads them.
BANK_FOLD = {
    "activates": "activates",
    "column_reads": "reads",
    "column_writes": "writes",
    "refreshes": "refreshes",
    "row_hits": "row_hits",
    "row_misses": "row_misses",
    "faw_stalls": "faw_stalls",
    "faw_stall_ps": "faw_stall_ps",
}
#: Device-scope counters summed over a channel's prefetch tag stores, with
#: the TableStats field each one reads.
TABLE_FOLD = {
    "pf_table_lookups": "lookups",
    "pf_table_hits": "hits",
    "pf_table_inserts": "inserts",
    "pf_table_evictions": "evictions",
    "pf_table_invalidations": "invalidations",
}


def _no_retire() -> None:
    """The ``on_retire`` of a channel controller with no front end."""


def _fold(fold: Dict[str, str], records: Iterable[object]) -> Dict[str, int]:
    """Sum each fold source over ``records`` into its counter's name."""
    columns = zip(*map(attrgetter(*fold.values()), records))  # one per source
    totals = dict.fromkeys(fold, 0)
    totals.update(zip(fold, map(sum, columns)))
    return totals


class ChannelControllerBase:
    """Queueing, scheduling and completion plumbing shared by both kinds."""

    #: Whether _kick calls _prune before the first issue of every tick.
    #: A channel whose reservations move no grant when pruned late prunes
    #: on growth instead (see FbdimmChannelController._issue).
    _prune_each_tick = True

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        stats: MemSystemStats,
        on_retire: Callable[[], None] = _no_retire,
    ) -> None:
        self.sim = sim
        self.config = config
        self.timing = timing
        self.channel_id = channel_id
        self.stats = stats
        #: Called as each request completes, just before the requester's
        #: callback: the front end's buffer-entry release
        #: (``MemoryController._retire``).
        self._retire = on_retire
        self._line_bytes = config.cacheline_bytes
        self.read_q: Deque[MemoryRequest] = deque()
        self.write_q: Deque[MemoryRequest] = deque()
        #: The channel's DIMMs (DDR2 DIMMs or AMBs), indexed by
        #: ``mapped.dimm``; each subclass fills it in.
        self._dimms: "Sequence[Union[Ddr2Dimm, Amb]]" = ()
        #: The channel's distinct prefetch buffers (none without
        #: prefetching); their counters fold into the device counters.
        self.prefetch_buffers: "Sequence[PrefetchBuffer]" = ()
        # Only an open row makes a hit here; FB-DIMM prefetch buffers add
        # read hits of their own (FbdimmChannelController).
        open_page = config.page_policy is PagePolicy.OPEN_PAGE
        self.scheduler = HitFirstScheduler(
            config.write_drain_threshold,
            reads_can_hit=open_page, writes_can_hit=open_page,
        )
        # Cached bound methods for the kick loop: building the bound-method
        # objects anew on every select call is measurable at this call rate.
        self._select = self.scheduler.select
        self._probe_fn = self._probe
        # Separate read/write in-flight caps: a write drain may not
        # monopolise the issue pipeline and starve ready reads (writes are
        # posted; reads are latency-critical).
        self.max_read_inflight = max(8, 2 * config.dimms_per_channel)
        self.max_write_inflight = max(4, config.dimms_per_channel)
        self.inflight_reads = 0
        self.inflight_writes = 0
        self._wake = None  # pending future kick event, at most one outstanding
        #: Tick for which a handle-free same-tick kick is already queued.
        #: A kick at the current time can never be preempted by an earlier
        #: one, so it needs no cancellation handle — only this dedupe mark.
        self._wake_now_tick = -1
        self._pruned_at = -1  # last tick _prune ran (idempotent within one)
        self._banks_per_dimm = config.banks_per_dimm
        #: Optional request-lifecycle tracer (assigned by MemoryController);
        #: its retry hook is skipped while this stays None.
        self.tracer: "Optional[Tracer]" = None
        #: Optional per-prefetch lifecycle tracker (repro.prefetch);
        #: attached via attach_lifecycle, None keeps every hook free.
        self.lifecycle: "Optional[PrefetchLifecycle]" = None

    # -- queue interface -------------------------------------------------

    def submit(self, req: MemoryRequest) -> None:
        """Accept a mapped, schedulable request into this channel's queues.

        The request's bank and rank timer are resolved here, once, so the
        scheduler's per-candidate probe does no index arithmetic.
        """
        mapped = req.mapped
        rank = mapped.rank
        dimm = self._dimms[mapped.dimm]
        req.bank = dimm.banks[rank * self._banks_per_dimm + mapped.bank]
        req.rank_timer = dimm.rank_timers[rank]
        if req.kind is WRITE:
            self.write_q.append(req)
        else:
            self.read_q.append(req)
        self._request_kick(self.sim.now)

    def queue_len(self) -> int:
        """Requests waiting (not yet issued) on this channel."""
        return len(self.read_q) + len(self.write_q)

    # -- scheduling loop --------------------------------------------------

    def _request_kick(self, time: int) -> None:
        now = self.sim.now
        if self._wake_now_tick == now:
            return  # a kick for this very tick is already queued
        wake = self._wake
        if wake is not None and not wake.cancelled:
            if wake.time <= time:
                return
            wake.cancel()
            self._wake = None
        if time <= now:
            self._wake_now_tick = now
            self.sim.schedule_fire(now, self._kick)
        else:
            self._wake = self.sim.schedule_at(time, self._kick)

    _EMPTY: Deque[MemoryRequest] = deque()

    def _kick(self) -> None:
        self._wake = None
        self._wake_now_tick = -1
        now = self.sim.now
        while True:
            reads = self.read_q if self.inflight_reads < self.max_read_inflight else self._EMPTY
            writes = (
                self.write_q
                if self.inflight_writes < self.max_write_inflight
                else self._EMPTY
            )
            if not reads and not writes:
                return
            choice = self._select(now, reads, writes, self._probe_fn)
            if choice is None:
                return
            req, est, from_writes = choice
            if est > now:
                self._request_kick(est)
                return
            if from_writes:
                self.write_q.remove(req)
                self.inflight_writes += 1
            else:
                self.read_q.remove(req)
                self.inflight_reads += 1
            req.issue_time = now
            stats = self.stats
            stats.last_activity_ps = now  # time never runs backwards
            if stats.first_activity_ps < 0:
                stats.first_activity_ps = now
            if self._prune_each_tick and now != self._pruned_at:
                # Before the tick's first grant, once.  Exact: the
                # scheduler's probes read no bus, and prunes at t1 <= t2
                # with only grants starting at t1 or later in between
                # leave what one prune at t2 leaves
                # (TaggedBusResource.prune_before).
                self._prune(now)
                self._pruned_at = now
            self._issue(req)

    def _start_refresh(self, rank_banks: Sequence[Sequence[Bank]]) -> None:
        """Arm periodic all-bank refresh per rank, staggered across ranks.

        Each entry of ``rank_banks`` is one rank's bank list; every tREFI
        that rank takes exactly one all-bank REF (a tRFC blackout on all
        its banks), with rank offsets spread across the interval so the
        whole channel never refreshes at once.

        Off by default (refresh_interval_ns == 0).  Note: once armed, the
        event queue never drains — run loops must stop via an explicit
        condition (System.run does; bare-controller tests should leave
        refresh off or use Simulator.run(until=...)).
        """
        from repro.engine.simulator import ns as to_ps

        interval = to_ps(self.config.refresh_interval_ns)
        if interval <= 0:
            return
        trfc = to_ps(self.config.refresh_cycle_ns)
        for index, banks in enumerate(rank_banks):
            offset = (interval * index) // max(1, len(rank_banks))

            def loop(banks: Sequence[Bank] = banks) -> None:
                for bank in banks:
                    bank.refresh(self.sim.now, trfc)
                self.sim.schedule_fire(self.sim.now + interval, lambda: loop(banks))

            self.sim.schedule_fire(offset + interval, lambda b=banks: loop(b))

    def _finish_at(self, req: MemoryRequest, data_at: int, finish_time: int) -> None:
        """Record when the transaction's data moves and schedule its
        completion event."""
        req.data_at = data_at
        self.sim.schedule_fire(finish_time, partial(self._complete, req))

    def _complete(self, req: MemoryRequest) -> None:
        """Account the finished transaction, retire it from the front end,
        then run the requester's callback."""
        now = self.sim.now
        stats = self.stats
        stats.last_activity_ps = now
        if stats.first_activity_ps < 0:
            stats.first_activity_ps = now
        if req.kind is WRITE:
            self.inflight_writes -= 1
            stats.record_write_completion(self._line_bytes)
        else:
            self.inflight_reads -= 1
            queue_delay = req.issue_time - req.schedulable_at
            stats.record_read_completion(
                now - req.arrival, queue_delay if queue_delay > 0 else 0,
                req.kind is DEMAND_READ, req.amb_hit, self._line_bytes,
                req.core_id,
            )
        self._retire()
        req.complete(now)
        if self.read_q or self.write_q:
            self._request_kick(now)

    # -- protocol-checker support ------------------------------------------

    def enable_protocol_trace(self) -> None:
        """Start journalling DRAM commands (and frames) for the checker."""
        raise NotImplementedError

    def bank_journals(self) -> "list":
        """``((channel, dimm, rank, bank), command_log)`` for every bank
        that logged a command (``repro.check.trace.BankJournal``)."""
        per_dimm = self.config.banks_per_dimm
        return [
            ((self.channel_id, dimm.dimm_id) + divmod(bank.bank_id, per_dimm),
             bank.command_log)
            for dimm in self._dimms for bank in dimm.banks if bank.command_log
        ]

    def link_journals(self) -> "list":
        """The channel's frame journals (``repro.check.trace.LinkJournal``);
        a DDR2 channel has none."""
        return []

    # -- hooks implemented per channel kind --------------------------------

    def _prune(self, now: int) -> None:
        """Drop expired bus reservations (keeps backfill searches short);
        called before each tick's first issue while ``_prune_each_tick``
        is set."""
        raise NotImplementedError

    def _probe(self, req: MemoryRequest) -> "tuple[int, bool]":
        """The scheduler's probe: (earliest start, hit) for a candidate.

        Side-effect-free; called once per scanned candidate per kick.
        """
        return req.bank.probe(self.sim.now, req.mapped.row, req.rank_timer)

    def _issue(self, req: MemoryRequest) -> None:
        raise NotImplementedError

    def busy_ps(self) -> Dict[str, int]:
        """Occupancy of the channel's buses/links, by resource name."""
        raise NotImplementedError

    # -- device counters ---------------------------------------------------

    def collect_device_counters(self) -> Dict[str, int]:
        """Side-effect-free snapshot of the channel's device-scope counters
        (see controller finalize/warmup)."""
        counters = _fold(BANK_FOLD, (
            bank.stats for dimm in self._dimms for bank in dimm.banks
        ))
        counters["column_accesses"] = counters["column_reads"] + counters["column_writes"]
        buffers = self.prefetch_buffers
        counters["prefetched_lines"] = sum(b.prefetched_lines for b in buffers)
        # Tag-store counters fold only under lifecycle observability,
        # keeping default-run stats (and their digests) untouched.
        observed = buffers if self.lifecycle is not None else ()
        counters.update(_fold(TABLE_FOLD, (b.table.stats for b in observed)))
        return counters


class Ddr2ChannelController(ChannelControllerBase):
    """One conventional DDR2 channel: shared command and data buses."""

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        stats: MemSystemStats,
        on_retire: Callable[[], None] = _no_retire,
    ) -> None:
        super().__init__(sim, config, timing, channel_id, stats, on_retire)
        gap = round(config.ddr2_switch_gap_clocks * timing.clock)
        self.data_bus = TaggedBusResource(f"ddr2-ch{channel_id}.data", switch_gap_ps=gap)
        self.command_bus = BusResource(f"ddr2-ch{channel_id}.cmd")
        self.dimms = [
            Ddr2Dimm(config, timing, channel_id, d, self.data_bus, self.command_bus)
            for d in range(config.dimms_per_channel)
        ]
        self._dimms = self.dimms
        per_rank = config.banks_per_dimm
        self._start_refresh([
            dimm.banks[r * per_rank:(r + 1) * per_rank]
            for dimm in self.dimms
            for r in range(config.ranks_per_dimm)
        ])

    def _prune(self, now: int) -> None:
        # Before every tick's first grant, not lazily: the tagged data
        # bus's prune timing shows in its grants
        # (TaggedBusResource.prune_before).  Emptiness guards saved here
        # beat the frequent no-op calls.
        if len(self.data_bus._intervals) > 1:
            self.data_bus.prune_before(now)
        if self.command_bus._intervals:
            self.command_bus.prune_before(now)

    def _issue(self, req: MemoryRequest) -> None:
        dimm = self.dimms[req.mapped.dimm]
        result = (dimm.write_line(self.sim.now, req.mapped)
                  if req.kind is WRITE
                  else dimm.read_line(self.sim.now, req.mapped))
        req.row_hit = result.row_hit
        self._finish_at(req, result.data_starts[0], result.data_times[0])

    def enable_protocol_trace(self) -> None:
        for dimm in self.dimms:
            for bank in dimm.banks:
                bank.enable_trace()

    def busy_ps(self) -> Dict[str, int]:
        return {self.data_bus.name: self.data_bus.busy_ps}


class FbdimmChannelController(ChannelControllerBase):
    """One FB-DIMM physical channel with daisy-chained AMBs.

    With ``config.prefetch.enabled`` the controller consults the prefetch
    buffer of the read's DIMM before issuing: hits are served from it
    (Section 3.2), misses become group fetches that fill it.
    """

    # The links and the AMB buses only ever take reservations at or after
    # now, so an expired entry can never move a grant: _issue prunes a
    # structure only once it outgrows its limit (see _issue).
    _prune_each_tick = False

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        stats: MemSystemStats,
        faults: Optional[FaultConfig] = None,
        on_retire: Callable[[], None] = _no_retire,
    ) -> None:
        super().__init__(sim, config, timing, channel_id, stats, on_retire)
        self.links = FbdimmLinks(config, channel_id)
        self.ambs = [
            Amb(config, timing, channel_id, d) for d in range(config.dimms_per_channel)
        ]
        self._dimms = self.ambs
        per_rank = config.banks_per_dimm
        self._start_refresh([
            amb.banks[r * per_rank:(r + 1) * per_rank]
            for amb in self.ambs
            for r in range(config.ranks_per_dimm)
        ])
        self.prefetch = config.prefetch
        self._pf_enabled = config.prefetch.enabled
        self._region_lines = config.prefetch.region_cachelines
        #: CRC retry/replay engine (None keeps the exact seed timing path).
        self.faults: Optional[ChannelFaults] = None
        #: Request currently inside _issue — context for the retry tracer
        #: hook, which fires from deep inside the link layer.
        self._issuing: Optional[MemoryRequest] = None
        if faults is not None and faults.enabled:
            self.faults = ChannelFaults(faults, config.frame_ps, channel_id, stats)
            self.faults.on_retry = self._on_fault_retry
            self.links.faults = self.faults
        # FBD-APFL (Figure 9): hits pay the full DRAM idle latency
        # (tRCD + tCL) but keep the bank idle.
        self.hit_extra_ps = (
            timing.tRCD + timing.tCL if self.prefetch.full_latency_hits else 0
        )
        #: The prefetch buffer serving each DIMM's reads (empty without
        #: prefetching).  Under PrefetchLocation.AMB each DIMM has its own,
        #: parity-checked under fault injection; under CONTROLLER every
        #: slot holds one channel buffer with all the AMB caches' capacity.
        dimms = config.dimms_per_channel
        self.buffers: "list[PrefetchBuffer]" = []
        self._buffer_at_amb = self.prefetch.location is PrefetchLocation.AMB
        if self._pf_enabled and self._buffer_at_amb:
            self.buffers = [PrefetchBuffer(self.prefetch, self.faults)
                            for _ in range(dimms)]
            self.prefetch_buffers = self.buffers
        elif self._pf_enabled:
            shared = PrefetchBuffer(dataclasses.replace(
                self.prefetch, cache_entries=self.prefetch.cache_entries * dimms
            ))
            self.buffers = [shared] * dimms
            self.prefetch_buffers = (shared,)
        if self.buffers:
            self.scheduler.reads_can_hit = True
        # Prune bounds: how many entries the in-flight caps can keep booked
        # at once.  A read books one command slot and returns one line
        # north (its whole group under controller-side buffering); a
        # prefetching read books one AMB-bus burst per group line; a write
        # books its data frames and one burst.  An AMB bus carries one
        # DIMM's share, and its gap search scans expired entries too, so
        # its bound is that even share and it is pruned whenever it
        # exceeds it.  A link's lookups touch only frames at or after
        # now, so its expired frames cost memory, not time: a link is
        # pruned once it exceeds both its bound and twice its size after
        # the last prune, which makes the pruning O(1) amortised per
        # booking.
        group = self._region_lines if self._pf_enabled else 1
        north_lines = 1 if self._buffer_at_amb else group
        reads, writes = self.max_read_inflight, self.max_write_inflight
        self._north_bound = reads * north_lines * self.links.read_frames
        self._south_bound = reads + writes * self.links.write_frames
        self._bus_bound = (reads * group + writes) // len(self.ambs)
        self._north_limit = self._north_bound
        self._south_limit = self._south_bound

    def attach_lifecycle(self, lifecycle: "PrefetchLifecycle") -> None:
        """Arm per-prefetch lifecycle tracking on this channel.

        The tracker is shared across channels (one stats object); it hooks
        the controller's completion path and every prefetch buffer.
        """
        self.lifecycle = lifecycle
        for buffer in self.prefetch_buffers:
            buffer.attach_lifecycle(lifecycle)

    def submit(self, req: MemoryRequest) -> None:
        """Bind and queue as the base class does; a read also binds its
        DIMM's prefetch-buffer tag-store set and pending-fill map (stable
        objects), so the probe needs no lookups of its own."""
        mapped = req.mapped
        rank = mapped.rank
        amb = self.ambs[mapped.dimm]
        req.bank = amb.banks[rank * self._banks_per_dimm + mapped.bank]
        req.rank_timer = amb.rank_timers[rank]
        if req.kind is WRITE:
            self.write_q.append(req)
        else:
            if self.buffers:
                buffer = self.buffers[mapped.dimm]
                req.tag_set = buffer.table.set_for(req.line_addr)
                req.pending_fills = buffer.pending
            self.read_q.append(req)
        self._request_kick(self.sim.now)

    # -- scheduling probe ------------------------------------------------

    def _probe(self, req: MemoryRequest) -> "tuple[int, bool]":
        """A read the prefetch buffer holds, or is filling, is a hit that
        is ready when its data is; anything else asks the bank.

        A channel that entered fault-degraded mode stops trusting (and
        stops filling) its prefetch buffers: from then on its reads take
        the plain FB-DIMM path until the end of the run.
        """
        now = self.sim.now
        tag_set = req.tag_set
        if tag_set is not None:
            faults = self.faults
            if faults is None or not faults.degraded:
                line = req.line_addr
                if line in tag_set:
                    return now, True
                pending = req.pending_fills.get(line // self._region_lines)
                if pending is not None and line in pending:
                    avail = pending[line]
                    return (now if now >= avail else avail), True
        return req.bank.probe(now, req.mapped.row, req.rank_timer)

    # -- issue paths ---------------------------------------------------------

    def _on_fault_retry(self, kind: str, time_ps: int, attempt: int) -> None:
        """ChannelFaults.on_retry hook: surface replays to the tracer."""
        if self.tracer is not None and self._issuing is not None:
            self.tracer.on_retry(self._issuing, kind, time_ps)

    def _issue(self, req: MemoryRequest) -> None:
        self._issuing = req
        faults = self.faults
        try:
            if req.kind is WRITE:
                self._issue_write(req)
            elif self._pf_enabled and (faults is None or not faults.degraded):
                self._issue_read_prefetching(req)
            else:
                self._issue_read_plain(req)
        finally:
            self._issuing = None
        # Only issues book: check the links and the one AMB bus it used.
        now = self.sim.now
        links = self.links
        north, south = links.north, links.south
        if len(north._taken) > self._north_limit:
            north.prune_before(now)
            self._north_limit = max(self._north_bound, 2 * len(north._taken))
        if len(south._frames) > self._south_limit:
            south.prune_before(now)
            self._south_limit = max(self._south_bound, 2 * len(south._frames))
        bus = self.ambs[req.mapped.dimm].data_bus
        if len(bus._intervals) > self._bus_bound:
            bus.prune_before(now)

    # The issue paths access the bank and rank timer submit bound, over
    # the DIMM's AMB-side DDR2 bus.

    def _issue_write(self, req: MemoryRequest) -> None:
        dimm = req.mapped.dimm
        if self.buffers:
            self.buffers[dimm].invalidate(req.line_addr)
        arrival = self.links.send_write_ps(self.sim.now, dimm)
        result = req.bank.write(arrival, req.mapped.row,
                                self.ambs[dimm].data_bus, req.rank_timer)
        req.row_hit = result.row_hit
        self._finish_at(req, result.data_starts[0], result.data_times[0])

    def _issue_read_plain(self, req: MemoryRequest) -> None:
        dimm = req.mapped.dimm
        arrival = self.links.send_command_ps(self.sim.now)
        result = req.bank.read(arrival, req.mapped.row, 1,
                               self.ambs[dimm].data_bus, req.rank_timer)
        req.row_hit = result.row_hit
        demanded = result.data_starts[0]
        ret = self.links.return_read(demanded, dimm)
        self._finish_at(req, demanded, ret.critical_at_mc)

    def _issue_read_prefetching(self, req: MemoryRequest) -> None:
        """Serve a read from its DIMM's prefetch buffer, or group-fetch it.

        The placement decides where the lines cross the channel.  At the
        AMB every read sends its command south and only the demanded line
        comes north; the companions fill the AMB cache.  At the controller
        a hit needs no channel at all, and a miss brings the whole group
        north - the channel-bandwidth cost the paper's AMB placement avoids.
        """
        dimm = req.mapped.dimm
        buffer = self.buffers[dimm]
        line = req.line_addr
        now = self.sim.now
        # Under AMB placement the lookup's parity draw precedes the send.
        available = buffer.lookup(line)
        links = self.links
        region = line // self._region_lines
        if self._buffer_at_amb:
            arrival = links.send_command_ps(now)
            if available is not None:
                req.amb_hit = True
                # FBD-APFL charges the hit the tRCD + tCL a miss would pay;
                # it is not additive with an in-flight fill's completion.
                ready = max(arrival + self.hit_extra_ps, available)
                self._finish_at(req, ready, links.return_read(ready, dimm).critical_at_mc)
                return
            order = buffer.miss(line)
            result = req.bank.read(arrival, req.mapped.row, len(order),
                                   self.ambs[dimm].data_bus, req.rank_timer)
            buffer.start_fills(region, dict(zip(order[1:], result.data_times[1:])))
            demanded = result.data_starts[0]
            ret = links.return_read(demanded, dimm)
            # Scheduled even for a group with no companions: a no-op commit.
            self.sim.schedule_fire(result.data_times[-1],
                                   partial(buffer.commit, region))
            self._finish_at(req, demanded, ret.critical_at_mc)
            return
        if available is not None:
            req.amb_hit = True
            ready = max(now, available)
            self._finish_at(req, ready, ready)
            return
        arrival = links.send_command_ps(now)
        order = buffer.miss(line)
        result = req.bank.read(arrival, req.mapped.row, len(order),
                               self.ambs[dimm].data_bus, req.rank_timer)
        fills: "dict[int, int]" = {}
        demanded_finish = 0
        for fetched, start in zip(order, result.data_starts):
            ret = links.return_read(start, dimm)
            if fetched == line:
                demanded_finish = ret.critical_at_mc
            else:
                fills[fetched] = ret.full_at_mc
                self.stats.bytes_read += self._line_bytes
        buffer.start_fills(region, fills)
        if fills:
            self.sim.schedule_fire(max(fills.values()),
                                   partial(buffer.commit, region))
        self._finish_at(req, result.data_starts[0], demanded_finish)

    def enable_protocol_trace(self) -> None:
        """Also journal the links.  Raises ValueError when a line's frame
        count or the last replay attempt does not fit its journal field."""
        frames = self.links.read_frames
        last_replay = 0 if self.faults is None else self.faults.config.max_retries + 1
        if frames > MID_MASK or last_replay > LOW_MASK:
            pack_record(0, frames, last_replay,  # raises, naming the field
                        ("time", "frames per line", "last replay (max_retries + 1)"))
        for amb in self.ambs:
            for bank in amb.banks:
                bank.enable_trace()
        self.links.south.enable_journal()
        self.links.north.enable_journal()

    def link_journals(self) -> "list":
        south, north = self.links.south.journal, self.links.north.journal
        return [] if south is None else [(self.channel_id, south, north)]

    def busy_ps(self) -> Dict[str, int]:
        north, south = self.links.north, self.links.south
        return {north.name: north.busy_ps, south.name: south.busy_ps}
