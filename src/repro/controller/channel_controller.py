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
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Deque, Dict, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.bank import Bank
    from repro.prefetch.lifecycle import PrefetchLifecycle
    from repro.telemetry.spans import Tracer

from repro.channel.amb import Amb
from repro.channel.ddr2_bus import Ddr2Dimm
from repro.channel.fbdimm_link import FbdimmLinks
from repro.config import FaultConfig, MemoryConfig, PrefetchLocation
from repro.faults.retry import ChannelFaults
from repro.controller.prefetch_table import PrefetchTable
from repro.controller.scheduler import HitFirstScheduler
from repro.controller.transaction import MemoryRequest, RequestKind
from repro.dram.resources import BusResource, TaggedBusResource
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator
from repro.stats.collector import MemSystemStats

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


def _fold(fold: Dict[str, str], records: Iterable[object]) -> Dict[str, int]:
    """Sum each fold source over ``records`` into its counter's name."""
    columns = zip(*map(attrgetter(*fold.values()), records))  # one per source
    totals = dict.fromkeys(fold, 0)
    totals.update(zip(fold, map(sum, columns)))
    return totals


class ChannelControllerBase:
    """Queueing, scheduling and completion plumbing shared by both kinds."""

    #: Whether _kick calls _prune at the first kick of every tick.  A
    #: channel whose reservations move no grant when pruned late prunes
    #: on growth instead (see FbdimmChannelController._issue).
    _prune_each_tick = True

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        stats: MemSystemStats,
    ) -> None:
        self.sim = sim
        self.config = config
        self.timing = timing
        self.channel_id = channel_id
        self.stats = stats
        self.read_q: Deque[MemoryRequest] = deque()
        self.write_q: Deque[MemoryRequest] = deque()
        #: The channel's DIMMs (DDR2 DIMMs or AMBs), indexed by
        #: ``mapped.dimm``; each subclass fills it in.
        self._dimms: "Sequence[Union[Ddr2Dimm, Amb]]" = ()
        self.scheduler = HitFirstScheduler(config.write_drain_threshold)
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
        #: every hook site is a no-op when this stays None.
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
        if req.kind is RequestKind.WRITE:
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
        if self._prune_each_tick and now != self._pruned_at:
            # prune_before(now) is idempotent at a fixed now (reservations
            # never end in the past), so repeated kicks within one tick
            # skip the rescan without changing any backfill search.
            self._prune(now)
            self._pruned_at = now
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
            if self.tracer is not None:
                self.tracer.on_issue(req, now)
            self.stats.note_activity(now)
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

    def _finish_at(self, req: MemoryRequest, finish_time: int) -> None:
        """Schedule the completion event for an issued transaction."""
        self.sim.schedule_fire(finish_time, partial(self._complete, req))

    def _complete(self, req: MemoryRequest) -> None:
        if req.kind is RequestKind.WRITE:
            self.inflight_writes -= 1
        else:
            self.inflight_reads -= 1
        now = self.sim.now
        self.stats.note_activity(now)
        queue_delay = max(0, req.issue_time - req.schedulable_at)
        if req.kind is RequestKind.WRITE:
            self.stats.record_write_completion(self.config.cacheline_bytes)
        else:
            self.stats.record_read_completion(
                latency_ps=now - req.arrival,
                queue_delay_ps=queue_delay,
                is_demand=req.kind is RequestKind.DEMAND_READ,
                amb_hit=req.amb_hit,
                line_bytes=self.config.cacheline_bytes,
                core_id=req.core_id,
            )
            if req.amb_hit and self.lifecycle is not None:
                # Counted at completion, exactly like amb_hits, so the
                # lifecycle-derived coverage matches the legacy figure.
                self.lifecycle.on_hit_completion()
        if self.tracer is not None:
            self.tracer.on_complete(req, now)
        req.complete(now)
        if self.read_q or self.write_q:
            self._request_kick(now)

    # -- protocol-checker support ------------------------------------------

    def _bank_check_events(self, dimm_id: int,
                           banks: Iterable[Bank]) -> "list":
        """Convert the banks' command logs into checker events."""
        from repro.check.trace import CheckEvent

        per_dimm = self.config.banks_per_dimm
        channel = self.channel_id
        events = []
        for bank in banks:
            if not bank.command_log:
                continue
            rank, local = divmod(bank.bank_id, per_dimm)
            # ``_value_`` rather than ``.value``: a plain attribute read,
            # not a property call per command.
            for command, time_ps, _, row in bank.command_log:
                events.append(CheckEvent(time_ps, command._value_, channel,
                                         dimm_id, rank, local, row, 1, 0))
        return events

    def enable_protocol_trace(self) -> None:
        """Start journalling DRAM commands (and frames) for the checker."""
        raise NotImplementedError

    def collect_check_events(self) -> "list":
        """All journalled events so far, time-sorted."""
        raise NotImplementedError

    # -- hooks implemented per channel kind --------------------------------

    def _prune(self, now: int) -> None:
        """Drop expired bus reservations (keeps backfill searches short);
        called once per tick while ``_prune_each_tick`` is set."""
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

    def _prefetched_lines(self) -> int:
        """Lines written into this channel's prefetch buffers."""
        return 0

    def _tag_stores(self) -> "Sequence[PrefetchTable]":
        """Tag stores whose counters fold into the pf_table_* counters."""
        return ()

    # -- device counters ---------------------------------------------------

    def collect_device_counters(self) -> Dict[str, int]:
        """Side-effect-free snapshot of the channel's device-scope counters
        (see controller finalize/warmup)."""
        counters = _fold(BANK_FOLD, (
            bank.stats for dimm in self._dimms for bank in dimm.banks
        ))
        counters["column_accesses"] = counters["column_reads"] + counters["column_writes"]
        counters["prefetched_lines"] = self._prefetched_lines()
        counters.update(_fold(TABLE_FOLD, (t.stats for t in self._tag_stores())))
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
    ) -> None:
        super().__init__(sim, config, timing, channel_id, stats)
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
        # Every tick, not lazily: the tagged data bus's prune timing shows
        # in its grants (TaggedBusResource.prune_before).  Emptiness guards
        # saved here beat the (very frequent) no-op calls.
        if len(self.data_bus._intervals) > 1:
            self.data_bus.prune_before(now)
        if self.command_bus._intervals:
            self.command_bus.prune_before(now)

    def _issue(self, req: MemoryRequest) -> None:
        dimm = self.dimms[req.mapped.dimm]
        result = (dimm.write_line(self.sim.now, req.mapped)
                  if req.kind is RequestKind.WRITE
                  else dimm.read_line(self.sim.now, req.mapped))
        req.row_hit = result.row_hit
        if self.tracer is not None:
            self.tracer.on_data(req, result.data_starts[0])
        self._finish_at(req, result.data_times[0])

    def enable_protocol_trace(self) -> None:
        for dimm in self.dimms:
            for bank in dimm.banks:
                bank.enable_trace()

    def collect_check_events(self) -> "list":
        events = []
        for dimm in self.dimms:
            events.extend(self._bank_check_events(dimm.dimm_id, dimm.banks))
        events.sort(key=itemgetter(0))
        return events

    def busy_ps(self) -> Dict[str, int]:
        return {self.data_bus.name: self.data_bus.busy_ps}


class FbdimmChannelController(ChannelControllerBase):
    """One FB-DIMM physical channel with daisy-chained AMBs.

    With ``config.prefetch.enabled`` the controller consults the prefetch
    information table before issuing: hits are served straight from the AMB
    cache (Section 3.2), misses become group fetches that fill it.
    """

    # The links and the AMB buses only ever take reservations at or after
    # now, so an expired entry can never move a grant: _issue prunes a
    # structure only once it outgrows its bound.
    _prune_each_tick = False

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        timing: TimingPs,
        channel_id: int,
        stats: MemSystemStats,
        faults: Optional[FaultConfig] = None,
    ) -> None:
        super().__init__(sim, config, timing, channel_id, stats)
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
            for amb in self.ambs:
                amb.faults = self.faults
        # FBD-APFL (Figure 9): hits pay the full DRAM idle latency
        # (tRCD + tCL) but keep the bank idle.
        self.hit_extra_ps = (
            timing.tRCD + timing.tCL if self.prefetch.full_latency_hits else 0
        )
        # Controller-side buffering (PrefetchLocation.CONTROLLER): one tag
        # store per channel at the memory controller, with the same total
        # capacity as this channel's AMB caches would have had.
        self.mc_table: Optional[PrefetchTable] = None
        self.mc_pending: "dict[int, dict[int, int]]" = {}
        self.mc_prefetched_lines = 0
        if (
            self.prefetch.enabled
            and self.prefetch.location is PrefetchLocation.CONTROLLER
        ):
            scaled = dataclasses.replace(
                self.prefetch,
                cache_entries=self.prefetch.cache_entries
                * config.dimms_per_channel,
            )
            self.mc_table = PrefetchTable(scaled)
        # Prune bounds: how many entries the in-flight caps can keep booked
        # at once.  A read books one command slot and returns one line
        # north (its whole group under controller-side buffering); a
        # prefetching read books one AMB-bus burst per group line; a write
        # books its data frames and one burst.  An AMB bus carries one
        # DIMM's share, and its gap search scans expired entries too, so
        # its bound is that even share.
        group = self._region_lines if self._pf_enabled else 1
        north_lines = group if self.mc_table is not None else 1
        reads, writes = self.max_read_inflight, self.max_write_inflight
        self._north_bound = reads * north_lines * self.links.read_frames
        self._south_bound = reads + writes * self.links.write_frames
        self._bus_bound = (reads * group + writes) // len(self.ambs)

    def attach_lifecycle(self, lifecycle: "PrefetchLifecycle") -> None:
        """Arm per-prefetch lifecycle tracking on this channel.

        The tracker is shared across channels (one stats object); it hooks
        the controller's completion path, every AMB's fetch/fill path and
        each tag store's eviction path.
        """
        self.lifecycle = lifecycle
        for amb in self.ambs:
            amb.lifecycle = lifecycle
            if amb.table is not None:
                amb.table.lifecycle = lifecycle
        if self.mc_table is not None:
            self.mc_table.lifecycle = lifecycle

    def submit(self, req: MemoryRequest) -> None:
        if req.kind is not RequestKind.WRITE:
            # Bind the prefetch buffer's tag-store set and pending-fill map
            # (stable objects) so the probe needs no lookups of its own.
            if self.mc_table is not None:
                req.tag_set = self.mc_table.set_for(req.line_addr)
                req.pending_fills = self.mc_pending
            else:
                amb = self.ambs[req.mapped.dimm]
                if amb.table is not None:
                    req.tag_set = amb.table.set_for(req.line_addr)
                    req.pending_fills = amb.pending_fills
        super().submit(req)

    # -- scheduling probe ------------------------------------------------

    def _amb_for(self, req: MemoryRequest) -> Amb:
        return self.ambs[req.mapped.dimm]

    def _prefetch_active(self) -> bool:
        """Prefetching is configured and the channel has not degraded.

        A channel that entered fault-degraded mode stops trusting (and
        stops filling) its prefetch caches: demand reads fall back to the
        plain FB-DIMM path until the end of the run.
        """
        if not self._pf_enabled:
            return False
        faults = self.faults
        return faults is None or not faults.degraded

    def _probe(self, req: MemoryRequest) -> "tuple[int, bool]":
        """A read the prefetch buffer holds, or is filling, is a hit that
        is ready when its data is; anything else asks the bank.

        Inlines _prefetch_active(): this is the hottest probe in the FBD
        model, and a degraded channel no longer trusts its buffer.
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
            self.tracer.on_retry(self._issuing, time_ps)

    def _issue(self, req: MemoryRequest) -> None:
        self._issuing = req
        try:
            if req.kind is RequestKind.WRITE:
                self._issue_write(req)
            elif self._prefetch_active():
                self._issue_read_prefetching(req)
            else:
                self._issue_read_plain(req)
        finally:
            self._issuing = None
        # Only issues book: check the links and the one AMB bus it used.
        now = self.sim.now
        links = self.links
        if len(links.north._taken) > self._north_bound:
            links.north.prune_before(now)
        if len(links.south._frames) > self._south_bound:
            links.south.prune_before(now)
        bus = self.ambs[req.mapped.dimm].data_bus
        if len(bus._intervals) > self._bus_bound:
            bus.prune_before(now)

    def _issue_write(self, req: MemoryRequest) -> None:
        amb = self._amb_for(req)
        amb.invalidate(req.line_addr)
        if self.mc_table is not None:
            self.mc_table.invalidate(req.line_addr)
            region = req.line_addr // self.prefetch.region_cachelines
            pending = self.mc_pending.get(region)
            if pending is not None:
                pending.pop(req.line_addr, None)
            if self.lifecycle is not None:
                self.lifecycle.on_invalidate(req.line_addr)
        arrival = self.links.send_write_ps(self.sim.now, req.mapped.dimm)
        result = amb.write_line(arrival, req.mapped)
        req.row_hit = result.row_hit
        if self.tracer is not None:
            self.tracer.on_data(req, result.data_starts[0])
        self._finish_at(req, result.data_times[0])

    def _issue_read_plain(self, req: MemoryRequest) -> None:
        amb = self._amb_for(req)
        arrival = self.links.send_command_ps(self.sim.now)
        result = amb.read_line(arrival, req.mapped)
        req.row_hit = result.row_hit
        if self.tracer is not None:
            self.tracer.on_data(req, result.data_starts[0])
        ret = self.links.return_read(result.data_starts[0], req.mapped.dimm)
        self._finish_at(req, ret.critical_at_mc)

    def _issue_read_prefetching(self, req: MemoryRequest) -> None:
        if self.mc_table is not None:
            self._issue_read_mc_prefetching(req)
            return
        amb = self._amb_for(req)
        available = amb.cache_lookup(req.line_addr)
        arrival = self.links.send_command_ps(self.sim.now)
        if available is not None:
            req.amb_hit = True
            # FBD-APFL charges the hit the tRCD + tCL a miss would pay; it
            # is not additive with an in-flight fill's completion time.
            ready = max(arrival + self.hit_extra_ps, available)
            if self.tracer is not None:
                self.tracer.on_data(req, ready)
            ret = self.links.return_read(ready, req.mapped.dimm)
            self._finish_at(req, ret.critical_at_mc)
            return
        group = amb.group_fetch(arrival, req.mapped, req.line_addr)
        if self.tracer is not None:
            self.tracer.on_data(req, group.demanded_start)
        ret = self.links.return_read(group.demanded_start, req.mapped.dimm)
        region = req.line_addr // self.prefetch.region_cachelines
        self.sim.schedule_fire(group.last_fill, partial(amb.commit_fills, region))
        self._finish_at(req, ret.critical_at_mc)

    def _issue_read_mc_prefetching(self, req: MemoryRequest) -> None:
        """PrefetchLocation.CONTROLLER: the whole region crosses the channel.

        Hits are served from the controller buffer with no channel activity
        at all; misses pay K northbound line transfers instead of one -
        exactly the channel-bandwidth cost the paper's AMB placement avoids.
        """
        assert self.mc_table is not None
        region = req.line_addr // self.prefetch.region_cachelines
        if self.mc_table.lookup(req.line_addr):
            req.amb_hit = True
            if self.lifecycle is not None:
                self.lifecycle.on_hit(req.line_addr)
            amb = self._amb_for(req)
            if amb.policy is not None:
                amb.policy.observe_hit(req.line_addr)
            if self.tracer is not None:
                self.tracer.on_data(req, self.sim.now)
            self._finish_at(req, self.sim.now)
            return
        pending = self.mc_pending.get(region)
        if pending is not None and req.line_addr in pending:
            self.mc_table.stats.hits += 1
            req.amb_hit = True
            if self.lifecycle is not None:
                self.lifecycle.on_late(req.line_addr)
            ready = max(self.sim.now, pending[req.line_addr])
            if self.tracer is not None:
                self.tracer.on_data(req, ready)
            self._finish_at(req, ready)
            return

        amb = self._amb_for(req)
        arrival = self.links.send_command_ps(self.sim.now)
        if amb.policy is not None:
            amb.policy.observe_miss(req.line_addr)
        order = amb.group_order(req.line_addr)
        result = amb.group_read(arrival, req.mapped, order)
        if self.tracer is not None:
            self.tracer.on_data(req, result.data_starts[0])
        fills: "dict[int, int]" = {}
        demanded_finish = 0
        for line, start in zip(order, result.data_starts):
            ret = self.links.return_read(start, req.mapped.dimm)
            if line == req.line_addr:
                demanded_finish = ret.critical_at_mc
            else:
                fills[line] = ret.full_at_mc
                self.stats.bytes_read += self.config.cacheline_bytes
        self.mc_prefetched_lines += len(fills)
        if fills:
            self.mc_pending[region] = fills
            if self.lifecycle is not None:
                self.lifecycle.on_issue(fills)
            last_fill = max(fills.values())

            def commit(r: int = region) -> None:
                done = self.mc_pending.pop(r, None)
                if done:
                    if self.lifecycle is not None:
                        self.lifecycle.on_fill(done)
                    self.mc_table.insert(done.keys())

            self.sim.schedule_fire(last_fill, commit)
        self._finish_at(req, demanded_finish)

    def enable_protocol_trace(self) -> None:
        for amb in self.ambs:
            for bank in amb.banks:
                bank.enable_trace()
        self.links.south.enable_journal()
        self.links.north.enable_journal()

    def collect_check_events(self) -> "list":
        from repro.check.trace import CheckEvent

        channel = self.channel_id
        events = []
        for amb in self.ambs:
            events.extend(self._bank_check_events(amb.dimm_id, amb.banks))
        if self.links.south.journal is not None:
            for kind, start, retry in self.links.south.journal:
                events.append(CheckEvent(
                    start, "SB_CMD" if kind == "cmd" else "SB_DATA",
                    channel, -1, -1, -1, -1, 1, retry))
        if self.links.north.journal is not None:
            for _, start, frames, retry in self.links.north.journal:
                events.append(CheckEvent(start, "NB_LINE", channel,
                                         -1, -1, -1, -1, frames, retry))
        events.sort(key=itemgetter(0))
        return events

    def busy_ps(self) -> Dict[str, int]:
        north, south = self.links.north, self.links.south
        return {north.name: north.busy_ps, south.name: south.busy_ps}

    def _prefetched_lines(self) -> int:
        return self.mc_prefetched_lines + sum(amb.prefetched_lines for amb in self.ambs)

    def _tag_stores(self) -> "Sequence[PrefetchTable]":
        if self.lifecycle is None:
            # Tag-store counters fold only under lifecycle observability,
            # keeping default-run stats (and their digests) untouched.
            return ()
        tables = [amb.table for amb in self.ambs if amb.table is not None]
        if self.mc_table is not None:
            tables.append(self.mc_table)
        return tables
