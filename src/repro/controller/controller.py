"""The top-level memory controller.

Maps incoming requests, holds the finite memory buffer (64 entries, Table 1),
applies the fixed controller overhead (12 ns), and dispatches to the
per-physical-channel engines.  Requests beyond the buffer capacity wait in
an admission FIFO with their MSHR held — this is the backpressure the cores
feel when the memory system saturates.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.config import FaultConfig, MemoryConfig, MemoryKind
from repro.controller.channel_controller import (
    ChannelControllerBase,
    Ddr2ChannelController,
    FbdimmChannelController,
)
from repro.controller.mapping import AddressMapper
from repro.controller.transaction import MemoryRequest
from repro.dram.commands import LOW_MASK, pack_record
from repro.dram.timing import TimingPs
from repro.engine.simulator import Simulator, gc_paused, ns
from repro.stats.collector import DEVICE_COUNTERS, MemSystemStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check.trace import TraceParams
    from repro.prefetch.lifecycle import PrefetchLifecycle
    from repro.telemetry.spans import Tracer
    from repro.timeline.collector import TimelineCollector


class MemoryController:
    """Front door of the memory subsystem."""

    def __init__(
        self,
        sim: Simulator,
        config: MemoryConfig,
        check_protocol: bool = False,
        tracer: "Optional[Tracer]" = None,
        faults: "Optional[FaultConfig]" = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.check_protocol = check_protocol
        self.tracer = tracer
        self.faults = faults
        self.stats = MemSystemStats()
        self.mapper = AddressMapper(config)
        timing = TimingPs.from_config(
            config.timings, config.dram_clock_ps, config.burst_clocks,
            tfaw_ns=config.tFAW_ns,
        )
        self.timing = timing
        if config.kind is MemoryKind.FBDIMM:
            self.channels: List[ChannelControllerBase] = [
                FbdimmChannelController(
                    sim, config, timing, ch, self.stats, faults=faults
                )
                for ch in range(config.physical_channels)
            ]
        else:
            self.channels = [
                Ddr2ChannelController(sim, config, timing, ch, self.stats)
                for ch in range(config.physical_channels)
            ]
        self.overhead_ps = ns(config.controller_overhead_ns)
        self.capacity = config.buffer_entries
        self.active = 0
        self.backlog: Deque[MemoryRequest] = deque()
        #: Optional timeline collector (repro.timeline); attached by the
        #: System when the timeline is enabled so measurement resets reach
        #: the per-window records.
        self.timeline: "Optional[TimelineCollector]" = None
        # Idle/power-down residency tracker: off (and free) by default;
        # enable_idle_tracking() arms it when the timeline is on.
        self._idle_tracking = False
        self._idle_entry_ps = 0
        self._idle_since: Optional[int] = None
        self._idle_ps = 0
        self._powerdown_ps = 0
        self._idle_gaps = 0
        #: Device-scope totals and bus occupancy at the measurement start.
        self._baseline: Optional[Tuple[Dict[str, int], Dict[str, int]]] = None
        for channel in self.channels:
            channel.tracer = tracer
        #: Per-prefetch lifecycle tracker (repro.prefetch), armed by the
        #: AmbPrefetchConfig.lifecycle switch; observation only.
        self.lifecycle: "Optional[PrefetchLifecycle]" = None
        if (
            config.prefetch.enabled
            and config.prefetch.lifecycle
            and config.kind is MemoryKind.FBDIMM
        ):
            from repro.prefetch.lifecycle import PrefetchLifecycle

            self.lifecycle = PrefetchLifecycle(self.stats, sim=sim, tracer=tracer)
            for channel in self.channels:
                assert isinstance(channel, FbdimmChannelController)
                channel.attach_lifecycle(self.lifecycle)
        # The Chrome-trace exporter reuses the protocol-checker command
        # journal for its per-bank spans, so tracing turns journalling on.
        if check_protocol or tracer is not None:
            if config.rows_per_bank > LOW_MASK + 1:
                pack_record(0, 0, config.rows_per_bank - 1,  # raises
                            ("time", "command", "last row (rows_per_bank - 1)"))
            for channel in self.channels:
                channel.enable_protocol_trace()

    # ------------------------------------------------------------------

    def submit(self, req: MemoryRequest) -> None:
        """Accept a request from the CPU side.

        The request is mapped, charged the controller overhead, and either
        admitted into a channel queue or parked in the admission FIFO when
        all 64 buffer entries are occupied.
        """
        if self._idle_since is not None:
            self._close_idle_gap(self.sim.now)
        req.mapped = self.mapper.map(req.line_addr)
        self._chain_completion(req)
        admitted = self.active < self.capacity
        if self.tracer is not None:
            self.tracer.on_arrival(req, backlogged=not admitted)
        if admitted:
            self._admit(req)
        else:
            self.backlog.append(req)

    def outstanding(self) -> int:
        """Requests inside the controller (buffered + backlogged)."""
        return self.active + len(self.backlog)

    def drained(self) -> bool:
        """True when no request is anywhere in the memory subsystem."""
        return self.outstanding() == 0

    # ------------------------------------------------------------------

    def _chain_completion(self, req: MemoryRequest) -> None:
        user_callback = req.on_complete

        def chained(done: MemoryRequest) -> None:
            self.active -= 1
            if self.backlog:
                self._admit(self.backlog.popleft())
            elif self._idle_tracking and self.active == 0 and self._idle_since is None:
                self._idle_since = self.sim.now
            if user_callback is not None:
                user_callback(done)

        req.on_complete = chained

    # ------------------------------------------------------------------
    # Idle/power-down residency tracking

    def enable_idle_tracking(self, entry_ps: int) -> None:
        """Arm whole-subsystem idle tracking (timeline/energy accounting).

        An idle gap opens whenever no request is outstanding anywhere in
        the memory subsystem and closes on the next arrival (or at
        finalize).  The portion of each gap beyond ``entry_ps`` counts as
        power-down residency, modelling DRAM ranks entering precharge
        power-down after a fixed idle threshold.
        """
        if entry_ps < 0:
            raise ValueError(f"entry_ps must be non-negative, got {entry_ps}")
        self._idle_tracking = True
        self._idle_entry_ps = entry_ps
        # The subsystem starts idle: the gap opens at time zero.
        self._idle_since = self.sim.now

    def _close_idle_gap(self, now: int) -> None:
        """Close the open idle gap, crediting idle/power-down residency."""
        assert self._idle_since is not None
        gap = now - self._idle_since
        self._idle_since = None
        if gap > 0:
            self._idle_ps += gap
            self._idle_gaps += 1
            if gap > self._idle_entry_ps:
                self._powerdown_ps += gap - self._idle_entry_ps

    def _admit(self, req: MemoryRequest) -> None:
        self.active += 1
        channel = self.channels[req.mapped.channel]
        ready = max(req.arrival + self.overhead_ps, self.sim.now)
        req.schedulable_at = ready
        self.sim.schedule_fire(ready, partial(channel.submit, req))

    # ------------------------------------------------------------------

    def device_counters(self) -> Dict[str, int]:
        """Live device-scope counter totals (timeline snapshots).

        Unlike :meth:`finalize` this performs no baseline subtraction:
        the timeline collector differences successive snapshots itself,
        so absolute values are what it needs.
        """
        totals = dict.fromkeys(DEVICE_COUNTERS, 0)
        for channel in self.channels:
            for name, value in channel.collect_device_counters().items():
                totals[name] += value
        # Residency lives on the controller, not in the channels.
        totals["idle_ps"] += self._idle_ps
        totals["powerdown_ps"] += self._powerdown_ps
        totals["idle_gaps"] += self._idle_gaps
        return totals

    def _busy_ps(self) -> Dict[str, int]:
        busy: Dict[str, int] = {}
        for channel in self.channels:
            busy.update(channel.busy_ps())
        return busy

    def collect_check_events(self) -> "list":
        """All journalled protocol-checker events, time-sorted.

        Only meaningful after construction with ``check_protocol=True``;
        returns an empty list otherwise.
        """
        from repro.check.trace import journal_events

        events: list = []
        for channel in self.channels:
            events += journal_events(channel.bank_journals(),
                                     channel.link_journals())
        events.sort(key=itemgetter(0))
        return events

    def check_params(self) -> "TraceParams":
        """The rules this run is checked against.

        With fault injection enabled they include the retry budget: no
        journalled replay may exceed ``max_retries + 1`` (the +1 is the
        post-reset recovery replay).
        """
        from repro.check.trace import TraceParams

        max_retries = 0
        if self.faults is not None and self.faults.enabled:
            max_retries = self.faults.max_retries
        return TraceParams.from_memory_config(self.config, max_retries)

    def check_protocol_violations(self) -> "list":
        """Check the journalled command stream against the protocol rules
        where it sits (``repro.check.protocol.check_journals``)."""
        from repro.check.protocol import check_journals

        banks: list = []
        links: list = []
        for channel in self.channels:
            banks += channel.bank_journals()
            links += channel.link_journals()
        # The journal and the check's state create no reference cycles,
        # so collector passes over the (large) journal are pure overhead.
        with gc_paused():
            return check_journals(self.check_params(), banks, links)

    def mark_measurement_start(self) -> None:
        """Discard warm-up activity: measurement restarts from now.

        Device counters (which accumulate inside banks and links) are
        snapshotted and subtracted at finalize; completion-side counters
        are reset outright.
        """
        # Close (and reopen) any open idle gap at the boundary so the
        # warm-up share of the gap lands in the baseline snapshot.
        if self._idle_since is not None:
            self._close_idle_gap(self.sim.now)
            self._idle_since = self.sim.now
        self._baseline = (self.device_counters(), self._busy_ps())
        self.stats.reset_measurement()
        if self.lifecycle is not None:
            # After the stats reset: re-seeds pf_issued with the in-flight
            # prefetch instances so the conservation invariant holds over
            # the measured window alone.
            self.lifecycle.on_measurement_reset()
        if self.timeline is not None:
            self.timeline.on_measurement_reset()

    def finalize(self) -> MemSystemStats:
        """Fold per-channel device counters into the stats and return them."""
        # A run can end with the subsystem idle; close the trailing gap
        # so its residency is accounted before the fold.
        if self._idle_since is not None:
            self._close_idle_gap(self.sim.now)
        if self.lifecycle is not None:
            # Close the taxonomy: still-open instances -> resident_at_end.
            self.lifecycle.finalize()
        totals, busy = self.device_counters(), self._busy_ps()
        if self._baseline is not None:
            base, base_busy = self._baseline
            for name in DEVICE_COUNTERS:
                totals[name] -= base[name]
            busy = {name: ps - base_busy.get(name, 0) for name, ps in busy.items()}
        for name in DEVICE_COUNTERS:
            setattr(self.stats, name, getattr(self.stats, name) + totals[name])
        self.stats.per_channel_busy_ps.update(busy)
        return self.stats
