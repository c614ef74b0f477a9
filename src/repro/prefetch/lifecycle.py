"""Per-prefetch lifecycle accounting: issue -> fill -> exactly one outcome.

Every prefetched line becomes one *instance* when its group fetch is
issued.  An instance is ``pending`` until its fill commits into the tag
store, ``resident`` afterwards, and ends in exactly one terminal bucket:

``used``            a demand read hit the line while resident
``late_unused``     a demand read arrived while the fill was still in
                    flight and merged with it (the prefetch was correct
                    but not timely — the demand paid part of the latency)
``evicted_unused``  replaced (or displaced by a re-fetch of the same
                    line) without ever being hit
``invalidated``     dropped by a write to the line or a fault-injection
                    parity flip before any hit
``resident_at_end`` still pending/resident when the run finalized

The closed taxonomy gives the hard conservation invariant

    issued == used + evicted_unused + late_unused + invalidated
              + resident_at_end

checked by :func:`conservation_delta`.  The tracker increments the
``pf_*`` fields of :class:`~repro.stats.collector.MemSystemStats` live, so
the timeline collector's per-window deltas see the taxonomy for free.

The tracker is observation-only and off by default
(``AmbPrefetchConfig.lifecycle``): it never schedules simulator events and
never feeds back into issue decisions, so a lifecycle-enabled run is
performance-identical to a disabled one (pinned by the zero-overhead
guard test).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.simulator import Simulator
    from repro.stats.collector import MemSystemStats
    from repro.telemetry.spans import PrefetchTrace, Tracer

#: Instance states while open (terminal outcomes leave the table).
_PENDING = 0
_RESIDENT = 1

#: Terminal outcome labels, in invariant order.
OUTCOMES = (
    "used", "evicted_unused", "late_unused", "invalidated", "resident_at_end",
)


def conservation_delta(stats: "MemSystemStats") -> int:
    """``issued - (sum of terminal buckets)``; zero iff the taxonomy closed.

    Non-zero only while instances are still open (mid-run) or after a
    counter bug; every finalized run must report zero.
    """
    return stats.pf_issued - (
        stats.pf_used
        + stats.pf_evicted_unused
        + stats.pf_late_unused
        + stats.pf_invalidated
        + stats.pf_resident_at_end
    )


class PrefetchLifecycle:
    """Tracks every prefetched line from issue to its terminal outcome.

    One tracker serves the whole memory subsystem: line addresses map to
    exactly one channel/DIMM, so a flat ``line -> state`` table suffices
    for both buffer placements (AMB caches and the controller-side
    buffer).  All counters land in the shared ``MemSystemStats``.
    """

    __slots__ = ("stats", "_sim", "_tracer", "_open", "_traces")

    def __init__(
        self,
        stats: "MemSystemStats",
        sim: "Optional[Simulator]" = None,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        self.stats = stats
        self._sim = sim
        self._tracer = tracer if sim is not None else None
        #: line address -> _PENDING | _RESIDENT for open instances.
        self._open: Dict[int, int] = {}
        #: line address -> span of the open instance (tracing only).
        self._traces: "Dict[int, PrefetchTrace]" = {}

    # -- tracing helpers -------------------------------------------------

    def _now(self) -> int:
        assert self._sim is not None
        return self._sim.now

    def _trace_mark(self, line_addr: int, phase: str) -> None:
        trace = self._traces.get(line_addr)
        if trace is not None:
            trace.mark(phase, self._now())

    def _trace_close(self, line_addr: int, outcome: str) -> None:
        trace = self._traces.pop(line_addr, None)
        if trace is not None:
            trace.close(outcome, self._now())

    # -- event hooks (called from the prefetch buffer / channel controller)

    def on_issue(self, line_addrs: Iterable[int]) -> None:
        """A group fetch booked fills for these lines.

        A line with an instance still open is being re-fetched: the old
        copy (pending or resident) is displaced before it was ever used,
        which is exactly the ``evicted_unused`` outcome.
        """
        stats = self.stats
        open_map = self._open
        for line_addr in line_addrs:
            if line_addr in open_map:
                stats.pf_evicted_unused += 1
                self._trace_close(line_addr, "evicted_unused")
            open_map[line_addr] = _PENDING
            stats.pf_issued += 1
            if self._tracer is not None:
                trace = self._tracer.new_prefetch_trace(line_addr, self._now())
                if trace is not None:
                    self._traces[line_addr] = trace

    def on_fill(self, line_addrs: Iterable[int]) -> None:
        """A group fetch completed; its lines commit into the tag store."""
        open_map = self._open
        for line_addr in line_addrs:
            if open_map.get(line_addr) == _PENDING:
                open_map[line_addr] = _RESIDENT
                if self._tracer is not None:
                    self._trace_mark(line_addr, "fill")

    def on_hit(self, line_addr: int) -> None:
        """A demand read hit the line in the tag store: ``used``."""
        if self._open.pop(line_addr, None) is not None:
            self.stats.pf_used += 1
            self._trace_close(line_addr, "used")

    def on_late(self, line_addr: int) -> None:
        """A demand read merged with the line's in-flight fill: ``late``."""
        if self._open.pop(line_addr, None) is not None:
            self.stats.pf_late_unused += 1
            self._trace_close(line_addr, "late_unused")

    def on_evict(self, line_addr: int) -> None:
        """The tag store replaced this line.

        Only a *resident* instance can be evicted: when an eviction races
        a re-fetch of the same line (the open instance is pending again),
        the displacement was already charged by :meth:`on_issue`.
        """
        if self._open.get(line_addr) == _RESIDENT:
            del self._open[line_addr]
            self.stats.pf_evicted_unused += 1
            self._trace_close(line_addr, "evicted_unused")

    def on_invalidate(self, line_addr: int) -> None:
        """A write made the copy stale, or parity caught a bit flip."""
        if self._open.pop(line_addr, None) is not None:
            self.stats.pf_invalidated += 1
            self._trace_close(line_addr, "invalidated")

    # -- run boundaries ---------------------------------------------------

    def on_measurement_reset(self) -> None:
        """Warm-up discard: re-seed ``pf_issued`` with the open instances.

        ``MemSystemStats.reset_measurement`` zeroed the ``pf_*`` fields;
        instances issued during warm-up are still live and will reach a
        terminal bucket inside the measured window, so they re-enter the
        ``issued`` side of the conservation invariant here.
        """
        self.stats.pf_issued += len(self._open)

    def finalize(self) -> None:
        """Close the run: every still-open instance is ``resident_at_end``.

        ``pf_hits`` is set here from ``amb_hits``: both count the reads
        served from a prefetch buffer, at completion, over the measured
        window, so a per-completion hook would only recount it.
        """
        self.stats.pf_hits = self.stats.amb_hits
        remaining = len(self._open)
        if remaining:
            self.stats.pf_resident_at_end += remaining
            for line_addr in list(self._open):
                self._trace_close(line_addr, "resident_at_end")
            self._open.clear()

    # -- introspection ----------------------------------------------------

    def open_instances(self) -> int:
        """Instances not yet in a terminal bucket (testing/debug aid)."""
        return len(self._open)
