"""Typed per-window records produced by the timeline collector.

A :class:`WindowRecord` holds the *deltas* of every tracked counter over
one sim-time window plus a few end-of-window gauges (queue depth) and
the window's energy breakdown in nanojoules.  Integer counters are exact;
derived rates (bandwidth, hit rates, power) are properties so they never
drift from the raw counts they are computed from.

Windowing semantics (see docs/TIMELINE.md): a window covers the
half-open interval ``[start_ps, end_ps)`` of sim time.  A request whose
completion event shares a timestamp with the window-boundary tick lands
in the *next* window, because the tick was scheduled earlier and fires
first on a timestamp tie.  The final window is emitted at finalize only
if the run advanced past the last boundary — a zero-length final window
is never recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.stats.collector import COUNTERS


@dataclass(frozen=True)
class WindowRecord:
    """Counter deltas and energy for one sim-time window."""

    index: int = 0
    start_ps: int = 0
    end_ps: int = 0
    # -- completion-side deltas (what finished inside the window) -------
    demand_reads: int = 0
    sw_prefetch_reads: int = 0
    writes: int = 0
    amb_hits: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    demand_latency_sum_ps: int = 0
    queue_delay_sum_ps: int = 0
    fault_retries: int = 0
    # -- latency distribution of demand reads completed in the window ---
    latency_p50_ps: int = 0
    latency_p95_ps: int = 0
    latency_p99_ps: int = 0
    latency_max_ps: int = 0
    # -- device-side deltas (DRAM commands issued inside the window) ----
    activates: int = 0
    column_reads: int = 0
    column_writes: int = 0
    refreshes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    prefetched_lines: int = 0
    # -- residency deltas and end-of-window gauges ----------------------
    idle_ps: int = 0
    powerdown_ps: int = 0
    queue_depth: int = 0  # requests in the controller at window end
    # -- energy breakdown (nanojoules, repro.power.EnergyAccountant) ----
    energy_act_nj: float = 0.0
    energy_rd_nj: float = 0.0
    energy_wr_nj: float = 0.0
    energy_refresh_nj: float = 0.0
    energy_background_nj: float = 0.0
    # -- prefetch lifecycle taxonomy deltas (repro.prefetch; fed only
    # when AmbPrefetchConfig.lifecycle is on) ---------------------------
    pf_issued: int = 0
    pf_used: int = 0
    pf_evicted_unused: int = 0
    pf_late_unused: int = 0
    pf_invalidated: int = 0

    #: Windows of counters declared ``elide=True``, elided from the
    #: canonical encoding while at their defaults so pre-existing timeline
    #: digests, goldens and JSONL files keep decoding (and hashing)
    #: unchanged.
    ENCODE_OPTIONAL_FIELDS = frozenset(
        f.metadata["window"] for f in COUNTERS
        if f.metadata["elide"] and f.metadata["window"]
    )

    # -- derived rates (never serialised; recomputed from the counts) ---
    # Structural validity (end > start, contiguous indices) is checked by
    # repro.timeline.export.validate_timeline, not in the constructor, so
    # partially-populated records can round-trip through the serializer.

    @property
    def duration_ps(self) -> int:
        return self.end_ps - self.start_ps

    @property
    def total_reads(self) -> int:
        return self.demand_reads + self.sw_prefetch_reads

    @property
    def bandwidth_gbs(self) -> float:
        """Data crossing the channels, GB/s (bytes/ns == GB/s)."""
        if self.duration_ps <= 0:
            return 0.0
        return (self.bytes_read + self.bytes_written) / self.duration_ps * 1000.0

    @property
    def avg_latency_ns(self) -> float:
        """Mean demand-read latency of completions in this window."""
        if self.demand_reads == 0:
            return 0.0
        return self.demand_latency_sum_ps / self.demand_reads / 1000.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    @property
    def amb_hit_rate(self) -> float:
        """Share of reads served from an AMB prefetch cache."""
        reads = self.total_reads
        return self.amb_hits / reads if reads else 0.0

    @property
    def energy_dynamic_nj(self) -> float:
        return (
            self.energy_act_nj + self.energy_rd_nj
            + self.energy_wr_nj + self.energy_refresh_nj
        )

    @property
    def energy_total_nj(self) -> float:
        return self.energy_dynamic_nj + self.energy_background_nj

    @property
    def avg_power_w(self) -> float:
        """Average power over the window (nJ / ns == W)."""
        if self.duration_ps <= 0:
            return 0.0
        return self.energy_total_nj / (self.duration_ps / 1000.0)

    @property
    def powerdown_fraction(self) -> float:
        """Share of the window the whole subsystem sat in power-down.

        An idle gap is credited to the window in which it *closes*, so a
        single long gap can push one window's fraction above 1.0 while
        the windows it actually spanned show 0 — the sum is conserved.
        """
        if self.duration_ps <= 0:
            return 0.0
        return self.powerdown_ps / self.duration_ps


@dataclass(frozen=True)
class TimelineResult:
    """An ordered sequence of windows from one run."""

    window_ps: int = 0
    windows: List[WindowRecord] = field(default_factory=list)
    #: Measurement resets seen (warm-up discard); windows recorded before
    #: the last reset are dropped, so this explains a late first window.
    resets: int = 0
    #: True when recording stopped at TimelineConfig.max_windows.
    truncated: bool = False

    def series(self, name: str) -> List[float]:
        """One attribute of every window, as a list (for sparklines)."""
        return [float(getattr(w, name)) for w in self.windows]

    @property
    def start_ps(self) -> int:
        return self.windows[0].start_ps if self.windows else 0

    @property
    def end_ps(self) -> int:
        return self.windows[-1].end_ps if self.windows else 0
