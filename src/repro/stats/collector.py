"""Raw event counters accumulated while the memory system runs.

One :class:`MemSystemStats` instance is shared by every channel controller
of a system; the metrics module turns it into the paper's reported
quantities (average latency, utilised bandwidth, coverage, efficiency,
relative power).
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Any, ClassVar, Dict, FrozenSet, List, Optional, Tuple

#: ``scope`` values: completion counters are zeroed by a measurement
#: reset; device counters accumulate inside the banks, links and the
#: controller and are baseline-subtracted by the controller at finalize.
SCOPES = ("completion", "device")


def counter(help: str, *, scope: str, elide: bool = False,
            window: Optional[str] = None) -> int:
    """Declare one :class:`MemSystemStats` counter (a plain ``int`` field).

    ``help`` is its telemetry registry help text; ``scope`` picks how a
    measurement reset treats it; ``elide`` keeps it out of the canonical
    encoding while zero (late-added counters, so older digests hold);
    ``window`` names the :class:`~repro.timeline.records.WindowRecord`
    field that carries its per-window delta.
    """
    if scope not in SCOPES:
        raise ValueError(f"counter scope must be one of {SCOPES}, got {scope!r}")
    return field(default=0, metadata={
        "help": help, "scope": scope, "elide": elide, "window": window,
    })


@dataclass
class MemSystemStats:
    """Counters for one simulated memory subsystem.

    Each counter is declared once, below, with :func:`counter`; reset,
    encoding elision, the telemetry registry, the controller's device
    fold and the timeline deltas are all derived from these declarations
    (see :data:`COUNTERS`).  Declaration order is registry order.
    """

    demand_reads: int = counter("completed demand reads", scope="completion", window="demand_reads")
    sw_prefetch_reads: int = counter(
        "completed software-prefetch reads", scope="completion", window="sw_prefetch_reads")
    writes: int = counter("retired writes", scope="completion", window="writes")
    # incl. reads merged with an in-flight AMB fill
    amb_hits: int = counter("reads served from an AMB cache", scope="completion", window="amb_hits")
    prefetched_lines: int = counter(
        "lines written into AMB caches", scope="device", window="prefetched_lines")
    read_latency_sum_ps: int = counter("latency sum of all reads", scope="completion")
    demand_latency_sum_ps: int = counter(
        "latency sum of demand reads", scope="completion", window="demand_latency_sum_ps")
    queue_delay_sum_ps: int = counter(
        "schedulable-to-issue delay sum", scope="completion", window="queue_delay_sum_ps")
    bytes_read: int = counter(
        "bytes crossing the channel toward the CPU", scope="completion", window="bytes_read")
    bytes_written: int = counter(
        "write bytes crossing the channel", scope="completion", window="bytes_written")
    activates: int = counter(
        "ACT/PRE pairs at the DRAM devices", scope="device", window="activates")
    column_accesses: int = counter("RD/WR column commands", scope="device")
    column_reads: int = counter(
        "RD share of the column commands", scope="device", window="column_reads")
    column_writes: int = counter(
        "WR share of the column commands", scope="device", window="column_writes")
    refreshes: int = counter(
        "all-bank refreshes at the DRAM devices", scope="device", window="refreshes")
    row_hits: int = counter("open-page row-buffer hits", scope="device", window="row_hits")
    row_misses: int = counter("open-page row-buffer misses", scope="device", window="row_misses")
    faw_stalls: int = counter("ACTs delayed by the tFAW window", scope="device", elide=True)
    faw_stall_ps: int = counter("total ACT delay from the tFAW window", scope="device", elide=True)
    # -- idle/power-down residency (fed only when the timeline is on) ----
    idle_ps: int = counter("whole-subsystem idle time", scope="device", window="idle_ps")
    powerdown_ps: int = counter(
        "idle time past the power-down threshold", scope="device", window="powerdown_ps")
    idle_gaps: int = counter("entries into the all-idle state", scope="device")
    # -- fault injection (repro.faults; all zero when faults are off) ----
    faults_injected: int = counter("corrupted transfer attempts on the links", scope="completion")
    faults_corrupted: int = counter("transfers that saw >= 1 corruption", scope="completion")
    faults_retried_ok: int = counter(
        "corrupted transfers recovered by replay", scope="completion", window="fault_retries")
    faults_dropped: int = counter("transfers that exhausted the retry budget", scope="completion")
    fault_retry_latency_ps: int = counter("link latency added by replays", scope="completion")
    fault_degraded_entries: int = counter("channels that entered degraded mode", scope="completion")
    amb_parity_errors: int = counter("AMB-cache hits voided by parity", scope="completion")
    # -- prefetch lifecycle taxonomy (repro.prefetch; fed only when
    # AmbPrefetchConfig.lifecycle is on, all zero otherwise) -------------
    pf_issued: int = counter(
        "prefetched-line instances booked by group fetches", scope="completion", elide=True,
        window="pf_issued")
    pf_used: int = counter(
        "prefetch instances hit while resident", scope="completion", elide=True, window="pf_used")
    pf_evicted_unused: int = counter(
        "prefetch instances replaced before any hit", scope="completion", elide=True,
        window="pf_evicted_unused")
    pf_late_unused: int = counter(
        "prefetch instances whose demand merged with the in-flight fill", scope="completion",
        elide=True, window="pf_late_unused")
    pf_invalidated: int = counter(
        "prefetch instances dropped by writes/parity", scope="completion", elide=True,
        window="pf_invalidated")
    pf_resident_at_end: int = counter(
        "prefetch instances still open at finalize", scope="completion", elide=True)
    pf_hits: int = counter(
        "completed reads served from a prefetch buffer", scope="completion", elide=True)
    # -- prefetch tag-store counters (same gate; device-side fold) -------
    pf_table_lookups: int = counter("prefetch tag-store probes", scope="device", elide=True)
    pf_table_hits: int = counter(
        "prefetch tag-store hits incl. fill merges", scope="device", elide=True)
    pf_table_inserts: int = counter(
        "lines installed into prefetch tag stores", scope="device", elide=True)
    pf_table_evictions: int = counter(
        "lines replaced out of prefetch tag stores", scope="device", elide=True)
    pf_table_invalidations: int = counter(
        "tag-store lines dropped by writes/parity", scope="device", elide=True)
    per_channel_busy_ps: Dict[str, int] = field(default_factory=dict)
    first_activity_ps: int = -1
    last_activity_ps: int = 0
    #: Per-request latency capture for histogram analysis; None (off) by
    #: default because most sweeps only need the sums.
    demand_latency_samples: Optional[List[int]] = None
    #: Per-core demand-read counters:
    #: core id -> [reads, latency_sum_ps, queue_delay_sum_ps].
    #: Shows which program of a mix suffers the queueing (interference).
    per_core_reads: Dict[int, List[int]] = field(default_factory=dict)

    #: Counters declared ``elide=True``, left out of the canonical encoding
    #: while zero, so results of configurations that cannot produce them
    #: (every DDR2 run: tFAW is disabled there; every lifecycle-off run:
    #: the pf_* taxonomy) keep their pre-existing digests.
    ENCODE_OPTIONAL_FIELDS: ClassVar[FrozenSet[str]]

    def enable_latency_capture(self) -> None:
        """Record every demand read's latency (for repro.analysis)."""
        if self.demand_latency_samples is None:
            self.demand_latency_samples = []

    def reset_measurement(self) -> None:
        """Zero all completion-side counters (warm-up discard).

        Device-side counters (activates etc.) accumulate inside the banks
        and are baseline-subtracted by the controller instead.
        """
        for name in COMPLETION_COUNTERS:
            setattr(self, name, 0)
        self.first_activity_ps = -1
        self.last_activity_ps = 0
        if self.demand_latency_samples is not None:
            self.demand_latency_samples = []
        self.per_core_reads = {}

    @property
    def total_reads(self) -> int:
        """Demand reads plus software-prefetch reads."""
        return self.demand_reads + self.sw_prefetch_reads

    def note_activity(self, time_ps: int) -> None:
        """Track the active window for bandwidth computation."""
        if self.first_activity_ps < 0:
            self.first_activity_ps = time_ps
        if time_ps > self.last_activity_ps:
            self.last_activity_ps = time_ps

    @property
    def elapsed_ps(self) -> int:
        """Length of the active window (0 when nothing happened)."""
        if self.first_activity_ps < 0:
            return 0
        return self.last_activity_ps - self.first_activity_ps

    def record_read_completion(
        self, latency_ps: int, queue_delay_ps: int, is_demand: bool, amb_hit: bool,
        line_bytes: int, core_id: int = -1,
    ) -> None:
        """Account one finished read transaction."""
        if is_demand:
            self.demand_reads += 1
            self.demand_latency_sum_ps += latency_ps
            if self.demand_latency_samples is not None:
                self.demand_latency_samples.append(latency_ps)
            if core_id >= 0:
                entry = self.per_core_reads.setdefault(core_id, [0, 0, 0])
                entry[0] += 1
                entry[1] += latency_ps
                entry[2] += queue_delay_ps
        else:
            self.sw_prefetch_reads += 1
        self.read_latency_sum_ps += latency_ps
        self.queue_delay_sum_ps += queue_delay_ps
        self.bytes_read += line_bytes
        if amb_hit:
            self.amb_hits += 1

    def record_write_completion(self, line_bytes: int) -> None:
        """Account one retired write."""
        self.writes += 1
        self.bytes_written += line_bytes


#: Every counter field, in declaration order.
COUNTERS: Tuple[Field[Any], ...] = tuple(
    f for f in fields(MemSystemStats) if "scope" in f.metadata
)
COMPLETION_COUNTERS = tuple(
    f.name for f in COUNTERS if f.metadata["scope"] == "completion"
)
DEVICE_COUNTERS = tuple(
    f.name for f in COUNTERS if f.metadata["scope"] == "device"
)
MemSystemStats.ENCODE_OPTIONAL_FIELDS = frozenset(
    f.name for f in COUNTERS if f.metadata["elide"]
)
