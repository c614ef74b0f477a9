"""Configuration dataclasses for the whole simulated system.

The defaults reproduce Tables 1 and 2 of the paper: a 4 GHz multi-core
processor in front of a memory subsystem of four physical channels (two
physical channels ganged per logic channel), four DIMMs per physical channel,
four logic banks per DIMM, at 667 MT/s, with the DDR2 timing parameters of
Table 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.engine.simulator import ns


class MemoryKind(enum.Enum):
    """Which first-level interconnect the memory subsystem uses."""

    DDR2 = "ddr2"
    FBDIMM = "fbdimm"


class PagePolicy(enum.Enum):
    """DRAM row-buffer management policy.

    The paper uses close page (with auto-precharge) for cacheline and
    multi-cacheline interleaving, and open page for page interleaving.
    """

    CLOSE_PAGE = "close"
    OPEN_PAGE = "open"


class InterleaveScheme(enum.Enum):
    """How physical addresses are laid out across channels/DIMMs/banks."""

    CACHELINE = "cacheline"
    MULTI_CACHELINE = "multi_cacheline"
    PAGE = "page"


class Associativity(enum.Enum):
    """Associativity of the AMB-cache tag store at the memory controller."""

    DIRECT = 1
    TWO_WAY = 2
    FOUR_WAY = 4
    FULL = 0  # sentinel: ways == number of entries

    def ways(self, num_entries: int) -> int:
        """Resolve to a concrete way count for ``num_entries`` blocks."""
        if self is Associativity.FULL:
            return num_entries
        return min(self.value, num_entries)


class ReplacementPolicy(enum.Enum):
    """AMB-cache replacement.  The paper argues for FIFO (a hit block is
    likely cached at the processor and will not be re-accessed soon)."""

    FIFO = "fifo"
    LRU = "lru"


class PrefetchLocation(enum.Enum):
    """Where prefetched lines are buffered.

    AMB: the paper's proposal — prefetched lines stay behind the channel
    in the AMB cache and never consume channel bandwidth unless hit.
    CONTROLLER: the class of schemes the paper contrasts against (Lin,
    Reinhardt and Burger [13]) — the whole region crosses the channel to a
    buffer at the memory controller.  Hits are cheaper (no channel round
    trip) but every miss multiplies northbound traffic by K.
    """

    AMB = "amb"
    CONTROLLER = "controller"


#: DRAM clock period in picoseconds for each supported data rate (MT/s).
#: DDR transfers two beats per clock, so clock = rate / 2.  The 1066+ rates
#: exist for the DDR3 devices the paper's footnote 1 anticipates; the
#: 1600–2400 rates are the DDR3/DDR4 bins of the Ramulator 2 timing table
#: used by the :mod:`repro.dram.devices` presets.
DRAM_CLOCK_PS = {
    533: 3750,
    667: 3000,
    800: 2500,
    1066: 1875,
    1333: 1500,
    1600: 1250,
    1866: 1071,
    2133: 937,
    2400: 833,
}


@dataclass(frozen=True)
class DramTimings:
    """DDR2 device timing parameters (Table 2 of the paper), in nanoseconds."""

    tRP: float = 15.0  # PRE to ACT, same bank
    tRCD: float = 15.0  # ACT to RD/WR, same bank
    tCL: float = 15.0  # RD command to read data
    tRC: float = 54.0  # ACT to ACT, same bank
    tRRD: float = 9.0  # ACT to ACT (or PRE to PRE), different banks
    tRPD: float = 9.0  # RD command to PRE
    tWTR: float = 9.0  # end of WR data to RD command
    tRAS: float = 39.0  # ACT to PRE (reads)
    tWL: float = 12.0  # WR command to WR data
    tWPD: float = 36.0  # WR command to PRE

    def ps(self, name: str) -> int:
        """Return a timing parameter converted to picoseconds."""
        return ns(getattr(self, name))


#: DDR3-class timing preset for the "future FB-DIMM" of footnote 1.
#: Core latencies in ns are nearly generation-invariant (tCL ~13-15 ns);
#: what improves is the data rate.  Values are typical DDR3-1066 (CL7).
DDR3_TIMINGS = DramTimings(
    tRP=13.125,
    tRCD=13.125,
    tCL=13.125,
    tRC=50.625,
    tRRD=7.5,
    tRPD=7.5,
    tWTR=7.5,
    tRAS=37.5,
    tWL=11.25,
    tWPD=33.75,
)


def ddr3_memory_overrides(data_rate_mts: int = 1066) -> dict:
    """Memory-config overrides for a DDR3-generation FB-DIMM channel.

    Usage: ``fbdimm_baseline(**ddr3_memory_overrides())``.
    """
    if data_rate_mts not in (800, 1066, 1333):
        raise ValueError(f"not a DDR3-class data rate: {data_rate_mts}")
    return {"data_rate_mts": data_rate_mts, "timings": DDR3_TIMINGS}


@dataclass(frozen=True)
class AmbPrefetchConfig:
    """Configuration of the region-based AMB prefetching (Section 3.2).

    Attributes:
        enabled: Master switch; off reproduces the plain FB-DIMM baseline.
        region_cachelines: K, the number of cachelines fetched per demand
            miss; also the multi-cacheline interleaving granularity.
        cache_entries: Blocks per AMB cache (64 x 64 B = 4 KB default).
        associativity: Tag-store associativity at the memory controller.
        replacement: AMB-cache replacement policy (paper default FIFO).
        full_latency_hits: The FBD-APFL variant of Figure 9 - an AMB-cache
            hit pays the full DRAM-access idle latency but performs no bank
            activity, isolating the bandwidth-utilisation gain.  Only
            meaningful with ``location=AMB``.
        location: Buffer placement - the paper's AMB cache, or a
            controller-side buffer for comparison (see PrefetchLocation).
        policy: Registered :mod:`repro.prefetch.policy` name deciding which
            lines accompany a demand miss ("region" is the paper's
            Section 3.2 prefetcher and reproduces the hard-wired behaviour
            bit-identically).
        lifecycle: Per-prefetch lifecycle accounting
            (:mod:`repro.prefetch.lifecycle`).  Observation only - the
            issue/fill/outcome taxonomy counters are filled but no timing
            decision changes, so results stay bit-identical either way.
    """

    enabled: bool = True
    region_cachelines: int = 4
    cache_entries: int = 64
    associativity: Associativity = Associativity.FULL
    replacement: ReplacementPolicy = ReplacementPolicy.FIFO
    full_latency_hits: bool = False
    location: PrefetchLocation = PrefetchLocation.AMB

    #: Late-added knobs elided from the canonical encoding while at their
    #: defaults, so every pre-existing result digest and run-cache key is
    #: unchanged (the config is embedded in serialized results).
    ENCODE_OPTIONAL_FIELDS = frozenset({"policy", "lifecycle"})

    policy: str = "region"
    lifecycle: bool = False

    def __post_init__(self) -> None:
        if self.region_cachelines < 1:
            raise ValueError("region_cachelines must be >= 1")
        if self.cache_entries < 1:
            raise ValueError("cache_entries must be >= 1")
        if self.cache_entries % max(self.associativity.ways(self.cache_entries), 1):
            raise ValueError(
                f"cache_entries={self.cache_entries} not divisible by "
                f"ways={self.associativity.ways(self.cache_entries)}"
            )
        if self.enabled and self.region_cachelines > self.cache_entries:
            raise ValueError(
                f"prefetch.region_cachelines: region of "
                f"{self.region_cachelines} lines cannot fit the "
                f"{self.cache_entries}-entry AMB cache: every group fetch "
                "would evict part of itself; raise cache_entries or lower "
                "region_cachelines"
            )
        if self.full_latency_hits and self.location is not PrefetchLocation.AMB:
            raise ValueError(
                "full_latency_hits=True models an AMB-cache hit (FBD-APFL) "
                f"and requires location=AMB, not location={self.location.name}"
            )
        # Late import: the policy registry imports this module for typing.
        from repro.prefetch.policy import policy_names

        if self.policy not in policy_names():
            known = ", ".join(policy_names())
            raise ValueError(
                f"unknown prefetch policy {self.policy!r}; known: {known}"
            )


@dataclass(frozen=True)
class FaultConfig:
    """Seeded, deterministic fault injection for the FB-DIMM link layer.

    Real FB-DIMM frames carry CRC and the controller replays corrupted
    transfers; the seed model assumes a perfect channel.  With ``enabled``
    this layer corrupts southbound/northbound transfers at ``error_rate``
    (per transfer attempt), flips AMB-cache lines at ``amb_bitflip_rate``
    (per cache hit, detected by parity and re-fetched), and drives the
    controller-side retry engine: bounded replays with exponential backoff
    in frame slots, and a per-channel degraded mode that disables AMB
    prefetching after persistent errors.

    Determinism: every fault decision comes from one ``random.Random``
    stream per channel, seeded from ``(seed, channel_id)`` only — the same
    config replays the same fault pattern, and ``error_rate=0`` (or
    ``enabled=False``) is bit-identical to a fault-free run.

    Attributes:
        enabled: Master switch; off costs nothing and changes nothing.
        error_rate: Per-transfer CRC-corruption probability on the links.
        amb_bitflip_rate: Per-hit probability that a resident AMB-cache
            line has suffered a bit flip (parity detects; the hit becomes
            a miss and the line is invalidated).
        seed: Fault-stream seed, independent of the workload seed.
        max_retries: Replay attempts per transfer before it is counted as
            dropped and the recovery replay completes it.
        backoff_frames: Initial replay backoff in frame slots; doubles on
            every further attempt of the same transfer.
        degraded_threshold: Consecutive corrupted transfers on one channel
            before it enters degraded mode (prefetching off); 0 disables
            degraded mode.
    """

    enabled: bool = False
    error_rate: float = 0.0
    amb_bitflip_rate: float = 0.0
    seed: int = 0xFBD1
    max_retries: int = 3
    backoff_frames: int = 1
    degraded_threshold: int = 16

    def __post_init__(self) -> None:
        for name in ("error_rate", "amb_bitflip_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_frames < 0:
            raise ValueError("backoff_frames must be >= 0")
        if self.degraded_threshold < 0:
            raise ValueError("degraded_threshold must be >= 0")


@dataclass(frozen=True)
class TimelineConfig:
    """Sim-time-windowed telemetry (:mod:`repro.timeline`).

    When enabled, a :class:`~repro.timeline.collector.TimelineCollector`
    snapshots counter deltas every ``window_ns`` of simulated time into
    typed per-window records (bandwidth, latency percentiles, queue depth,
    row-buffer and prefetch behaviour, per-command energy, power-down
    residency).  Observation only: the collector never touches model
    state, so a timeline-enabled run produces the same performance
    results as a disabled one — only the extra counters and the
    ``timeline`` field of the result differ (pinned by the zero-overhead
    guard test).

    Attributes:
        enabled: Master switch; off costs nothing and changes nothing —
            a default-config run is bit-identical to a build without the
            timeline subsystem at all.
        window_ns: Window length in simulated nanoseconds.
        capture_latency: Record per-request demand latencies so each
            window gets exact percentiles (p50/p95/p99/max).  Costs one
            list append per demand read.
        powerdown_entry_ns: Idle-gap length beyond which the remainder of
            the gap counts as power-down residency (models the CKE-low
            entry/exit penalty; DDR2 takes a few clocks).
        max_windows: Safety bound on recorded windows; ticking stops
            (with a truncation marker) once reached.
    """

    enabled: bool = False
    window_ns: float = 1000.0
    capture_latency: bool = True
    powerdown_entry_ns: float = 10.0
    max_windows: int = 100_000

    def __post_init__(self) -> None:
        if self.window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if self.powerdown_entry_ns < 0:
            raise ValueError("powerdown_entry_ns must be >= 0")
        if self.max_windows < 1:
            raise ValueError("max_windows must be >= 1")

    @property
    def window_ps(self) -> int:
        """Window length in the integer-picosecond time base."""
        return ns(self.window_ns)

    @property
    def powerdown_entry_ps(self) -> int:
        return ns(self.powerdown_entry_ns)


@dataclass(frozen=True)
class MemoryConfig:
    """Geometry and policy of the memory subsystem (Table 1, memory rows).

    The paper ganged two physical channels into each logic channel; the
    default of two logic channels therefore means four physical channels.
    """

    kind: MemoryKind = MemoryKind.FBDIMM
    logic_channels: int = 2
    physical_per_logic: int = 2
    dimms_per_channel: int = 4
    ranks_per_dimm: int = 1  # Table 1 uses single-rank DIMMs
    banks_per_dimm: int = 4  # logic banks per rank
    data_rate_mts: int = 667
    cacheline_bytes: int = 64
    page_bytes: int = 4096  # logic-DRAM-bank row size (chip page x chips/rank)
    rows_per_bank: int = 16384
    interleave: InterleaveScheme = InterleaveScheme.CACHELINE
    page_policy: PagePolicy = PagePolicy.CLOSE_PAGE
    timings: DramTimings = field(default_factory=DramTimings)
    prefetch: AmbPrefetchConfig = field(
        default_factory=lambda: AmbPrefetchConfig(enabled=False)
    )
    controller_overhead_ns: float = 12.0
    command_delay_ns: float = 3.0  # channel command transmission
    amb_hop_ns: float = 3.0  # per-AMB forwarding delay on the daisy chain
    variable_read_latency: bool = False  # VRL (off by default, as evaluated)
    buffer_entries: int = 64  # controller memory buffer (Table 1)
    write_drain_threshold: int = 16  # outstanding writes before writes win
    #: Dead time between DDR2 data-bus bursts of different direction or
    #: rank (read/write turnaround, rank-to-rank bubble), in DRAM clocks.
    #: FB-DIMM's unidirectional links pay no such bubble.
    ddr2_switch_gap_clocks: float = 1.5
    #: All-bank refresh period per rank (tREFI); 0 disables refresh, the
    #: default, since the paper does not model it and it affects every
    #: configuration equally.  Typical DDR2 value: 7800 ns.
    refresh_interval_ns: float = 0.0
    #: Refresh cycle time (tRFC) during which a refreshing rank's banks
    #: are unavailable.  Typical 1 Gb DDR2 value: 127.5 ns.
    refresh_cycle_ns: float = 127.5
    #: Four-activate window (tFAW): at most four ACTs per rank within any
    #: window of this length.  0 disables the constraint — the paper's
    #: 4-bank DDR2 devices predate tFAW, so it is off by default and a
    #: provable no-op for the DDR2 preset.
    tFAW_ns: float = 0.0
    #: Device-generation preset this config was resolved from (see
    #: :mod:`repro.dram.devices`); purely descriptive — the fields above
    #: are authoritative — but must name a registered preset so energy
    #: accounting can look up the generation's datasheet calculator.
    device: str = "ddr2-667"

    #: Late-added fields elided from the canonical encoding while at their
    #: defaults, so pre-existing cache keys and conformance digests are
    #: unchanged for configs that never touch them.
    ENCODE_OPTIONAL_FIELDS = frozenset({"tFAW_ns", "device"})

    def __post_init__(self) -> None:
        if self.data_rate_mts not in DRAM_CLOCK_PS:
            raise ValueError(
                f"unsupported data rate {self.data_rate_mts}; "
                f"supported: {sorted(DRAM_CLOCK_PS)}"
            )
        if self.logic_channels < 1 or self.physical_per_logic < 1:
            raise ValueError("need at least one channel")
        if self.dimms_per_channel < 1 or self.banks_per_dimm < 1:
            raise ValueError("need at least one DIMM and one bank")
        if self.ranks_per_dimm < 1:
            raise ValueError("need at least one rank per DIMM")
        if self.cacheline_bytes & (self.cacheline_bytes - 1):
            raise ValueError("cacheline_bytes must be a power of two")
        if self.page_bytes % self.cacheline_bytes:
            raise ValueError("page_bytes must be a multiple of cacheline_bytes")
        if self.lines_per_page % self.interleave_lines:
            raise ValueError(
                f"page of {self.lines_per_page} lines not divisible by "
                f"interleave region of {self.interleave_lines} lines"
            )
        if self.prefetch.enabled and self.kind is not MemoryKind.FBDIMM:
            raise ValueError("AMB prefetching requires an FB-DIMM memory system")
        if self.tFAW_ns < 0:
            raise ValueError("tFAW_ns must be >= 0")
        t = self.timings
        for name in ("tRP", "tRCD", "tCL", "tRC", "tRAS", "tWL"):
            if getattr(t, name) <= 0:
                raise ValueError(
                    f"timings.{name}: must be positive, got "
                    f"{getattr(t, name)} ns"
                )
        burst = self.burst_clocks * self.dram_clock_ps / 1000.0
        if t.tRC < t.tRAS + t.tRP:
            raise ValueError(
                f"timings.tRC: tRC ({t.tRC} ns) < tRAS + tRP ({t.tRAS} + "
                f"{t.tRP} ns): the ACT-to-ACT window is shorter than "
                "open-row time plus precharge; raise tRC or lower tRAS/tRP"
            )
        if t.tRAS < t.tRCD + burst:
            raise ValueError(
                f"timings.tRAS: tRAS ({t.tRAS} ns) < tRCD + burst "
                f"({t.tRCD} + {burst:.1f} ns): the row would close before "
                "the first burst drains; raise tRAS"
            )
        if t.tWPD < t.tWL + burst:
            raise ValueError(
                f"timings.tWPD: tWPD ({t.tWPD} ns) < tWL + burst ({t.tWL} + "
                f"{burst:.1f} ns): precharge would cut off the write burst; "
                "raise tWPD"
            )
        k = self.prefetch.region_cachelines
        if self.prefetch.enabled and k > self.lines_per_page:
            raise ValueError(
                f"prefetch.region_cachelines: a {k}-line region spans more "
                f"than one {self.page_bytes}-byte DRAM row; a group fetch is "
                "one ACT plus pipelined column accesses and cannot cross a "
                "row boundary"
            )
        if self.kind is MemoryKind.FBDIMM and self.cacheline_bytes % 32:
            raise ValueError(
                f"cacheline_bytes: {self.cacheline_bytes} B is not a whole "
                "number of 32 B northbound frames"
            )
        if 0 < self.refresh_interval_ns <= self.refresh_cycle_ns:
            raise ValueError(
                f"refresh_cycle_ns: tRFC ({self.refresh_cycle_ns} ns) >= "
                f"tREFI ({self.refresh_interval_ns} ns): banks would refresh "
                "back-to-back and never serve requests"
            )
        # Late import: repro.dram.devices builds its presets *from* the
        # timing/power dataclasses this module defines.
        from repro.dram.devices import DEVICE_PRESETS

        if self.device not in DEVICE_PRESETS:
            known = ", ".join(sorted(DEVICE_PRESETS))
            raise ValueError(
                f"unknown device preset {self.device!r}; known presets: {known}"
            )

    @property
    def physical_channels(self) -> int:
        """Total number of physical channels."""
        return self.logic_channels * self.physical_per_logic

    @property
    def dram_clock_ps(self) -> int:
        """One DRAM clock period in picoseconds."""
        return DRAM_CLOCK_PS[self.data_rate_mts]

    @property
    def frame_ps(self) -> int:
        """One FB-DIMM frame: two DRAM clocks (32 B northbound per frame)."""
        return 2 * self.dram_clock_ps

    @property
    def burst_clocks(self) -> int:
        """DRAM clocks of data-bus occupancy for one cacheline burst.

        A 64 B line over the 8 B DDR2 data path is 8 beats = 4 clocks.
        """
        beats = self.cacheline_bytes // 8
        return max(1, beats // 2)

    @property
    def lines_per_page(self) -> int:
        """Cachelines per DRAM page (row)."""
        return self.page_bytes // self.cacheline_bytes

    @property
    def interleave_lines(self) -> int:
        """Interleaving granularity in cachelines."""
        if self.interleave is InterleaveScheme.CACHELINE:
            return 1
        if self.interleave is InterleaveScheme.MULTI_CACHELINE:
            return self.prefetch.region_cachelines
        return self.lines_per_page

    def peak_bandwidth_gbs(self) -> float:
        """Aggregate peak channel bandwidth in GB/s.

        DDR2: 8 B x data rate per physical channel.  FB-DIMM: the northbound
        link matches one DDR2 channel and the southbound adds half of that
        again for writes (Section 2).
        """
        per_channel = 8 * self.data_rate_mts / 1000.0
        if self.kind is MemoryKind.FBDIMM:
            per_channel *= 1.5
        return per_channel * self.physical_channels


@dataclass(frozen=True)
class CpuConfig:
    """Processor-side parameters (Table 1, pipeline rows).

    Only the parameters that the memory system can observe are modelled:
    clock rate, reorder window, and miss concurrency.  Issue width and
    functional-unit mix are folded into each program's base IPC.
    """

    num_cores: int = 1
    clock_ghz: float = 4.0
    rob_entries: int = 196
    l2_mshr_entries: int = 64
    data_mshr_entries: int = 32  # per-core data-cache MSHRs
    l2_hit_latency_cycles: int = 15
    store_buffer_entries: int = 32
    #: Hardware stream prefetcher at the L2 (off by default; the paper
    #: only evaluates software prefetching but expects "similar" results
    #: with hardware prefetching, Section 5.4).  Degree = lines fetched
    #: ahead once a stream is detected.
    hw_prefetch_degree: int = 0

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.clock_ghz <= 0:
            raise ValueError("clock rate must be positive")
        if self.hw_prefetch_degree < 0:
            raise ValueError("hw_prefetch_degree must be >= 0")

    @property
    def cycle_ps(self) -> int:
        """Core clock period in picoseconds."""
        return round(1000.0 / self.clock_ghz)


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to construct one simulated system."""

    cpu: CpuConfig = field(default_factory=CpuConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    software_prefetch: bool = True
    instructions_per_core: int = 300_000
    #: Instructions (on the first core to get there) before measurement
    #: starts; warm-up activity is discarded from all reported statistics,
    #: SimPoint-style.  0 measures from the beginning.
    warmup_instructions: int = 0
    seed: int = 12345
    #: Opt-in runtime protocol assertion layer: journal every DRAM command
    #: and FB-DIMM frame booking and run :mod:`repro.check` over the stream
    #: when the run ends (System.run raises ProtocolViolationError on any
    #: violation).  Off by default — journalling costs memory and time.
    check_protocol: bool = False
    #: Seeded link-layer fault injection (see :class:`FaultConfig`).
    #: Disabled by default: a default-config run is bit-identical to a
    #: build without the fault subsystem at all.
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Sim-time-windowed telemetry (see :class:`TimelineConfig`).
    #: Disabled by default for the same bit-identity guarantee.
    timeline: TimelineConfig = field(default_factory=TimelineConfig)

    def __post_init__(self) -> None:
        if self.instructions_per_core < 1:
            raise ValueError(
                f"instructions_per_core must be >= 1, got {self.instructions_per_core}"
            )
        if not 0 <= self.warmup_instructions < self.instructions_per_core:
            raise ValueError(
                "warmup_instructions must be in [0, instructions_per_core)"
            )
        if self.faults.enabled and self.memory.kind is not MemoryKind.FBDIMM:
            raise ValueError(
                "fault injection models the FB-DIMM link layer; "
                "memory.kind must be FBDIMM when faults.enabled"
            )

    def warnings(self) -> List[str]:
        """Legal but suspicious settings, each as ``field: message``.

        A config that constructs is valid (every ``__post_init__`` above
        rejects meaningless values); these flag half-applied overrides
        and setups no figure of the paper uses.  ``repro run`` prints
        them to stderr.  Every factory config on every device preset
        has none.
        """
        memory, cpu = self.memory, self.cpu
        t, prefetch = memory.timings, memory.prefetch
        found: List[str] = []
        if t.tRPD > t.tRAS:
            found.append(
                f"timings.tRPD: tRPD ({t.tRPD} ns) > tRAS ({t.tRAS} ns) is "
                "unusual for DDR2 and makes reads close rows later than the "
                "row-open minimum"
            )
        if memory.data_rate_mts >= 1066 and t == DramTimings():
            found.append(
                f"data_rate_mts: {memory.data_rate_mts} MT/s is a DDR3-class "
                "rate but the timings are the DDR2 Table 2 defaults; pass "
                "ddr3_memory_overrides() so both move together"
            )
        k = prefetch.region_cachelines
        if prefetch.enabled and prefetch.cache_entries < 2 * k:
            found.append(
                f"prefetch.cache_entries: only {prefetch.cache_entries // k} "
                "region(s) fit the AMB cache; two concurrent streams will "
                "thrash it"
            )
        if prefetch.enabled and prefetch.cache_entries % k:
            found.append(
                f"prefetch.cache_entries: {prefetch.cache_entries} entries is "
                f"not a whole number of {k}-line regions; FIFO replacement "
                "will evict partial regions"
            )
        if memory.interleave is InterleaveScheme.CACHELINE:
            if prefetch.enabled:
                found.append(
                    "interleave: AMB prefetching with cacheline interleaving "
                    "scatters each region across channels, so group fetches "
                    "degenerate to single lines; use MULTI_CACHELINE (the "
                    "fbdimm_amb_prefetch factory does this automatically)"
                )
            if memory.page_policy is PagePolicy.OPEN_PAGE:
                found.append(
                    "page_policy: open page with cacheline interleaving: "
                    "consecutive lines map to different banks, so the open "
                    "row is almost never re-hit; the paper pairs open page "
                    "with page interleaving"
                )
        if memory.write_drain_threshold > memory.buffer_entries:
            found.append(
                f"write_drain_threshold: threshold "
                f"{memory.write_drain_threshold} exceeds the "
                f"{memory.buffer_entries}-entry memory buffer, so the write "
                "drain can never trigger and writes only issue when no read "
                "is ready"
            )
        if (
            memory.refresh_interval_ns > 0
            and memory.refresh_cycle_ns / memory.refresh_interval_ns > 0.2
        ):
            found.append(
                "refresh_cycle_ns: refresh would consume more than 20% of "
                "every rank's time; typical DDR2 is ~1.6% (127.5 ns / 7800 ns)"
            )
        if cpu.data_mshr_entries * cpu.num_cores < cpu.l2_mshr_entries // 4:
            found.append(
                "cpu.data_mshr_entries: per-core MSHRs are far below the "
                "shared L2's; the L2 MSHR file cannot fill and memory-level "
                "parallelism is core-bound"
            )
        if cpu.hw_prefetch_degree > 0 and self.software_prefetch:
            found.append(
                "cpu.hw_prefetch_degree: hardware and software prefetching "
                "are both on; the paper evaluates one at a time (Section "
                "5.4), so coverage numbers will not be comparable to any "
                "figure"
            )
        if memory.buffer_entries < cpu.l2_mshr_entries // 2:
            found.append(
                f"memory.buffer_entries: {memory.buffer_entries} buffer "
                f"entries against {cpu.l2_mshr_entries} L2 MSHRs: admission "
                "backpressure will dominate queueing before the channels "
                "saturate"
            )
        return found

    def with_memory(self, **changes: object) -> "SystemConfig":
        """Return a copy with the memory config fields replaced."""
        return replace(self, memory=replace(self.memory, **changes))

    def with_prefetch(self, **changes: object) -> "SystemConfig":
        """Return a copy with the AMB-prefetch config fields replaced."""
        prefetch = replace(self.memory.prefetch, **changes)
        memory = replace(self.memory, prefetch=prefetch)
        if prefetch.enabled and memory.interleave is InterleaveScheme.CACHELINE:
            memory = replace(memory, interleave=InterleaveScheme.MULTI_CACHELINE)
        return replace(self, memory=memory)

    def with_cpu(self, **changes: object) -> "SystemConfig":
        """Return a copy with the CPU config fields replaced."""
        return replace(self, cpu=replace(self.cpu, **changes))

    def with_device(self, name: str) -> "SystemConfig":
        """Return a copy resolved onto a device-generation preset.

        Applies the preset's organization, timings, refresh pair, tFAW
        and data rate (see
        :meth:`repro.dram.devices.DeviceSpec.memory_overrides`); channel
        topology, interleave and prefetch policy are orthogonal to the
        generation and survive unchanged.  ``with_device("ddr2-667")`` on
        a default config is value-identical to the config itself.
        """
        from repro.dram.devices import device_spec

        return self.with_memory(**device_spec(name).memory_overrides())

    def with_faults(self, **changes: object) -> "SystemConfig":
        """Return a copy with the fault-injection config fields replaced.

        ``with_faults(error_rate=1e-6)`` implies ``enabled=True`` unless
        ``enabled`` is passed explicitly — asking for faults is opting in.
        """
        if changes and "enabled" not in changes:
            changes["enabled"] = True
        return replace(self, faults=replace(self.faults, **changes))

    def with_timeline(self, **changes: object) -> "SystemConfig":
        """Return a copy with the timeline config fields replaced.

        ``with_timeline(...)`` implies ``enabled=True`` unless ``enabled``
        is passed explicitly — asking for a timeline is opting in, so
        ``cfg.with_timeline()`` alone turns windowed telemetry on with
        the defaults.
        """
        if "enabled" not in changes:
            changes["enabled"] = True
        return replace(self, timeline=replace(self.timeline, **changes))

    def to_dict(self) -> dict:
        """JSON-compatible encoding (enums by name, nested dataclasses
        as objects); the exact inverse of :meth:`from_dict`."""
        from repro.serialize import encode_value

        return encode_value(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output.  Missing keys take
        the field defaults, so configs written by older code versions still
        load; an unknown key, or a value a ``__post_init__`` rejects, raises
        ``ValueError``."""
        from repro.serialize import decode_value

        return decode_value(raw, cls)


def ddr2_baseline(num_cores: int = 1, **memory_overrides: object) -> SystemConfig:
    """The paper's DDR2 reference system: cacheline interleave, close page."""
    memory = MemoryConfig(
        kind=MemoryKind.DDR2,
        interleave=InterleaveScheme.CACHELINE,
        page_policy=PagePolicy.CLOSE_PAGE,
        prefetch=AmbPrefetchConfig(enabled=False),
        **memory_overrides,
    )
    return SystemConfig(cpu=CpuConfig(num_cores=num_cores), memory=memory)


def fbdimm_baseline(num_cores: int = 1, **memory_overrides: object) -> SystemConfig:
    """Plain FB-DIMM without AMB prefetching (FBD in the figures)."""
    memory = MemoryConfig(
        kind=MemoryKind.FBDIMM,
        interleave=InterleaveScheme.CACHELINE,
        page_policy=PagePolicy.CLOSE_PAGE,
        prefetch=AmbPrefetchConfig(enabled=False),
        **memory_overrides,
    )
    return SystemConfig(cpu=CpuConfig(num_cores=num_cores), memory=memory)


def fbdimm_amb_prefetch(
    num_cores: int = 1,
    prefetch: Optional[AmbPrefetchConfig] = None,
    **memory_overrides: object,
) -> SystemConfig:
    """FB-DIMM with AMB prefetching (FBD-AP): multi-cacheline interleave
    and close page by default; both may be overridden (e.g. page
    interleaving with open page, Figure 2's second layout)."""
    prefetch = prefetch or AmbPrefetchConfig(enabled=True)
    memory_overrides.setdefault("interleave", InterleaveScheme.MULTI_CACHELINE)
    memory_overrides.setdefault("page_policy", PagePolicy.CLOSE_PAGE)
    memory = MemoryConfig(
        kind=MemoryKind.FBDIMM,
        prefetch=prefetch,
        **memory_overrides,
    )
    return SystemConfig(cpu=CpuConfig(num_cores=num_cores), memory=memory)
