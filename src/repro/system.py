"""Top-level system: cores + shared L2 + memory controller, and the run loop.

:func:`run_system` is the main entry point of the library: it builds one
simulated machine from a :class:`~repro.config.SystemConfig` and a list of
program names (one per core), runs until the first core commits its target
instruction count (the paper's stopping rule), and returns a
:class:`SimulationResult` with per-core IPCs and the memory-system counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.spans import Tracer
    from repro.timeline.collector import TimelineCollector
    from repro.workloads.spec import StreamMemo
from repro.controller.controller import MemoryController
from repro.cpu.core import Core, CoreStats
from repro.cpu.l2 import L2FillTable
from repro.cpu.mshr import Limiter
from repro.engine.simulator import Simulator
from repro.stats import metrics
from repro.stats.collector import MemSystemStats
from repro.timeline.records import TimelineResult
from repro.workloads.spec import make_trace

#: Shared L2 capacity in cachelines (4 MB / 64 B, Table 1); bounds how long
#: software-prefetched lines stay resident.
L2_CAPACITY_LINES = (4 * 1024 * 1024) // 64

#: Hard ceiling on fired events per run; a livelock fails loudly.
MAX_EVENTS_PER_RUN = 200_000_000


@dataclass
class SimulationResult:
    """Everything measured in one run."""

    config: SystemConfig
    programs: List[str]
    elapsed_ps: int
    core_instructions: List[int]
    core_ipcs: List[float]
    core_stats: List[CoreStats]
    mem: MemSystemStats
    l2_prefetch_hits: int = 0
    events_fired: int = 0
    warmup_time_ps: int = 0  # measurement window start (0 = no warm-up)
    #: Protocol-checker outcome: None when the run had check_protocol off,
    #: [] when checked and clean (a non-empty list never escapes — System.run
    #: raises ProtocolViolationError instead).
    protocol_violations: Optional[list] = None
    #: Windowed telemetry (repro.timeline); None unless the run's config
    #: had ``timeline.enabled`` — the timeline-off canonical JSON is thus
    #: unchanged and the bit-identity guarantee holds.
    timeline: Optional[TimelineResult] = None

    @property
    def ipc_by_program(self) -> Dict[str, float]:
        """Program name -> IPC (program names are unique within a mix)."""
        return dict(zip(self.programs, self.core_ipcs))

    @property
    def avg_read_latency_ns(self) -> float:
        return metrics.average_read_latency_ns(self.mem)

    @property
    def utilized_bandwidth_gbs(self) -> float:
        return metrics.utilized_bandwidth_gbs(self.mem)

    @property
    def prefetch_coverage(self) -> float:
        return metrics.prefetch_coverage(self.mem)

    @property
    def prefetch_efficiency(self) -> float:
        return metrics.prefetch_efficiency(self.mem)

    def smt_speedup(self, reference_ipcs: Dict[str, float]) -> float:
        """SMT speedup against per-program reference IPCs."""
        refs = [reference_ipcs[p] for p in self.programs]
        return metrics.smt_speedup(self.core_ipcs, refs)

    # -- serialisation (run cache, differential tests) -----------------

    def to_dict(self) -> dict:
        """JSON-compatible encoding; exact inverse of :meth:`from_dict`."""
        from repro.serialize import encode_value

        return encode_value(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output."""
        from repro.serialize import decode_value

        return decode_value(raw, cls)

    def canonical_json(self) -> str:
        """Canonical one-line JSON text of this result.

        Two results are bit-identical iff their canonical JSON matches; the
        serial-vs-parallel and cached-vs-fresh differential tests compare
        these strings byte-for-byte.
        """
        from repro.serialize import canonical_dumps

        return canonical_dumps(self.to_dict())


class System:
    """One simulated machine, built and runnable exactly once.

    Construct with SPEC program names (the normal path) or with raw traces
    via :meth:`from_traces` for synthetic/validation workloads.  Runs that
    share a ``streams`` memo replay each program's miss stream instead of
    generating it again; the result is the same either way.
    """

    def __init__(
        self,
        config: SystemConfig,
        programs: Sequence[str],
        tracer: "Optional[Tracer]" = None,
        streams: "Optional[StreamMemo]" = None,
    ) -> None:
        from repro.workloads.spec import PROGRAMS

        build = make_trace if streams is None else streams.trace
        traces = [
            iter(
                build(
                    program,
                    seed=config.seed,
                    core_id=core_id,
                    software_prefetch=config.software_prefetch,
                )
            )
            for core_id, program in enumerate(programs)
        ]
        base_ipcs = [PROGRAMS[p].base_ipc for p in programs]
        self._build(config, list(programs), traces, base_ipcs, tracer)

    @classmethod
    def from_traces(
        cls,
        config: SystemConfig,
        traces: Sequence,
        base_ipcs: Sequence[float],
        labels: Optional[Sequence[str]] = None,
        tracer: "Optional[Tracer]" = None,
    ) -> "System":
        """Build a system from explicit per-core trace iterators.

        Args:
            traces: One TraceEvent iterator per core.
            base_ipcs: Each core's no-miss IPC.
            labels: Names for reporting (default ``custom-<i>``).
            tracer: Optional request-lifecycle tracer (repro.telemetry).
        """
        system = cls.__new__(cls)
        labels = list(labels) if labels else [f"custom-{i}" for i in range(len(traces))]
        system._build(config, labels, [iter(t) for t in traces], list(base_ipcs), tracer)
        return system

    def _build(
        self,
        config: SystemConfig,
        labels: List[str],
        traces: List,
        base_ipcs: List[float],
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        if len(labels) != config.cpu.num_cores:
            raise ValueError(
                f"{config.cpu.num_cores} cores but {len(labels)} programs"
            )
        if not (len(labels) == len(traces) == len(base_ipcs)):
            raise ValueError("labels, traces and base_ipcs must align")
        self.config = config
        self.programs = labels
        self.sim = Simulator()
        self.tracer = tracer
        self.controller = MemoryController(
            self.sim, config.memory,
            check_protocol=config.check_protocol,
            tracer=tracer,
            faults=config.faults if config.faults.enabled else None,
        )
        self.timeline_collector: "Optional[TimelineCollector]" = None
        if config.timeline.enabled:
            from repro.dram.devices import device_spec
            from repro.power.energy import EnergyAccountant
            from repro.timeline.collector import TimelineCollector

            mem = config.memory
            ranks = mem.physical_channels * mem.dimms_per_channel * mem.ranks_per_dimm
            self.timeline_collector = TimelineCollector(
                sim=self.sim,
                stats=self.controller.stats,
                config=config.timeline,
                accountant=EnergyAccountant(
                    calculator=device_spec(mem.device).power, ranks=ranks
                ),
                device_counters=self.controller.device_counters,
                queue_depth=self.controller.outstanding,
            )
            self.controller.timeline = self.timeline_collector
            self.controller.enable_idle_tracking(config.timeline.powerdown_entry_ps)
        self.l2 = L2FillTable(L2_CAPACITY_LINES)
        self.l2_mshr = Limiter(config.cpu.l2_mshr_entries, "l2.mshr")
        self._finished_core: Optional[Core] = None
        self._warmup_time_ps = 0
        self._warmup_insts: Optional[List[int]] = None
        self.cores: List[Core] = []
        for core_id, (trace, base_ipc) in enumerate(zip(traces, base_ipcs)):
            core = Core(
                sim=self.sim,
                core_id=core_id,
                config=config.cpu,
                base_ipc=base_ipc,
                trace=trace,
                controller=self.controller,
                l2=self.l2,
                l2_mshr=self.l2_mshr,
                target_instructions=config.instructions_per_core,
                on_finished=self._core_finished,
                warmup_instructions=config.warmup_instructions,
                on_warmup=self._warmup_reached,
            )
            self.cores.append(core)
        self._ran = False

    def _core_finished(self, core: Core) -> None:
        if self._finished_core is None:
            self._finished_core = core
            self.sim.stop()

    def _warmup_reached(self, core: Core) -> None:
        """First core past the warm-up point: restart measurement."""
        if self._warmup_insts is not None:
            return  # only the first core triggers the reset
        self._warmup_time_ps = self.sim.now
        self._warmup_insts = [c.committed_instructions for c in self.cores]
        self.controller.mark_measurement_start()

    def run(self) -> SimulationResult:
        """Run until the first core commits its instruction target."""
        if self._ran:
            raise RuntimeError("a System instance runs exactly once")
        self._ran = True
        for core in self.cores:
            core.start()
        if self.timeline_collector is not None:
            self.timeline_collector.start()
        self.sim.run(max_events=MAX_EVENTS_PER_RUN)
        elapsed = max(self.sim.now, 1)
        # Finalize the controller first: it closes the trailing idle gap,
        # so the timeline's final partial window sees full residency.
        mem_stats = self.controller.finalize()
        timeline: Optional[TimelineResult] = None
        if self.timeline_collector is not None:
            timeline = self.timeline_collector.finalize(self.sim.now)
        violations = None
        if self.config.check_protocol:
            from repro.check.protocol import ProtocolViolationError

            violations = self.controller.check_protocol_violations()
            if violations:
                raise ProtocolViolationError(violations)
        warm_insts = self._warmup_insts or [0] * len(self.cores)
        window = max(elapsed - self._warmup_time_ps, 1)
        cycle_ps = self.config.cpu.cycle_ps
        measured_ipcs = [
            (c.committed_instructions - warm) / (window / cycle_ps)
            for c, warm in zip(self.cores, warm_insts)
        ]
        return SimulationResult(
            config=self.config,
            programs=self.programs,
            elapsed_ps=elapsed,
            core_instructions=[c.committed_instructions for c in self.cores],
            core_ipcs=measured_ipcs,
            core_stats=[c.stats for c in self.cores],
            mem=mem_stats,
            l2_prefetch_hits=self.l2.demand_hits,
            events_fired=self.sim.events_fired,
            warmup_time_ps=self._warmup_time_ps,
            protocol_violations=violations,
            timeline=timeline,
        )


def run_system(
    config: SystemConfig,
    programs: Sequence[str],
    tracer: "Optional[Tracer]" = None,
    streams: "Optional[StreamMemo]" = None,
) -> SimulationResult:
    """Build and run one system; the library's main entry point."""
    return System(config, programs, tracer=tracer, streams=streams).run()
