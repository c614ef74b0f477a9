"""Request-lifecycle tracing: one timestamped span per memory request.

A :class:`Tracer` is attached to a run (``System(config, programs,
tracer=Tracer())`` or ``run_system(..., tracer=...)``).  A request already
carries its own timestamps (:class:`~repro.controller.transaction.
MemoryRequest`), so the tracer keeps the request and builds its span from
those fields when :meth:`Tracer.traces` is called.  Only two facts are
not on the request, so only two hooks remain, each guarded by ``if
tracer is not None``: :meth:`~Tracer.on_arrival` (whether it was
backlogged, and the recording bound) and :meth:`~Tracer.on_retry` (CRC
replays).  The tracer keeps no totals: latency and queue-delay
distributions are computed from the spans
(:func:`repro.telemetry.export.summarize_capture`).  Tracing never
schedules simulator events and never touches the statistics counters.

Phases of one request (all times integer picoseconds):

``arrival``      the CPU side handed the request to the controller
``queued``       parked in the admission FIFO (64-entry buffer full)
``schedulable``  admitted to a channel queue, eligible for scheduling
``issue``        the scheduler picked it: first DRAM/AMB command
``retry``        a CRC replay booked under fault injection (may repeat)
``data``         first beat of its data burst (cut-through for AMB hits)
``complete``     critical data back at the controller / write retired
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.faults.retry import NB_LINE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.controller.transaction import MemoryRequest

#: Canonical phase order; ``queued`` is optional (only backlogged
#: requests), ``retry`` only appears under fault injection and may repeat.
PHASES = ("arrival", "queued", "schedulable", "issue", "retry", "data", "complete")

#: Prefetch-instance span phases: ``issue`` when the group fetch books the
#: fill, ``fill`` when it commits into the tag store (absent for instances
#: that merged or died in flight), ``end`` when the instance reaches its
#: terminal outcome (see :mod:`repro.prefetch.lifecycle`).
PF_PHASES = ("issue", "fill", "end")

#: Terminal outcomes a prefetch span may close with.
PF_OUTCOMES = (
    "used", "evicted_unused", "late_unused", "invalidated", "resident_at_end",
)


@dataclass
class PrefetchTrace:
    """Timestamped lifecycle span of one prefetched-line instance."""

    line_addr: int
    phases: List[Tuple[str, int]] = field(default_factory=list)
    outcome: str = ""

    def mark(self, phase: str, time_ps: int) -> None:
        """Record one lifecycle phase transition."""
        if phase not in PF_PHASES:
            raise ValueError(f"unknown prefetch phase {phase!r}")
        self.phases.append((phase, time_ps))

    def close(self, outcome: str, time_ps: int) -> None:
        """Mark the terminal transition and record the outcome."""
        if outcome not in PF_OUTCOMES:
            raise ValueError(f"unknown prefetch outcome {outcome!r}")
        self.mark("end", time_ps)
        self.outcome = outcome

    def phase_time(self, phase: str) -> Optional[int]:
        """Time of the first occurrence of ``phase``, or None."""
        for name, time_ps in self.phases:
            if name == phase:
                return time_ps
        return None

    @property
    def fill_latency_ps(self) -> Optional[int]:
        """issue -> fill commit, when both phases were recorded."""
        start = self.phase_time("issue")
        fill = self.phase_time("fill")
        if start is None or fill is None:
            return None
        return fill - start

    @property
    def lifetime_ps(self) -> Optional[int]:
        """issue -> terminal outcome, when the span is closed."""
        start = self.phase_time("issue")
        end = self.phase_time("end")
        if start is None or end is None:
            return None
        return end - start

    # -- JSONL (de)serialisation ---------------------------------------

    def to_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "type": "pf",
            "line": self.line_addr,
            "ph": [[name, t] for name, t in self.phases],
        }
        if self.outcome:
            record["out"] = self.outcome
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "PrefetchTrace":
        trace = cls(line_addr=int(record.get("line", -1)))  # type: ignore[arg-type]
        for name, time_ps in record.get("ph", []):  # type: ignore[union-attr]
            trace.phases.append((str(name), int(time_ps)))
        trace.outcome = str(record.get("out", ""))
        return trace


@dataclass
class RequestTrace:
    """Timestamped phase transitions of one memory request."""

    req_id: int
    kind: str  # RequestKind value: "read" / "sw_prefetch" / "write"
    core_id: int
    line_addr: int
    channel: int = -1
    dimm: int = -1
    rank: int = -1
    bank: int = -1
    amb_hit: bool = False
    row_hit: bool = False
    phases: List[Tuple[str, int]] = field(default_factory=list)

    def mark(self, phase: str, time_ps: int) -> None:
        """Record one phase transition."""
        if phase not in PHASES:
            raise ValueError(f"unknown request phase {phase!r}")
        self.phases.append((phase, time_ps))

    def phase_time(self, phase: str) -> Optional[int]:
        """Time of the first occurrence of ``phase``, or None."""
        for name, time_ps in self.phases:
            if name == phase:
                return time_ps
        return None

    @property
    def completed(self) -> bool:
        return self.phase_time("complete") is not None

    @property
    def latency_ps(self) -> Optional[int]:
        """arrival -> complete, when both phases were recorded."""
        start = self.phase_time("arrival")
        end = self.phase_time("complete")
        if start is None or end is None:
            return None
        return end - start

    @property
    def queue_delay_ps(self) -> Optional[int]:
        """schedulable -> issue (time lost waiting in a channel queue)."""
        ready = self.phase_time("schedulable")
        issue = self.phase_time("issue")
        if ready is None or issue is None:
            return None
        return max(0, issue - ready)

    # -- JSONL (de)serialisation ---------------------------------------

    def to_record(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "type": "req",
            "id": self.req_id,
            "k": self.kind,
            "core": self.core_id,
            "line": self.line_addr,
            "ph": [[name, t] for name, t in self.phases],
        }
        for key, value in (
            ("ch", self.channel), ("d", self.dimm),
            ("r", self.rank), ("b", self.bank),
        ):
            if value >= 0:
                record[key] = value
        if self.amb_hit:
            record["amb"] = True
        if self.row_hit:
            record["row_hit"] = True
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "RequestTrace":
        trace = cls(
            req_id=int(record["id"]),  # type: ignore[arg-type]
            kind=str(record["k"]),
            core_id=int(record.get("core", -1)),  # type: ignore[arg-type]
            line_addr=int(record.get("line", -1)),  # type: ignore[arg-type]
            channel=int(record.get("ch", -1)),  # type: ignore[arg-type]
            dimm=int(record.get("d", -1)),  # type: ignore[arg-type]
            rank=int(record.get("r", -1)),  # type: ignore[arg-type]
            bank=int(record.get("b", -1)),  # type: ignore[arg-type]
            amb_hit=bool(record.get("amb", False)),
            row_hit=bool(record.get("row_hit", False)),
        )
        for name, time_ps in record.get("ph", []):  # type: ignore[union-attr]
            trace.mark(str(name), int(time_ps))
        return trace


def request_trace(
    req: "MemoryRequest", backlogged: bool, retries: Sequence[Tuple[str, int]] = ()
) -> RequestTrace:
    """The span of one request, read off its timestamps.

    ``retries`` are its ``(transfer kind, time)`` CRC replays in booking
    order.  Southbound sends precede the DRAM access and northbound
    returns follow it, so the ``SB_*`` replays go before ``data`` and the
    ``NB_LINE`` ones after it.  A timestamp still at -1 (never admitted,
    issued or completed) records no phase.
    """
    phases = [("arrival", req.arrival)]
    if backlogged:
        phases.append(("queued", req.arrival))
    if req.schedulable_at >= 0:
        phases.append(("schedulable", req.schedulable_at))
    if req.issue_time >= 0:
        phases.append(("issue", req.issue_time))
    for kind, time_ps in retries:
        if kind != NB_LINE:
            phases.append(("retry", time_ps))
    if req.data_at >= 0:
        phases.append(("data", req.data_at))
    for kind, time_ps in retries:
        if kind == NB_LINE:
            phases.append(("retry", time_ps))
    finished = req.finish_time >= 0
    if finished:
        phases.append(("complete", req.finish_time))
    trace = RequestTrace(
        req_id=req.req_id,
        kind=req.kind.value,
        core_id=req.core_id,
        line_addr=req.line_addr,
        amb_hit=finished and req.amb_hit,
        row_hit=finished and req.row_hit,
        phases=phases,
    )
    mapped = req.mapped
    if mapped is not None:
        trace.channel = mapped.channel
        trace.dimm = mapped.dimm
        trace.rank = mapped.rank
        trace.bank = mapped.bank
    return trace


class Tracer:
    """Collects request traces and prefetch lifecycle spans.

    Memory is bounded: once ``max_requests`` requests (``max_prefetches``
    prefetch spans) are recorded, further ones are only counted, in
    ``dropped`` (``dropped_prefetches``).  The run's counters
    (``MemSystemStats``) still see every request.
    """

    def __init__(
        self, max_requests: int = 200_000, max_prefetches: int = 200_000
    ) -> None:
        self.max_requests = max_requests
        #: req_id -> (request, was it backlogged), in arrival order.
        self.requests: "Dict[int, Tuple[MemoryRequest, bool]]" = {}
        #: req_id -> its (transfer kind, time) CRC replays, recorded
        #: requests only.
        self._retries: Dict[int, List[Tuple[str, int]]] = {}
        self.dropped = 0
        #: Prefetch lifecycle spans, in issue order (fed by the
        #: PrefetchLifecycle tracker when both it and tracing are on).
        self.max_prefetches = max_prefetches
        self.prefetches: List[PrefetchTrace] = []
        self.dropped_prefetches = 0

    # -- hooks (called by the controller layer) -------------------------

    def on_arrival(self, req: "MemoryRequest", backlogged: bool) -> None:
        """Request entered the controller, parked in the admission FIFO
        when ``backlogged``."""
        if len(self.requests) >= self.max_requests:
            self.dropped += 1
            return
        self.requests[req.req_id] = (req, backlogged)

    def on_retry(self, req: "MemoryRequest", kind: str, time_ps: int) -> None:
        """A fault-injection replay of a ``kind`` transfer was booked."""
        if req.req_id in self.requests:
            self._retries.setdefault(req.req_id, []).append((kind, time_ps))

    # -- prefetch lifecycle spans ---------------------------------------

    def new_prefetch_trace(self, line_addr: int, now: int) -> Optional[PrefetchTrace]:
        """Open a lifecycle span for one prefetched-line instance.

        Returns None once ``max_prefetches`` spans exist (the instance is
        still fully counted in the stats; only its span is dropped).
        """
        if len(self.prefetches) >= self.max_prefetches:
            self.dropped_prefetches += 1
            return None
        trace = PrefetchTrace(line_addr=line_addr)
        trace.mark("issue", now)
        self.prefetches.append(trace)
        return trace

    # -- results --------------------------------------------------------

    def traces(self) -> List[RequestTrace]:
        """All recorded traces, in arrival order, as the requests stand now."""
        retries = self._retries
        return [
            request_trace(req, backlogged, retries.get(req_id, ()))
            for req_id, (req, backlogged) in self.requests.items()
        ]

    def completed_traces(self) -> List[RequestTrace]:
        return [t for t in self.traces() if t.completed]
