"""Synthetic memory-behaviour profiles for the paper's twelve SPEC2000
programs.

Running the real binaries under a cycle-accurate core is out of scope (see
DESIGN.md); instead each program is summarised by the handful of parameters
that the memory system can actually observe:

* ``mpki`` — L2 demand misses per thousand instructions (traffic intensity);
* ``base_ipc`` — IPC when every access hits on-chip (compute intensity);
* ``streams`` × ``run_length`` — concurrent sequential access streams and
  how far each runs before jumping: *the* two knobs behind DRAM-level
  spatial locality (what AMB prefetching exploits) and bank conflicts
  (what it removes);
* ``write_fraction`` — share of memory events that are writebacks;
* ``sw_prefetch_coverage`` — how much of the streaming traffic the Alpha
  compiler's software prefetches cover (Section 5.4).

Values are set from published SPEC2000 characterisation ranges: the FP
streamers (swim, mgrid, applu, wupwise, lucas, facerec) are high-MPKI /
long-run; the integer codes (vpr, parser, gap, vortex) are low-MPKI /
short-run.  Absolute IPCs are not meant to match the paper — relative
behaviour across programs and configurations is what the reproduction
preserves.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.workloads.trace import TraceEvent, TraceKind


@dataclass(frozen=True)
class ProgramProfile:
    """Memory-behaviour summary of one benchmark program."""

    name: str
    base_ipc: float
    mpki: float  # demand L2 misses per 1000 instructions
    write_fraction: float  # of all memory events
    streams: int  # concurrent sequential access streams
    run_length: int  # mean consecutive cachelines per stream run
    sw_prefetch_coverage: float  # of sequential demand reads
    sw_prefetch_distance: int = 600  # instructions of lead time
    footprint_lines: int = 1 << 22  # 256 MB at 64 B lines

    def __post_init__(self) -> None:
        if not 0 < self.base_ipc <= 8:
            raise ValueError(f"{self.name}: implausible base IPC {self.base_ipc}")
        if self.mpki <= 0:
            raise ValueError(f"{self.name}: mpki must be positive")
        if not 0 <= self.write_fraction < 1:
            raise ValueError(f"{self.name}: bad write fraction")
        if self.streams < 1 or self.run_length < 1:
            raise ValueError(f"{self.name}: need streams >= 1, run_length >= 1")
        if not 0 <= self.sw_prefetch_coverage <= 1:
            raise ValueError(f"{self.name}: bad prefetch coverage")

    @property
    def continue_probability(self) -> float:
        """Chance a stream advances sequentially instead of jumping."""
        return self.run_length / (self.run_length + 1.0)


#: The twelve memory-intensive SPEC2000 programs of Table 3 (art and mcf
#: are excluded by the paper itself).
PROGRAMS: Dict[str, ProgramProfile] = {
    p.name: p
    for p in [
        ProgramProfile("wupwise", 1.9, 9.0, 0.28, 4, 10, 0.70),
        ProgramProfile("swim", 1.0, 30.0, 0.42, 6, 20, 0.80),
        ProgramProfile("mgrid", 1.5, 15.0, 0.30, 4, 13, 0.75),
        ProgramProfile("applu", 1.3, 17.0, 0.33, 5, 11, 0.70),
        ProgramProfile("vpr", 1.2, 7.0, 0.22, 2, 3, 0.30),
        ProgramProfile("equake", 0.9, 19.0, 0.28, 3, 5, 0.55),
        ProgramProfile("facerec", 1.4, 12.0, 0.22, 3, 6, 0.60),
        ProgramProfile("lucas", 1.1, 14.0, 0.25, 4, 6, 0.65),
        ProgramProfile("fma3d", 1.0, 11.0, 0.30, 3, 4, 0.45),
        ProgramProfile("parser", 1.1, 6.0, 0.28, 2, 3, 0.25),
        ProgramProfile("gap", 1.3, 9.0, 0.26, 3, 5, 0.40),
        ProgramProfile("vortex", 1.4, 8.0, 0.33, 2, 3, 0.35),
    ]
}


class SyntheticTrace:
    """Deterministic, lazy L2-miss trace for one program instance.

    Yields :class:`TraceEvent` in strictly increasing instruction order.
    Software prefetches are emitted ``sw_prefetch_distance`` instructions
    ahead of the sequential demand reads they cover, using a small
    lookahead heap to keep emission ordered.
    """

    #: Writebacks lag demand reads by this many read events, modelling the
    #: time a dirty line survives in the L2 before eviction.
    WRITEBACK_LAG = 2000

    def __init__(
        self,
        profile: ProgramProfile,
        seed: int,
        base_line: int = 0,
        software_prefetch: bool = True,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.base_line = base_line
        self.software_prefetch = software_prefetch

    def __iter__(self) -> Iterator[TraceEvent]:
        # This generator feeds every core on every simulated tick, so the
        # loop runs with everything it touches bound to locals: RNG draw
        # methods, heap primitives, profile scalars, and the TraceKind
        # members.  The draw sequence is bit-for-bit identical to the
        # original nested-closure formulation (same RNG calls in the same
        # data-dependent order), which the conformance goldens pin.
        profile = self.profile
        rng = random.Random(f"{self.seed}:{profile.name}")
        # Same double-rounding as the original 1.0 / mean_gap expression —
        # a direct mpki / 1000.0 can differ in the last ulp and derail the
        # whole pinned draw sequence.
        mean_rate = 1.0 / (1000.0 / profile.mpki)
        footprint = profile.footprint_lines
        n_streams = profile.streams
        streams: List[int] = [rng.randrange(footprint) for _ in range(n_streams)]
        writeback_queue: List[int] = []
        heap: List[Tuple[int, int, TraceKind, int]] = []
        tie = itertools.count().__next__
        horizon = profile.sw_prefetch_distance + 2
        gen_inst = 0
        last_emitted = 0

        expovariate = rng.expovariate
        rng_random = rng.random
        randrange = rng.randrange
        heappush = heapq.heappush
        heappop = heapq.heappop
        write_fraction = profile.write_fraction
        continue_probability = profile.continue_probability
        coverage = profile.sw_prefetch_coverage
        pf_distance = profile.sw_prefetch_distance
        sw_prefetch = self.software_prefetch
        base_line = self.base_line
        lag_cap = self.WRITEBACK_LAG
        trim_at = 4 * lag_cap
        kind_read = TraceKind.READ
        kind_write = TraceKind.WRITE
        kind_prefetch = TraceKind.PREFETCH
        make_event = TraceEvent

        while True:
            while not heap or heap[0][0] > gen_inst - horizon:
                gap = round(expovariate(mean_rate))
                gen_inst += gap if gap > 1 else 1
                if writeback_queue and rng_random() < write_fraction:
                    lag = len(writeback_queue)
                    if lag > lag_cap:
                        lag = lag_cap
                    heappush(
                        heap,
                        (gen_inst, tie(), kind_write, writeback_queue.pop(-lag)),
                    )
                    continue
                stream = randrange(n_streams)
                sequential = rng_random() < continue_probability
                if sequential:
                    pos = (streams[stream] + 1) % footprint
                else:
                    pos = randrange(footprint)
                streams[stream] = pos
                line = base_line + pos
                heappush(heap, (gen_inst, tie(), kind_read, line))
                writeback_queue.append(line)
                if len(writeback_queue) > trim_at:
                    del writeback_queue[:lag_cap]
                if sw_prefetch and sequential and rng_random() < coverage:
                    pf_inst = gen_inst - pf_distance
                    if pf_inst < 1:
                        pf_inst = 1
                    heappush(heap, (pf_inst, tie(), kind_prefetch, line))
            inst, _, kind, line = heappop(heap)
            if inst <= last_emitted:
                inst = last_emitted + 1
            last_emitted = inst
            yield make_event(inst, kind, line)


def make_trace(
    program: str,
    seed: int,
    core_id: int = 0,
    software_prefetch: bool = True,
) -> SyntheticTrace:
    """Build the trace for ``program`` on a given core.

    Each core gets a disjoint 4 GB slice of the physical address space
    (``core_id << 26`` cachelines), as distinct processes would.
    """
    if program not in PROGRAMS:
        raise KeyError(
            f"unknown program {program!r}; available: {sorted(PROGRAMS)}"
        )
    return SyntheticTrace(
        PROGRAMS[program],
        seed=seed + core_id * 7919,
        base_line=core_id << 26,
        software_prefetch=software_prefetch,
    )


#: What :func:`make_trace` builds a stream from.
StreamKey = Tuple[str, int, int, bool]


class StreamMemo:
    """Each :func:`make_trace` stream generated once, replayed to every run.

    A sweep runs the same programs under many configs, and a program's
    miss stream depends only on the :data:`StreamKey`, never on the
    memory system.  :meth:`trace` hands out iterators that replay the
    prefix of a stream some earlier iterator already consumed and extend
    that prefix lazily from one live :class:`SyntheticTrace` per key, so
    every iterator yields exactly what a fresh ``make_trace`` would.

    The memo keeps every event of a stream it still holds, so it lives
    as long as one batch of related runs (``repro.experiments.parallel``)
    and no longer, and :meth:`retain` lets go of the streams the next
    run will not read; a single run never needs one.
    """

    def __init__(self) -> None:
        self._streams: Dict[StreamKey, Tuple[List[TraceEvent], Iterator[TraceEvent]]] = {}

    def retain(self, programs: Sequence[str]) -> None:
        """Forget every stream that no core of ``programs`` would read.

        Runs ordered by program list keep each stream for as long as they
        need it, and the memo never holds more than a few runs' streams.
        Iterators already handed out keep working.
        """
        wanted = set(enumerate(programs))
        self._streams = {
            key: stream for key, stream in self._streams.items()
            if (key[2], key[0]) in wanted
        }

    def trace(
        self,
        program: str,
        seed: int,
        core_id: int = 0,
        software_prefetch: bool = True,
    ) -> Iterator[TraceEvent]:
        """The stream ``make_trace`` builds from the same arguments."""
        key = (program, seed, core_id, software_prefetch)
        stream = self._streams.get(key)
        if stream is None:
            source = iter(make_trace(program, seed, core_id, software_prefetch))
            stream = self._streams[key] = ([], source)
        events, source = stream
        # The list iterator replays the prefix at C speed and keeps up
        # with events another reader appends; the tail takes over at the
        # end of the prefix.
        return itertools.chain(events, _extend(events, source))


def _extend(
    events: List[TraceEvent], source: Iterator[TraceEvent]
) -> Iterator[TraceEvent]:
    """Continue a replay past the recorded prefix of ``events``.

    The body first runs when the replay of ``events`` is exhausted, so
    the reader's position starts at the prefix's length.  Another
    reader of the same stream may extend the prefix while this one is
    suspended; this one replays those events before it draws from
    ``source`` again, so a draw always lands at the end of the prefix.
    """
    index = len(events)
    append = events.append
    for event in source:
        append(event)
        index += 1
        yield event
        while index < len(events):
            yield events[index]
            index += 1
