"""Frozen copy of ``repro.workloads.synthetic``'s generators before their
chunks grew geometrically — a test-only oracle.

Every chunk here is ``CHUNK_EVENTS`` long.  ``test_synthetic_chunks.py``
asserts that the growing-chunk generators yield exactly these events.
Do not modernise this file: its value is being exactly the old code.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads.synthetic import SyntheticSpec
from repro.workloads.trace import TraceEvent, TraceKind

CHUNK_EVENTS = 1024

def stream(spec: SyntheticSpec = SyntheticSpec(), base_line: int = 0) -> Iterator[TraceEvent]:
    """A single perfectly sequential stream — best case for AMB prefetching
    and for channel bandwidth."""
    rng_random = random.Random(spec.seed).random
    gap = spec.gap_insts
    write_fraction = spec.write_fraction
    footprint = spec.footprint_lines
    kind_read, kind_write = TraceKind.READ, TraceKind.WRITE
    make_event = TraceEvent
    inst = 0
    line = 0
    while True:
        chunk: List[TraceEvent] = []
        append = chunk.append
        for _ in range(CHUNK_EVENTS):
            inst += gap
            kind = kind_write if rng_random() < write_fraction else kind_read
            append(make_event(inst, kind, base_line + line % footprint))
            line += 1
        yield from chunk


def uniform_random(
    spec: SyntheticSpec = SyntheticSpec(), base_line: int = 0
) -> Iterator[TraceEvent]:
    """Uniformly random lines — worst case for any prefetcher, a stress
    test for bank-level parallelism."""
    rng = random.Random(spec.seed)
    rng_random = rng.random
    randrange = rng.randrange
    gap = spec.gap_insts
    write_fraction = spec.write_fraction
    footprint = spec.footprint_lines
    kind_read, kind_write = TraceKind.READ, TraceKind.WRITE
    make_event = TraceEvent
    inst = 0
    while True:
        chunk: List[TraceEvent] = []
        append = chunk.append
        for _ in range(CHUNK_EVENTS):
            inst += gap
            kind = kind_write if rng_random() < write_fraction else kind_read
            append(make_event(inst, kind, base_line + randrange(footprint)))
        yield from chunk


def strided(
    spec: SyntheticSpec = SyntheticSpec(),
    stride_lines: int = 16,
    base_line: int = 0,
) -> Iterator[TraceEvent]:
    """Fixed-stride walk.  With a stride larger than the prefetch region,
    every access misses the AMB cache but maps to rotating banks — good for
    measuring pure bank-conflict behaviour under the interleaving schemes.
    """
    if stride_lines < 1:
        raise ValueError("stride must be >= 1 line")
    rng_random = random.Random(spec.seed).random
    gap = spec.gap_insts
    write_fraction = spec.write_fraction
    footprint = spec.footprint_lines
    kind_read, kind_write = TraceKind.READ, TraceKind.WRITE
    make_event = TraceEvent
    inst = 0
    line = 0
    while True:
        chunk: List[TraceEvent] = []
        append = chunk.append
        for _ in range(CHUNK_EVENTS):
            inst += gap
            kind = kind_write if rng_random() < write_fraction else kind_read
            append(make_event(inst, kind, base_line + line % footprint))
            line += stride_lines
        yield from chunk


def pointer_chase(
    spec: SyntheticSpec = SyntheticSpec(), base_line: int = 0
) -> Iterator[TraceEvent]:
    """Serially dependent random walk: exactly one outstanding miss.

    Modelled by spacing accesses more than a ROB window apart so the core
    can never overlap them — the measured IPC then reflects the *un-hidden*
    memory latency, which is how idle-latency microbenchmarks work.
    """
    randrange = random.Random(spec.seed).randrange
    footprint = spec.footprint_lines
    kind_read = TraceKind.READ
    make_event = TraceEvent
    inst = 0
    gap = max(spec.gap_insts, 400)  # > ROB, forbids overlap at any IPC
    while True:
        chunk: List[TraceEvent] = []
        append = chunk.append
        for _ in range(CHUNK_EVENTS):
            inst += gap
            append(make_event(inst, kind_read, base_line + randrange(footprint)))
        yield from chunk


GENERATORS = {
    "stream": stream,
    "uniform_random": uniform_random,
    "strided": strided,
    "pointer_chase": pointer_chase,
}
