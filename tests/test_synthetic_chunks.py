"""Growing generator chunks: the same events, less materialised unread.

The synthetic generators fill chunks of :data:`FIRST_CHUNK_EVENTS`
doubling to :data:`CHUNK_EVENTS`.  Draws happen in event order, so every
generator must yield exactly what the fixed-chunk generators frozen in
``tests/_legacy_synthetic.py`` yield, and a short reader must leave
little materialised that it never reads.
"""

from itertools import islice

import pytest

import repro.workloads.synthetic as synthetic
import tests._legacy_synthetic as legacy
from repro.workloads.synthetic import (
    CHUNK_EVENTS,
    FIRST_CHUNK_EVENTS,
    GENERATORS,
    SyntheticSpec,
)

SPECS = [
    SyntheticSpec(),
    SyntheticSpec(gap_insts=12, write_fraction=0.3, footprint_lines=1000,
                  seed=7),
    SyntheticSpec(gap_insts=1, write_fraction=0.9, footprint_lines=1,
                  seed=123456789),
    SyntheticSpec(gap_insts=500, footprint_lines=1 << 30, seed=0),
]
#: Reads ending inside the first chunk, on and just past chunk borders,
#: and past several full-size chunks.
LENGTHS = [1, 63, 64, 65, 448, 449, 1984, 1985, 5000]


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("spec", SPECS, ids=range(len(SPECS)))
def test_events_equal_the_fixed_chunk_generators(name, spec):
    fresh = GENERATORS[name](spec, base_line=3)
    frozen = legacy.GENERATORS[name](spec, base_line=3)
    assert list(islice(fresh, max(LENGTHS))) == list(
        islice(frozen, max(LENGTHS)))


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("n", LENGTHS)
def test_events_materialised_unread_are_bounded(monkeypatch, name, n):
    made = []
    real = synthetic.TraceEvent

    def counted(*fields):
        made.append(None)
        return real(*fields)

    monkeypatch.setattr(synthetic, "TraceEvent", counted)
    events = list(islice(GENERATORS[name](SyntheticSpec(seed=5)), n))
    assert len(events) == n
    unread = len(made) - n
    assert 0 <= unread <= min(max(2 * n, FIRST_CHUNK_EVENTS), CHUNK_EVENTS), (
        unread)
