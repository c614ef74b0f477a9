"""The stream memo replays exactly what a fresh trace would generate.

``StreamMemo.trace`` must be indistinguishable from ``make_trace`` with
the same arguments, event for event, however its iterators are read:
one after another, each consuming a longer or shorter prefix than the
last, or several live at once on one stream, and after the memo let go
of a stream.  A batch of runs through ``execute_runs`` then generates
each distinct stream's events once.
"""

import collections
import dataclasses
import itertools

import pytest

from repro.config import ddr2_baseline, fbdimm_amb_prefetch, fbdimm_baseline
from repro.experiments.parallel import _batches, execute_runs
from repro.system import run_system
from repro.workloads.spec import PROGRAMS, StreamMemo, SyntheticTrace, make_trace

SEEDS = (1, 12345, 987654321)
CORES = (0, 3)
#: Prefix lengths consumed by successive readers: growing, shrinking,
#: growing past everything recorded so far.
PREFIXES = (40, 300, 120, 700, 5)


def take(trace, n):
    return list(itertools.islice(trace, n))


def fresh(program, seed, core_id, software_prefetch, n):
    return take(iter(make_trace(program, seed, core_id, software_prefetch)), n)


@pytest.fixture
def generated(monkeypatch):
    """Events each ``SyntheticTrace`` stream has yielded, by stream."""
    counts = collections.Counter()
    original = SyntheticTrace.__iter__

    def counting(self):
        key = (self.profile.name, self.seed, self.base_line, self.software_prefetch)
        for event in original(self):
            counts[key] += 1
            yield event

    monkeypatch.setattr(SyntheticTrace, "__iter__", counting)
    return counts


@pytest.mark.parametrize("software_prefetch", [True, False])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
class TestMemoMatchesFreshTrace:
    def test_sequential_readers_replay_a_growing_prefix(self, program, software_prefetch):
        memo = StreamMemo()  # one memo for every key: streams never mix
        for seed in SEEDS:
            for core_id in CORES:
                expected = fresh(program, seed, core_id, software_prefetch,
                                 max(PREFIXES))
                for n in PREFIXES:
                    got = take(memo.trace(program, seed, core_id, software_prefetch), n)
                    assert got == expected[:n]

    def test_live_readers_on_one_stream_read_alternately(self, program, software_prefetch):
        for seed in SEEDS:
            for core_id in CORES:
                memo = StreamMemo()
                expected = fresh(program, seed, core_id, software_prefetch, 600)
                readers = [memo.trace(program, seed, core_id, software_prefetch)
                           for _ in range(2)]
                seen = [[], []]
                # Uneven chunks, so each reader is in turn ahead of,
                # level with and behind the other.
                for step in range(60):
                    which = step % 2
                    seen[which].extend(take(readers[which], (step * 7) % 13 + 1))
                late = memo.trace(program, seed, core_id, software_prefetch)
                seen.append(take(late, 600))
                for events in seen:
                    assert events == expected[:len(events)]
                assert len(seen[2]) == 600


class TestRetain:
    def test_retain_forgets_streams_the_next_run_does_not_read(self, generated):
        memo = StreamMemo()
        expected = {p: fresh(p, 7, core, True, 200)
                    for core, p in enumerate(("swim", "vpr"))}
        live = memo.trace("vpr", 7, 1)
        assert take(live, 50) == expected["vpr"][:50]
        assert take(memo.trace("swim", 7, 0), 100) == expected["swim"][:100]
        memo.retain(("swim", "applu"))  # keeps swim on core 0 only
        generated.clear()
        assert take(memo.trace("swim", 7, 0), 200) == expected["swim"]
        assert take(live, 150) == expected["vpr"][50:]  # still readable
        assert take(memo.trace("vpr", 7, 1), 200) == expected["vpr"]
        swim, vpr = make_trace("swim", 7, 0), make_trace("vpr", 7, 1)
        # swim was extended, not generated again; vpr fed the old reader
        # and a new stream from the start.
        assert generated[("swim", swim.seed, swim.base_line, True)] == 100
        assert generated[("vpr", vpr.seed, vpr.base_line, True)] == 150 + 200


def _pairs():
    """Runs that share programs across three memory systems and both
    software-prefetch settings."""
    pairs = []
    for programs in [("swim", "vpr"), ("swim",), ("vpr", "swim"), ("swim", "vpr")]:
        for build in (ddr2_baseline, fbdimm_baseline, fbdimm_amb_prefetch):
            for software_prefetch in (True, False):
                config = dataclasses.replace(
                    build(num_cores=len(programs)),
                    instructions_per_core=3000,
                    software_prefetch=software_prefetch,
                )
                pairs.append((config, programs))
    return pairs


class TestBatchGeneratesEachStreamOnce:
    def test_inline_batch_generates_the_longest_prefix_once(self, generated):
        pairs = _pairs()
        needed = collections.Counter()
        expected = []
        for config, programs in pairs:
            generated.clear()
            expected.append(run_system(config, programs).canonical_json())
            for key, events in generated.items():
                needed[key] = max(needed[key], events)
        generated.clear()
        results = execute_runs(pairs, jobs=1)
        assert [r.canonical_json() for r in results] == expected
        assert len(needed) == 8  # swim and vpr, each on cores 0 and 1, sw-prefetch on/off
        assert generated == needed


class TestBatches:
    @pytest.mark.parametrize("jobs", [2, 3, 8])
    def test_batches_group_programs_and_shrink(self, jobs):
        pairs = [(None, programs) for programs in
                 [("b",), ("a",), ("b", "a"), ("a",), ("c",)] * 7]
        batches = _batches(pairs, jobs)
        order = [index for batch in batches for index in batch]
        assert sorted(order) == list(range(len(pairs)))
        assert [pairs[i][1] for i in order] == sorted(p for _, p in pairs)
        sizes = [len(batch) for batch in batches]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == -(-len(pairs) // (2 * jobs))
