"""Differential property suite: hand-off MSHR limiter vs the wake-all oracle.

``tests/_legacy_mshr.py`` freezes the limiter whose every release woke
every waiter to retry its dispatch, and the ``min()`` ROB window.
Hypothesis builds small multi-core ``System.from_traces`` runs whose
pools of 1-4 slots make cores block, with traces that share lines across
cores, software prefetches and writes, so another core's fill can bring a
blocked core's line into the L2 (it then merges without a slot) and a
store can take it out again.  Both systems must give the same
``canonical_json`` apart from ``mshr_stalls``, which now counts stall
episodes rather than failed retries.
"""

import dataclasses
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import tests._legacy_mshr as legacy
from repro.config import ddr2_baseline, fbdimm_amb_prefetch, fbdimm_baseline
from repro.system import System
from repro.workloads.trace import TraceEvent, TraceKind

PRESETS = {
    "fbdimm": fbdimm_baseline,
    "fbdimm-ap": fbdimm_amb_prefetch,
    "ddr2": ddr2_baseline,
}
INSTS = 1500
#: (preset, cores, data MSHRs, L2 MSHRs, hw degree, ROB) and (seed,
#: cores, shared lines, max gap) of a run in which a core waiting on its
#: data MSHRs merges with another core's prefetch when woken.  That takes
#: an L2 pool with room for prefetches while cores wait, so the property
#: draws L2 pools of 16 besides 1-4.
MERGE_CASE = (("fbdimm", 8, 2, 16, 0, 196), (0, 8, 8, 2))


def _traces(seed, cores, shared_lines, max_gap):
    """Per-core traces over one small shared line pool, strictly
    increasing in instruction order."""
    rnd = random.Random(seed)
    traces = []
    for core in range(cores):
        events, inst = [], 0
        while inst < INSTS:
            inst += rnd.randint(1, max_gap)
            roll = rnd.random()
            kind = (TraceKind.READ if roll < 0.7
                    else TraceKind.PREFETCH if roll < 0.9
                    else TraceKind.WRITE)
            if rnd.random() < 0.6:
                line = rnd.randrange(shared_lines)
            else:
                line = 10_000 * (core + 1) + rnd.randrange(1000)
            events.append(TraceEvent(inst, kind, line))
        traces.append(events)
    return traces


def _run(config, traces):
    system = System.from_traces(
        config, [list(t) for t in traces], base_ipcs=[2.0] * len(traces))
    return system.run()


def _without_mshr_stalls(result):
    raw = json.loads(result.canonical_json())
    stalls = [stats.pop("mshr_stalls") for stats in raw["core_stats"]]
    return raw, stalls


def _config(preset, cores, data, l2, hw_degree, rob):
    config = PRESETS[preset](num_cores=cores)
    return dataclasses.replace(
        config,
        cpu=dataclasses.replace(
            config.cpu, data_mshr_entries=data, l2_mshr_entries=l2,
            hw_prefetch_degree=hw_degree, rob_entries=rob),
        instructions_per_core=INSTS,
    )


@settings(max_examples=60, deadline=None)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    cores=st.integers(2, 8),
    data=st.integers(1, 4),
    l2=st.sampled_from([1, 2, 3, 4, 16]),
    hw_degree=st.sampled_from([0, 2]),
    rob=st.sampled_from([32, 196]),
    shared_lines=st.integers(4, 64),
    max_gap=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_handoff_matches_wake_all(preset, cores, data, l2, hw_degree, rob,
                                  shared_lines, max_gap, seed):
    config = _config(preset, cores, data, l2, hw_degree, rob)
    traces = _traces(seed, cores, shared_lines, max_gap)
    new, episodes = _without_mshr_stalls(_run(config, traces))
    with legacy.legacy_cores():
        old, attempts = _without_mshr_stalls(_run(config, traces))
    assert new == old
    # An episode is one or more failed attempts.
    assert all(e <= a for e, a in zip(episodes, attempts))
    assert all((e == 0) == (a == 0) for e, a in zip(episodes, attempts))


def test_differential_reaches_the_merge_wake(monkeypatch):
    """The property above reaches the path it guards: a core blocked on
    an MSHR is woken after another core's prefetch brought its line into
    the L2, and merges."""
    from repro.cpu.core import Core

    original = Core.resume
    line_in_l2 = []

    def spy(self):
        if self.blocked == "mshr":
            line_in_l2.append(self.l2.has_line(self.pending.line_addr))
        original(self)

    monkeypatch.setattr(Core, "resume", spy)
    _run(_config(*MERGE_CASE[0]), _traces(*MERGE_CASE[1]))
    assert True in line_in_l2 and False in line_in_l2


def test_mshr_stalls_count_one_per_blocking():
    """Two cores, one L2 MSHR: each blocking counts once, however many
    releases it waits through; the wake-all oracle counted each failed
    retry."""
    config = _config("fbdimm", 2, 4, 1, 0, 196)
    traces = [
        [TraceEvent(1, TraceKind.READ, 1), TraceEvent(3, TraceKind.READ, 2)],
        [TraceEvent(2, TraceKind.READ, 3)],
    ]
    result = _run(config, traces)
    with legacy.legacy_cores():
        old = _run(config, traces)
    # Core 1 blocks behind core 0's first read, then core 0 behind it:
    # the first release hands the slot to core 1 and leaves core 0
    # queued, where the oracle woke it to fail once more.
    assert [s.mshr_stalls for s in result.core_stats] == [1, 1]
    assert [s.mshr_stalls for s in old.core_stats] == [2, 1]
    assert [s.demand_misses for s in result.core_stats] == [2, 1]
