"""Differential and coverage tests for parallel experiment execution.

Two hard guarantees are pinned here byte-for-byte on canonical JSON:

* serial and ``jobs=4`` executions of the same runs are identical, and
* a result recalled from the persistent cache is identical to a fresh one.

The plan-coverage section checks, for every figure module, that the runs
``run(ctx)`` actually requests are a subset of what ``plan(ctx)`` declared
— i.e. prefetching the plan leaves nothing to simulate serially.
"""

import dataclasses

import pytest

from repro.config import (
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.cpu.core import CoreStats
from repro.experiments import (
    ablations,
    fig04_smt_speedup,
    fig05_bw_latency,
    fig06_bandwidth_impact,
    fig07_amb_speedup,
    fig08_coverage,
    fig09_decomposition,
    fig10_bw_latency_ap,
    fig11_sensitivity,
    fig12_sw_prefetch,
    fig13_power,
    hw_prefetch,
    prefetch_location,
)
from repro.experiments.parallel import execute_runs
from repro.experiments.runner import ExperimentContext, RunProgress
from repro.stats.collector import MemSystemStats
from repro.system import SimulationResult, run_system

INSTS = 2000


def _fig07_subset():
    """A small slice of Figure 7: FBD and FBD-AP on two one-core programs."""
    pairs = []
    for program in ("swim", "vpr"):
        pairs.append((fbdimm_baseline(num_cores=1), (program,)))
        pairs.append((fbdimm_amb_prefetch(num_cores=1), (program,)))
    return pairs


class TestDifferential:
    def test_parallel_results_are_byte_identical_to_serial(self):
        pairs = _fig07_subset()
        serial = ExperimentContext(instructions=INSTS)
        expected = [serial.run(c, p).canonical_json() for c, p in pairs]

        parallel = ExperimentContext(instructions=INSTS, jobs=4)
        counts = parallel.prefetch(pairs)
        assert counts == {"memo": 0, "disk": 0, "fresh": len(pairs)}
        actual = [parallel.run(c, p).canonical_json() for c, p in pairs]
        assert actual == expected
        # the prefetch really did all the work; run() added nothing
        assert parallel.fresh_runs == len(pairs)

    def test_cached_results_are_byte_identical_to_fresh(self, tmp_path):
        pairs = _fig07_subset()
        writer = ExperimentContext(instructions=INSTS, cache=tmp_path, jobs=2)
        writer.prefetch(pairs)
        fresh = [writer.run(c, p).canonical_json() for c, p in pairs]

        reader = ExperimentContext(instructions=INSTS, cache=tmp_path)
        recalled = [reader.run(c, p).canonical_json() for c, p in pairs]
        assert recalled == fresh
        assert reader.fresh_runs == 0
        assert reader.disk_hits == len(pairs)

    def test_execute_runs_preserves_submission_order(self):
        pairs = _fig07_subset()
        inline = [run_system(config, programs) for config, programs in pairs]
        pooled = execute_runs(pairs, jobs=2)
        assert [r.canonical_json() for r in pooled] == [
            r.canonical_json() for r in inline
        ]

    def test_on_result_callback_sees_every_run(self):
        pairs = _fig07_subset()
        seen = []
        execute_runs(pairs, jobs=2, on_result=lambda i, r, w: seen.append(i))
        assert sorted(seen) == list(range(len(pairs)))


def _dispatcher_edge_pairs():
    """Configs that ride every edge the PR-8 dispatcher rewrite touched.

    DDR2 exercises the bus-prune guards and same-tick kick fast path on
    the simple channel; faulted FBD-AP cancels and re-arms wake events
    while links degrade and recover (the cancellation-heavy path through
    the fused run loop and heap compaction); the protocol-checked run
    hangs extra observers off the identical schedule.
    """
    faulted = fbdimm_amb_prefetch(num_cores=2).with_faults(
        error_rate=5e-2, max_retries=3
    )
    checked = dataclasses.replace(
        fbdimm_baseline(num_cores=2), check_protocol=True
    )
    return [
        (ddr2_baseline(num_cores=2), ("swim", "vpr")),
        (faulted, ("wupwise", "swim")),
        (checked, ("vpr", "wupwise")),
    ]


class TestBatchedDispatcherDifferential:
    """The rewritten engine (handle-free scheduling, fused GC-suppressed
    run loop, kick fast path) must be invisible to every execution mode:
    worker processes, the in-process serial path and the disk cache all
    replay byte-identical results on dispatcher-stressing configs."""

    def test_worker_processes_replay_the_same_schedule(self):
        pairs = _dispatcher_edge_pairs()
        serial = ExperimentContext(instructions=INSTS)
        expected = [serial.run(c, p).canonical_json() for c, p in pairs]

        parallel = ExperimentContext(instructions=INSTS, jobs=4)
        counts = parallel.prefetch(pairs)
        assert counts == {"memo": 0, "disk": 0, "fresh": len(pairs)}
        actual = [parallel.run(c, p).canonical_json() for c, p in pairs]
        assert actual == expected

    def test_cached_edge_runs_are_byte_identical_to_fresh(self, tmp_path):
        pairs = _dispatcher_edge_pairs()
        writer = ExperimentContext(instructions=INSTS, cache=tmp_path, jobs=4)
        writer.prefetch(pairs)
        fresh = [writer.run(c, p).canonical_json() for c, p in pairs]

        reader = ExperimentContext(instructions=INSTS, cache=tmp_path)
        recalled = [reader.run(c, p).canonical_json() for c, p in pairs]
        assert recalled == fresh
        assert reader.fresh_runs == 0
        assert reader.disk_hits == len(pairs)

    def test_events_fired_counts_survive_worker_round_trip(self):
        """events_fired is part of the digest: the exact event schedule —
        not just the measured statistics — must cross process boundaries."""
        pairs = _dispatcher_edge_pairs()
        inline = [run_system(config, programs) for config, programs in pairs]
        pooled = execute_runs(pairs, jobs=4)
        assert [r.events_fired for r in pooled] == [
            r.events_fired for r in inline
        ]
        assert all(r.events_fired > 0 for r in pooled)


class TestMemoKey:
    def test_memo_key_is_field_values_not_identity(self):
        """Regression: replace()-derived equal configs must share one run."""
        ctx = ExperimentContext(instructions=INSTS)
        base = fbdimm_baseline(num_cores=1)
        derived = dataclasses.replace(base, software_prefetch=True)
        assert derived is not base and derived == base
        a = ctx.run(base, ["swim"])
        b = ctx.run(derived, ("swim",))
        assert a is b
        assert ctx.runs_executed == 1

    def test_normalisation_makes_budget_fields_irrelevant(self):
        ctx = ExperimentContext(instructions=INSTS)
        a = ctx.run(fbdimm_baseline(num_cores=1), ("swim",))
        shifted = dataclasses.replace(
            fbdimm_baseline(num_cores=1), instructions_per_core=999_999, seed=7
        )
        assert ctx.run(shifted, ("swim",)) is a
        assert ctx.runs_executed == 1

    def test_prefetch_deduplicates_and_reports_sources(self, tmp_path):
        pairs = _fig07_subset()
        ctx = ExperimentContext(instructions=INSTS, cache=tmp_path)
        counts = ctx.prefetch(pairs + pairs)  # duplicates collapse
        assert counts["fresh"] == len(pairs)
        counts = ctx.prefetch(pairs)
        assert counts == {"memo": len(pairs), "disk": 0, "fresh": 0}

    def test_progress_fires_for_worker_runs(self):
        beats = []
        ctx = ExperimentContext(
            instructions=INSTS, jobs=2, progress=beats.append
        )
        ctx.prefetch(_fig07_subset())
        assert len(beats) == len(_fig07_subset())
        assert all(isinstance(b, RunProgress) for b in beats)
        assert [b.runs for b in beats] == [1, 2, 3, 4]
        assert all(b.wall_s >= 0 and b.events > 0 for b in beats)


# ---------------------------------------------------------------------------
# plan() coverage: every run a figure performs must appear in its plan.


def _fake_result(config: SystemConfig, programs) -> SimulationResult:
    cores = config.cpu.num_cores
    mem = MemSystemStats(
        demand_reads=1000,
        sw_prefetch_reads=100,
        writes=200,
        amb_hits=300,
        prefetched_lines=800,
        read_latency_sum_ps=50_000_000,
        demand_latency_sum_ps=40_000_000,
        queue_delay_sum_ps=1_000_000,
        bytes_read=64_000,
        bytes_written=12_800,
        activates=400,
        column_accesses=1600,
        row_hits=100,
        row_misses=300,
        first_activity_ps=0,
        last_activity_ps=1_000_000_000,
    )
    return SimulationResult(
        config=config,
        programs=list(programs),
        elapsed_ps=1_000_000_000,
        core_instructions=[INSTS] * cores,
        core_ipcs=[1.0] * cores,
        core_stats=[CoreStats() for _ in range(cores)],
        mem=mem,
        events_fired=1,
    )


class _PlanRecorder(ExperimentContext):
    """Context whose simulations are free, recording what was requested."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.requested = set()

    def _run_fresh(self, config, programs):
        self.requested.add((config, programs))
        return _fake_result(config, programs)


# latency_breakdown and validation drive System/controller objects directly
# (their plans are empty by design), so they are not meaningful here.
FIGURES = [
    ("fig04", fig04_smt_speedup.plan, [fig04_smt_speedup.run]),
    ("fig05", fig05_bw_latency.plan, [fig05_bw_latency.run]),
    ("fig06", fig06_bandwidth_impact.plan, [fig06_bandwidth_impact.run]),
    ("fig07", fig07_amb_speedup.plan, [fig07_amb_speedup.run]),
    ("fig08", fig08_coverage.plan, [fig08_coverage.run]),
    ("fig09", fig09_decomposition.plan, [fig09_decomposition.run]),
    ("fig10", fig10_bw_latency_ap.plan, [fig10_bw_latency_ap.run]),
    ("fig11", fig11_sensitivity.plan, [fig11_sensitivity.run]),
    ("fig12", fig12_sw_prefetch.plan, [fig12_sw_prefetch.run]),
    ("fig13", fig13_power.plan, [fig13_power.run]),
    (
        "ablations",
        ablations.plan,
        [ablations.run_vrl, ablations.run_page_interleave, ablations.run_replacement],
    ),
    ("location", prefetch_location.plan, [prefetch_location.run]),
    ("hwprefetch", hw_prefetch.plan, [hw_prefetch.run]),
]


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
@pytest.mark.parametrize(
    "plan_fn,runners", [(p, r) for _, p, r in FIGURES], ids=[n for n, _, _ in FIGURES]
)
def test_plan_covers_every_run(plan_fn, runners, quick):
    ctx = _PlanRecorder(instructions=INSTS, quick=quick)
    planned = {
        (ctx._normalize(config), tuple(programs))
        for config, programs in plan_fn(ctx)
    }
    for runner in runners:
        runner(ctx)
    uncovered = ctx.requested - planned
    assert not uncovered, (
        f"{len(uncovered)} runs not in the plan; prefetch would miss them"
    )
