"""Process-pool fan-out for independent simulation runs.

Every figure of the paper is a sweep of independent ``run_system`` calls;
this module runs a batch of ``(SystemConfig, programs)`` pairs across a
:class:`concurrent.futures.ProcessPoolExecutor`.  The simulator is fully
deterministic given its config and seed, so a worker process produces a
result bit-identical to the same run executed inline — parallelism changes
wall-clock time and nothing else (pinned by tests/test_parallel.py).

Results are returned in *submission order* regardless of completion order,
so callers that zip them back onto their inputs stay deterministic.  The
optional ``on_result`` callback fires in completion order and carries each
worker's wall-clock seconds, which is what feeds the experiments CLI's
events/sec + ETA heartbeats for runs that happened in another process.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.system import SimulationResult, run_system

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.registry import MetricsRegistry

#: One unit of work: the exact arguments of a ``run_system`` call.
RunPair = Tuple[SystemConfig, Tuple[str, ...]]

#: Completion callback: (index into the input batch, result, worker wall s).
ResultCallback = Callable[[int, SimulationResult, float], None]


def simulate_one(pair: RunPair) -> Tuple[SimulationResult, float]:
    """Worker entry point: run one pair, timing it for the heartbeats.

    Module-level (not nested) so it pickles across the process boundary.
    """
    config, programs = pair
    start = time.perf_counter()  # repro: ignore[wall-clock] — heartbeat wall time
    result = run_system(config, programs)
    wall = time.perf_counter() - start  # repro: ignore[wall-clock] — heartbeat wall time
    return result, wall


def execute_runs(
    pairs: Sequence[RunPair],
    jobs: int = 1,
    on_result: Optional[ResultCallback] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> List[SimulationResult]:
    """Run every pair, fanning out across ``jobs`` worker processes.

    ``jobs <= 1`` (or a single pair) runs inline with no pool overhead;
    either way the returned list aligns index-for-index with ``pairs``.

    When ``metrics`` is given, every run's counters and histograms are
    folded into it (via :func:`repro.telemetry.registry_from_stats` and
    ``MetricsRegistry.merge``) in submission order, so per-worker metrics
    aggregate deterministically instead of being dropped at the process
    boundary.  Fan-out order never changes the merged snapshot.
    """
    pairs = list(pairs)
    results: List[Optional[SimulationResult]] = [None] * len(pairs)
    if jobs <= 1 or len(pairs) <= 1:
        for index, pair in enumerate(pairs):
            result, wall = simulate_one(pair)
            results[index] = result
            if on_result is not None:
                on_result(index, result, wall)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pairs))) as pool:
            futures = {
                pool.submit(simulate_one, pair): index
                for index, pair in enumerate(pairs)
            }
            for future in as_completed(futures):
                index = futures[future]
                result, wall = future.result()
                results[index] = result
                if on_result is not None:
                    on_result(index, result, wall)
    if metrics is not None:
        aggregate_metrics(results, metrics)  # type: ignore[arg-type]
    return results  # type: ignore[return-value]


def aggregate_metrics(
    results: Sequence[SimulationResult],
    registry: Optional["MetricsRegistry"] = None,
) -> "MetricsRegistry":
    """Merge every run's stats into one registry, in the given order.

    Counters sum and latency histograms merge bucket-wise across runs;
    gauges (derived point-in-time quantities) keep the last run's value —
    recompute aggregates from the merged counters where it matters.
    """
    from repro.telemetry.registry import MetricsRegistry, registry_from_stats

    merged = registry if registry is not None else MetricsRegistry()
    for result in results:
        merged.merge(registry_from_stats(result.mem))
    return merged
