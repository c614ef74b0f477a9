"""Process-pool fan-out for independent simulation runs.

Every figure of the paper is a sweep of independent ``run_system`` calls;
this module runs a list of ``(SystemConfig, programs)`` pairs across a
:class:`concurrent.futures.ProcessPoolExecutor`.  A pool task is a batch
of runs that share one :class:`~repro.workloads.spec.StreamMemo`, so a
program's miss stream is generated once per batch, not once per run.  The
simulator is fully deterministic given its config and seed, so a worker
process produces a result bit-identical to the same run executed inline —
parallelism changes wall-clock time and nothing else (pinned by
tests/test_parallel.py).

Results are returned in *submission order* regardless of completion order,
so callers that zip them back onto their inputs stay deterministic.  The
optional ``on_result`` callback fires once per run, in completion order,
and carries each run's wall-clock seconds, which is what feeds the
experiments CLI's events/sec + ETA heartbeats for runs that happened in
another process.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.system import SimulationResult, run_system
from repro.workloads.spec import StreamMemo

#: One unit of work: the exact arguments of a ``run_system`` call.
RunPair = Tuple[SystemConfig, Tuple[str, ...]]

#: Completion callback: (index into the input pairs, result, run wall s).
ResultCallback = Callable[[int, SimulationResult, float], None]


def simulate_batch(pairs: Sequence[RunPair]) -> List[Tuple[SimulationResult, float]]:
    """Worker entry point: run a batch of pairs, each timed for the heartbeats.

    Module-level (not nested) so it pickles across the process boundary.
    """
    return list(_simulate(pairs))


def _simulate(pairs: Sequence[RunPair]) -> Iterator[Tuple[SimulationResult, float]]:
    """Run ``pairs`` in order through one :class:`StreamMemo`, yielding
    each run's result and wall seconds as it finishes.

    The memo is local to the batch, so a worker stays a pure function of
    its pickled input and the streams are freed when the batch ends.
    Before each run it drops the streams that run will not read, so
    pairs ordered by program list (:func:`_grouped`) generate each
    stream about once and keep only a few runs' streams in memory.
    """
    streams = StreamMemo()
    for config, programs in pairs:
        streams.retain(programs)
        start = time.perf_counter()  # repro: ignore[wall-clock] — heartbeat wall time
        result = run_system(config, programs, streams=streams)
        wall = time.perf_counter() - start  # repro: ignore[wall-clock] — heartbeat wall time
        yield result, wall


def _grouped(pairs: Sequence[RunPair]) -> List[int]:
    """Indices of ``pairs`` ordered by program list, so runs that read
    the same streams sit together (input order among equal lists)."""
    return sorted(range(len(pairs)), key=lambda index: pairs[index][1])


def _batches(pairs: Sequence[RunPair], jobs: int) -> List[List[int]]:
    """Cut the grouped indices of ``pairs`` into pool tasks.

    Batch sizes fall as ``ceil(remaining / (2 * jobs))``, so the last
    tasks are short and no worker idles while another finishes a long
    one.
    """
    order = _grouped(pairs)
    batches = []
    while order:
        size = -(-len(order) // (2 * jobs))
        batches.append(order[:size])
        del order[:size]
    return batches


def execute_runs(
    pairs: Sequence[RunPair],
    jobs: int = 1,
    on_result: Optional[ResultCallback] = None,
) -> List[SimulationResult]:
    """Run every pair, fanning batches out across ``jobs`` worker processes.

    ``jobs <= 1`` (or a single pair) runs every pair inline as one batch
    with no pool overhead; either way the returned list aligns
    index-for-index with ``pairs`` and ``on_result`` fires once per run.
    """
    pairs = list(pairs)
    results: List[Optional[SimulationResult]] = [None] * len(pairs)

    def finish(index: int, result: SimulationResult, wall: float) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result, wall)

    if jobs <= 1 or len(pairs) <= 1:
        order = _grouped(pairs)
        for index, (result, wall) in zip(order, _simulate([pairs[i] for i in order])):
            finish(index, result, wall)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pairs))) as pool:
            futures = {
                pool.submit(simulate_batch, [pairs[i] for i in batch]): batch
                for batch in _batches(pairs, jobs)
            }
            for future in as_completed(futures):
                for index, (result, wall) in zip(futures[future], future.result()):
                    finish(index, result, wall)
    return results  # type: ignore[return-value]
