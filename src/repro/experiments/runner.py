"""Shared harness for the paper's experiments.

:class:`ExperimentContext` owns the knobs every figure shares (instruction
budget, seed, workload subset) and memoises :func:`repro.system.run_system`
calls by ``(config, programs)`` so that figures reusing each other's runs —
Figure 5 reads Figure 4's, Figure 10 reads Figure 7's — don't re-simulate.

The SMT-speedup reference points are the twelve programs' IPCs on the
single-core DDR2 system (Section 5.2), computed lazily and cached.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig, ddr2_baseline
from repro.system import SimulationResult, run_system
from repro.workloads.multiprog import SINGLE_CORE, workloads_by_cores


@dataclass
class ResultTable:
    """A printable experiment result: ordered columns, one dict per row."""

    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, **values: object) -> None:
        """Append a row; keys must match the declared columns."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key: object) -> Dict[str, object]:
        """The first row whose ``key_column`` equals ``key``."""
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r}")

    def format(self) -> str:
        """Fixed-width text rendering, suitable for EXPERIMENTS.md."""

        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        header = [str(c) for c in self.columns]
        body = [[fmt(row.get(c, "")) for c in self.columns] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass(frozen=True)
class RunProgress:
    """What one completed simulation contributed, for heartbeat callbacks."""

    runs: int  # distinct simulations so far (this one included)
    total_events: int  # events fired across all of them
    wall_s: float  # wall-clock seconds of this run
    events: int  # events fired by this run
    programs: Tuple[str, ...]


class ExperimentContext:
    """Run cache plus shared experiment parameters.

    The in-memory memo is a read-through layer over an optional persistent
    :class:`~repro.experiments.runcache.RunCache`: a run is recalled from
    memory first, then from disk, and only simulated when both miss (every
    fresh result is written back to disk).  Independent runs can be fanned
    out across worker processes with :meth:`prefetch`.

    Args:
        instructions: Per-core instruction budget of every run.  The paper
            uses 100 M-instruction SimPoints; the synthetic traces reach
            stable rates far sooner, so the default keeps the whole
            evaluation laptop-fast.  Increase for tighter numbers.
        seed: Workload generation seed.
        quick: When true, each multi-core group is represented by a subset
            of its workloads (the benchmark harness uses this).
        progress: Called with a :class:`RunProgress` after every fresh
            (non-cached) simulation — the experiments CLI uses it for
            heartbeats.  Must not mutate the context.
        trace_dir: When set, every fresh run records a telemetry capture
            into ``trace_dir/run-NNN-<programs>.jsonl``.  Tracing hooks
            live in-process, so a tracing context always runs serially.
        jobs: Worker processes for :meth:`prefetch` (1 = inline).
        cache: Persistent run cache — a ``RunCache``, a directory path to
            create one at, or None (default) for no disk cache.

    Raises ``ValueError`` for ``instructions < 1`` and ``OSError`` when
    the cache directory cannot be created, before any run is planned.
    """

    def __init__(
        self,
        instructions: int = 40_000,
        seed: int = 12345,
        quick: bool = False,
        progress: Optional[Callable[[RunProgress], None]] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        jobs: int = 1,
        cache: Optional[Union[str, Path, "RunCache"]] = None,
    ) -> None:
        if instructions < 1:
            raise ValueError(f"instructions must be >= 1, got {instructions}")
        self.instructions = instructions
        self.seed = seed
        self.quick = quick
        self.progress = progress
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.jobs = max(1, int(jobs))
        if isinstance(cache, (str, Path)):
            from repro.experiments.runcache import RunCache

            cache = RunCache(cache)
        if cache is not None:
            cache.root.mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self.total_events = 0
        self.fresh_runs = 0  # simulations actually executed
        self.disk_hits = 0  # runs recalled from the persistent cache
        self._cache: Dict[Tuple[SystemConfig, Tuple[str, ...]], SimulationResult] = {}
        self._reference: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------

    def run(self, config: SystemConfig, programs: Sequence[str]) -> SimulationResult:
        """Run (or recall) one simulation with the context's budget/seed."""
        config = self._normalize(config)
        key = (config, tuple(programs))
        if key not in self._cache:
            disk_key = self._disk_key(config, key[1])
            result = self._load_from_disk(disk_key)
            if result is None:
                result = self._run_fresh(config, key[1])
                self._store_to_disk(disk_key, result)
            self._cache[key] = result
        return self._cache[key]

    def prefetch(self, pairs: Sequence[Tuple[SystemConfig, Sequence[str]]]) -> Dict[str, int]:
        """Warm the memo for a batch of runs, fanning misses out in parallel.

        Every figure module exposes ``plan(ctx)`` returning the pairs its
        ``run(ctx)`` will request; prefetching that plan first lets the
        figure's own (serial, order-dependent) arithmetic be served entirely
        from the memo.  Returns how each pair was satisfied:
        ``{"memo": .., "disk": .., "fresh": ..}``.
        """
        missing: List[Tuple[SystemConfig, Tuple[str, ...]]] = []
        disk_keys: List[Optional[str]] = []
        queued = set()
        counts = {"memo": 0, "disk": 0, "fresh": 0}
        for config, programs in pairs:
            config = self._normalize(config)
            key = (config, tuple(programs))
            if key in self._cache:
                counts["memo"] += 1
                continue
            if key in queued:
                continue
            disk_key = self._disk_key(config, key[1])
            result = self._load_from_disk(disk_key)
            if result is not None:
                self._cache[key] = result
                counts["disk"] += 1
                continue
            queued.add(key)
            missing.append((config, key[1]))
            disk_keys.append(disk_key)
        counts["fresh"] = len(missing)
        if not missing:
            return counts
        if self.trace_dir is not None:
            for (config, programs), disk_key in zip(missing, disk_keys):
                result = self._run_fresh(config, programs)
                self._store_to_disk(disk_key, result)
                self._cache[(config, programs)] = result
            return counts

        from repro.experiments.parallel import execute_runs

        def on_result(index: int, result: SimulationResult, wall: float) -> None:
            self._store_to_disk(disk_keys[index], result)
            self._note_fresh(result, wall, missing[index][1])

        results = execute_runs(missing, jobs=self.jobs, on_result=on_result)
        for pair, result in zip(missing, results):
            self._cache[pair] = result
        return counts

    def _normalize(self, config: SystemConfig) -> SystemConfig:
        return dataclasses.replace(
            config, instructions_per_core=self.instructions, seed=self.seed
        )

    def _run_fresh(
        self, config: SystemConfig, programs: Tuple[str, ...]
    ) -> SimulationResult:
        start = time.perf_counter()  # repro: ignore[wall-clock] — heartbeat wall time
        result = (run_system(config, programs) if self.trace_dir is None
                  else self._run_traced(config, programs))
        wall = time.perf_counter() - start  # repro: ignore[wall-clock] — heartbeat wall time
        self._note_fresh(result, wall, programs)
        return result

    def _note_fresh(
        self, result: SimulationResult, wall: float, programs: Tuple[str, ...]
    ) -> None:
        """Book-keeping shared by inline and worker-process completions."""
        self.fresh_runs += 1
        self.total_events += result.events_fired
        if self.progress is not None:
            self.progress(
                RunProgress(
                    runs=self.fresh_runs,
                    total_events=self.total_events,
                    wall_s=wall,
                    events=result.events_fired,
                    programs=programs,
                )
            )

    def _disk_key(
        self, config: SystemConfig, programs: Tuple[str, ...]
    ) -> Optional[str]:
        """The run's cache key, built once per run (None without a cache)."""
        if self.cache is None:
            return None
        from repro.experiments.runcache import run_key

        return run_key(config, programs)

    def _load_from_disk(self, disk_key: Optional[str]) -> Optional[SimulationResult]:
        if self.cache is None or disk_key is None:
            return None
        result = self.cache.load(disk_key)
        if result is not None:
            self.disk_hits += 1
        return result

    def _store_to_disk(self, disk_key: Optional[str], result: SimulationResult) -> None:
        if self.cache is not None and disk_key is not None:
            self.cache.store(disk_key, result)

    def _run_traced(
        self, config: SystemConfig, programs: Tuple[str, ...]
    ) -> SimulationResult:
        from repro.system import System
        from repro.telemetry import Tracer, build_capture, save_capture

        assert self.trace_dir is not None
        machine = System(config, programs, tracer=Tracer())
        result = machine.run()
        capture = build_capture(machine, result)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        stem = f"run-{self.fresh_runs:03d}-{'+'.join(programs)}"
        save_capture(self.trace_dir / f"{stem}.jsonl", capture)
        return result

    @property
    def runs_executed(self) -> int:
        """Simulations actually executed (cache hits excluded)."""
        return self.fresh_runs

    # ------------------------------------------------------------------

    def workloads_for(self, cores: int) -> List[str]:
        """Workload names for a core count, honouring ``quick`` mode."""
        names = workloads_by_cores(cores)
        if self.quick:
            limit = 4 if cores == 1 else 2
            names = names[:limit]
        return names

    def programs_of(self, workload: str) -> List[str]:
        from repro.workloads.multiprog import workload_programs

        return workload_programs(workload)

    # ------------------------------------------------------------------

    def reference_plan(self) -> List[Tuple[SystemConfig, Tuple[str, ...]]]:
        """The runs behind :meth:`reference_ipcs`, for :meth:`prefetch`.

        Any figure plan whose ``run`` computes SMT speedups should include
        these, since the first speedup triggers all twelve reference runs.
        """
        return [(ddr2_baseline(num_cores=1), (p,)) for p in SINGLE_CORE]

    def reference_ipcs(self) -> Dict[str, float]:
        """Per-program IPC on the single-core DDR2 system (the SMT-speedup
        denominator used throughout Section 5)."""
        if self._reference is None:
            reference: Dict[str, float] = {}
            for program in SINGLE_CORE:
                result = self.run(ddr2_baseline(num_cores=1), [program])
                reference[program] = result.core_ipcs[0]
            self._reference = reference
        return self._reference

    def smt_speedup(self, result: SimulationResult) -> float:
        """SMT speedup of a run against the DDR2 single-core references."""
        return result.smt_speedup(self.reference_ipcs())

    def speedup_vs(
        self, config: SystemConfig, baseline: SystemConfig, workload: str
    ) -> float:
        """Ratio of SMT speedups of two configs on one workload."""
        programs = self.programs_of(workload)
        cpu_a = dataclasses.replace(config.cpu, num_cores=len(programs))
        cpu_b = dataclasses.replace(baseline.cpu, num_cores=len(programs))
        cfg_a = dataclasses.replace(config, cpu=cpu_a)
        cfg_b = dataclasses.replace(baseline, cpu=cpu_b)
        a = self.smt_speedup(self.run(cfg_a, programs))
        b = self.smt_speedup(self.run(cfg_b, programs))
        return a / b


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (the paper's group summary)."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
