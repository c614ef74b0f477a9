"""One benchmark trial in a fresh process: set up, run the timed region,
check the outputs, and write what was measured as JSON.

``run.py`` starts this script once per trial with ``src`` on PYTHONPATH
and reads the JSON it writes to ``--result``.  The parent takes the set-up
time from the moment it spawned this process, so interpreter start and
``import repro`` count as set-up.  The timed region is ``System.run`` for a
single-run workload, and plan + prefetch + render for a figures workload.
A fixed host-speed probe runs every ``PROBE_INTERVAL_S`` inside it (see
:func:`probing`); the trial reports the region's time without the probes
and the host's speed, from which the parent scales its host times.

Everything here measures from outside: spans around the public calls the
trial makes, a timing ``RunCache`` subclass, and cProfile switched on only
around the timed region when ``--profile`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import dataclasses
import hashlib
import heapq
import json
import pstats
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ledger import FIGURES_JOBS, LAYERS, WORKLOADS, Workload, layer_of

#: Window fields whose sum over all windows equals the run total
#: (the timeline's conservation law).
_CONSERVED = (
    "demand_reads", "sw_prefetch_reads", "writes", "amb_hits", "bytes_read",
    "bytes_written", "demand_latency_sum_ps", "activates", "column_reads",
    "column_writes", "refreshes", "row_hits", "row_misses",
    "prefetched_lines", "idle_ps", "powerdown_ps",
)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: CPU seconds ``_probe_work`` takes on the reference host: the 2-CPU
#: x86_64 VM the benchmark was sized on, when no other tenant slowed it.
PROBE_REFERENCE_S = 0.0015
#: The probe runs this often inside the timed region (about 4% of it).
PROBE_INTERVAL_S = 0.04


class _Bank:
    __slots__ = ("open_row", "ready")

    def __init__(self) -> None:
        self.open_row = -1
        self.ready = 0

    def access(self, row: int, now: int) -> int:
        latency = 15 if row == self.open_row else 45
        self.open_row = row
        self.ready = max(now, self.ready) + latency
        return self.ready


def _probe_work() -> None:
    """Fixed pure-Python work shaped like the simulator's hot path (an
    event heap of tuples, slotted objects, method calls, dict updates)
    and its result handling (a JSON round trip)."""
    banks = [_Bank() for _ in range(8)]
    heap = [(i, i, i & 7) for i in range(16)]
    counts: Dict[int, int] = {}
    x, seq = 1, 16
    for _ in range(1500):
        now, _seq, bank = heapq.heappop(heap)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        done = banks[bank].access((x >> 8) & 63, now)
        counts[x & 255] = counts.get(x & 255, 0) + 1
        seq += 1
        heapq.heappush(heap, (done, seq, x & 7))
    json.loads(json.dumps([{"id": i, "t": [i, 2.5]} for i in range(60)]))


def probe(spans: "Spans") -> None:
    """Run ``_probe_work`` once as a ``probe`` span that also holds the CPU
    time it took (``cpu_s``).  The work never changes, so its CPU time
    measures how fast the host runs, not the code under test.  CPU time,
    not wall time, because in a figures-cold trial the probe also waits
    for a CPU that a worker holds."""
    start, cpu = time.perf_counter(), time.thread_time()
    _probe_work()
    cpu = time.thread_time() - cpu
    spans.add("host probe", start, time.perf_counter(), "probe")["cpu_s"] = cpu


@contextlib.contextmanager
def probing(spans: "Spans", on: bool) -> Iterator[None]:
    """Run :func:`probe` every ``PROBE_INTERVAL_S`` while the body runs.

    Other tenants of a shared host slow it by up to 1.7x, for anything
    from a fraction of a second to a minute; a probe taken inside the
    timed region sees the same slowdowns as the code it times.  Off for a
    profiled trial, where the probe's calls would count in ``other``.
    """
    if not on:
        yield
        return
    previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: probe(spans))
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Spans:
    """Named host-time intervals kept in memory (perf_counter seconds)."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def add(self, name: str, start: float, end: float, cat: str) -> dict:
        record = {"name": name, "start": start, "end": end, "cat": cat}
        self.records.append(record)
        return record

    def total(self, cat: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["cat"] == cat)

    def count(self, cat: str) -> int:
        return sum(1 for r in self.records if r["cat"] == cat)


# ----------------------------------------------------------------------
# Single-run workloads
# ----------------------------------------------------------------------


def build_config(workload: Workload, seed: int) -> Tuple[object, List[str]]:
    """The workload's SystemConfig and program list for ``seed``."""
    from repro import config as presets
    from repro.workloads.multiprog import workload_programs

    programs = workload_programs(workload.mix)
    config = getattr(presets, workload.preset)(num_cores=len(programs))
    if workload.observed:
        config = (
            config.with_timeline(window_ns=1000.0)
            .with_prefetch(lifecycle=True)
            .with_faults(error_rate=1e-2)
        )
    config = dataclasses.replace(
        config, instructions_per_core=workload.insts, seed=seed,
        check_protocol=workload.observed,
    )
    return config, programs


def single_trial(workload: Workload, seed: int, profiler: Optional[cProfile.Profile],
                 spans: Spans) -> Tuple[str, list, Dict[str, int], Dict[str, float]]:
    """Time ``System.run`` of the workload's one system."""
    from repro.system import System

    config, programs = build_config(workload, seed)
    system = System(config, programs)
    start = time.perf_counter()
    with probing(spans, profiler is None):
        if profiler is not None:
            profiler.enable()
        result = system.run()
        if profiler is not None:
            profiler.disable()
    spans.add("region", start, time.perf_counter(), "region")
    digest = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    simulated = {"insts": sum(result.core_instructions),
                 "events": result.events_fired}
    return digest, [result], simulated, runner_metrics(spans)


def runner_metrics(spans: Spans, fresh_runs: int = 0, disk_hits: int = 0,
                   worker_busy_s: float = 0.0, cache_bytes: int = 0) -> Dict[str, float]:
    """The experiment runner's per-layer metrics; all zero for a trial
    that does not go through it."""
    prefetch_s = spans.total("prefetch")
    return {
        "runner.plan_s": spans.total("plan"),
        "runner.prefetch_s": prefetch_s,
        "runner.render_s": spans.total("render"),
        "runner.fresh_runs": fresh_runs,
        "runner.disk_hits": disk_hits,
        "parallel.worker_busy_s": worker_busy_s,
        "parallel.utilisation": (
            worker_busy_s / (FIGURES_JOBS * prefetch_s) if prefetch_s > 0 else 0.0
        ),
        "runcache.load_s": spans.total("load"),
        "runcache.store_s": spans.total("store"),
        "runcache.loads": spans.count("load"),
        "runcache.stores": spans.count("store"),
        "runcache.bytes": cache_bytes,
    }


# ----------------------------------------------------------------------
# Figures workloads
# ----------------------------------------------------------------------


def _timing_cache(root: Path, spans: Spans) -> object:
    """A RunCache that records a span and the entry size of every load and
    store, and keeps every result it returned or was given."""
    from repro.experiments.runcache import RunCache

    class TimingRunCache(RunCache):
        def __init__(self, root: Path) -> None:
            super().__init__(root)
            self.bytes = 0
            self.results: Dict[str, object] = {}  # loaded or stored, by key
            self.stored: List[object] = []  # simulated by the context

        def load(self, key):
            start = time.perf_counter()
            result = super().load(key)
            spans.add("runcache.load", start, time.perf_counter(), "load")
            if result is not None:
                self.results[key] = result
                self.bytes += self.path_for(key).stat().st_size
            return result

        def store(self, key, result):
            start = time.perf_counter()
            path = super().store(key, result)
            spans.add("runcache.store", start, time.perf_counter(), "store")
            self.results[key] = result
            self.stored.append(result)
            self.bytes += path.stat().st_size
            return path

    return TimingRunCache(root)


def _count_inline_runs(simulated: Dict[str, int], inline: Dict[int, object]) -> None:
    """Wrap ``System.run`` so runs simulated in this process are counted
    (the validation experiment builds systems outside the run cache)."""
    from repro.system import System

    original = System.run

    def counted_run(self):
        result = original(self)
        inline[id(result)] = result  # kept alive, so the id stays unique
        simulated["insts"] += sum(result.core_instructions)
        simulated["events"] += result.events_fired
        return result

    System.run = counted_run


def figures_trial(workload: Workload, seed: int, profiler: Optional[cProfile.Profile],
                  spans: Spans, cache_dir: Path
                  ) -> Tuple[str, list, Dict[str, int], Dict[str, float]]:
    """Time plan, prefetch and render of every paper table, as
    ``python -m repro.experiments all --quick`` does them."""
    from repro.experiments import ExperimentContext
    from repro.experiments.__main__ import EXPERIMENTS, PLANS

    simulated = {"insts": 0, "events": 0}
    inline: Dict[int, object] = {}
    busy = [0.0]
    cache = _timing_cache(cache_dir, spans)
    _count_inline_runs(simulated, inline)

    def on_progress(progress) -> None:
        busy[0] += progress.wall_s

    ctx = ExperimentContext(
        instructions=workload.insts, seed=seed, quick=True,
        progress=on_progress, jobs=FIGURES_JOBS, cache=cache,
    )
    start = time.perf_counter()
    with probing(spans, profiler is None):
        if profiler is not None:
            profiler.enable()
        pairs = [pair for name in sorted(EXPERIMENTS) for pair in PLANS[name](ctx)]
        planned = time.perf_counter()
        ctx.prefetch(pairs)
        prefetched = time.perf_counter()
        texts = []
        for name in sorted(EXPERIMENTS):
            began = time.perf_counter()
            texts.extend(table.format() for table in EXPERIMENTS[name](ctx))
            spans.add(f"render.{name}", began, time.perf_counter(), "render")
        if profiler is not None:
            profiler.disable()
    spans.add("region", start, time.perf_counter(), "region")
    spans.add("plan", start, planned, "plan")
    spans.add("prefetch", planned, prefetched, "prefetch")

    # Results simulated by a worker arrive unpickled, outside the wrapper.
    for result in cache.stored:
        if id(result) not in inline:
            simulated["insts"] += sum(result.core_instructions)
            simulated["events"] += result.events_fired
    digest = hashlib.sha256("\n\n".join(texts).encode()).hexdigest()
    results = [cache.results[key] for key in sorted(cache.results)]
    runner = runner_metrics(spans, ctx.fresh_runs, ctx.disk_hits, busy[0],
                            cache.bytes)
    return digest, results, simulated, runner


# ----------------------------------------------------------------------
# What every trial reports
# ----------------------------------------------------------------------


def invariant_failures(results: list) -> List[str]:
    """Broken cross-layer laws over every result the trial produced."""
    from repro.prefetch.lifecycle import conservation_delta

    failures = []
    for index, result in enumerate(results):
        mem = result.mem
        where = f"run {index} ({'+'.join(result.programs)})"
        if conservation_delta(mem) != 0:
            failures.append(f"{where}: prefetch lifecycle does not conserve")
        if mem.faults_corrupted != mem.faults_retried_ok + mem.faults_dropped:
            failures.append(f"{where}: corrupted != retried_ok + dropped")
        if result.timeline is not None:
            for name in _CONSERVED:
                total = sum(getattr(w, name) for w in result.timeline.windows)
                if total != getattr(mem, name):
                    failures.append(f"{where}: timeline {name} sum != run total")
        if result.config.check_protocol and result.protocol_violations != []:
            failures.append(f"{where}: protocol checker not clean")
    return failures


def simulated_metrics(results: list) -> Tuple[Dict[str, float], Dict[str, float], dict]:
    """(end-to-end sim_* values, exact per-layer counters, identity counts),
    summed over the results; ratios are recomputed from the summed counts."""
    from repro.analysis.utilisation import utilisation_summary
    from repro.power.energy import CommandEnergyModel

    def total(name: str) -> int:
        return sum(getattr(r.mem, name) for r in results)

    def core_total(name: str) -> int:
        return sum(getattr(s, name) for r in results for s in r.core_stats)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runs = len(results)
    insts = sum(sum(r.core_instructions) for r in results)
    reads = total("demand_reads") + total("sw_prefetch_reads")
    writes = total("writes")
    energy = CommandEnergyModel()
    sim = {
        "sim_ipc": ratio(sum(sum(r.core_ipcs) for r in results), runs),
        "sim_read_latency_ns": ratio(
            total("demand_latency_sum_ps") / 1000.0, total("demand_reads")),
        "sim_bandwidth_gbs": ratio(
            sum(r.utilized_bandwidth_gbs for r in results), runs),
        "sim_dram_energy_per_kinst": ratio(
            1000.0 * sum(energy.energy_of(r.mem) for r in results), insts),
    }
    counters = {
        "cpu.demand_misses": core_total("demand_misses"),
        "cpu.rob_stalls": core_total("rob_stalls"),
        "cpu.mshr_stalls": core_total("mshr_stalls"),
        "controller.reads": reads,
        "controller.writes": writes,
        "controller.queue_wait_ns": ratio(
            total("queue_delay_sum_ps") / 1000.0, reads + writes),
        "controller.row_hit_rate": ratio(
            total("row_hits"), total("row_hits") + total("row_misses")),
        "dram.activates": total("activates"),
        "dram.column_accesses": total("column_accesses"),
        "dram.refreshes": total("refreshes"),
        "dram.faw_stall_ns": total("faw_stall_ps") / 1000.0,
        "channel.bytes_read": total("bytes_read"),
        "channel.bytes_written": total("bytes_written"),
        "channel.busy_frac": ratio(sum(
            utilisation_summary(r.mem)["mean_link_busy_fraction"]
            for r in results), runs),
        "prefetch.issued": total("prefetched_lines"),
        "prefetch.amb_hits": total("amb_hits"),
        "prefetch.coverage": ratio(total("amb_hits"), reads),
        "prefetch.efficiency": ratio(total("amb_hits"), total("prefetched_lines")),
        "prefetch.accuracy": ratio(total("pf_used"), total("pf_issued")),
        "faults.corrupted": total("faults_corrupted"),
        "faults.retried_ok": total("faults_retried_ok"),
        "faults.dropped": total("faults_dropped"),
        "faults.retry_latency_ns": total("fault_retry_latency_ps") / 1000.0,
        "timeline.windows": sum(
            len(r.timeline.windows) for r in results if r.timeline is not None),
    }
    identity = {
        "runs": runs,
        "events": sum(r.events_fired for r in results),
        "requests": reads + writes,
        "instructions": insts,
    }
    return sim, counters, identity


def profile_by_layer(profiler: cProfile.Profile) -> Tuple[Dict[str, dict], List[str]]:
    """cProfile self time and call counts summed per layer, plus any
    top-level ``repro`` entries the layer table does not name."""
    import repro

    repro_root = Path(repro.__file__).resolve().parent
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    unmapped = set()
    for (filename, _line, _func), (_cc, calls, self_s, _cum, _callers) in (
        pstats.Stats(profiler).stats.items()
    ):
        layer, missing = layer_of(filename, repro_root)
        if missing:
            unmapped.add(missing)
        layers[layer]["self_s"] += self_s
        layers[layer]["calls"] += calls
    return layers, sorted(unmapped)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any worker it reaped, in MB
    (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--cache", type=Path, help="run-cache directory (figures)")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--insts", type=int, default=0,
                        help="override the workload's instructions per core")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.insts:
        workload = dataclasses.replace(workload, insts=args.insts)
    profiler = cProfile.Profile() if args.profile else None
    spans = Spans()
    if workload.kind == "single":
        digest, results, simulated, runner = single_trial(
            workload, args.seed, profiler, spans)
    else:
        digest, results, simulated, runner = figures_trial(
            workload, args.seed, profiler, spans, args.cache)
    probe(spans)  # one more, so a region shorter than the interval has one
    region = next(r for r in spans.records if r["cat"] == "region")
    probes = [r for r in spans.records if r["cat"] == "probe"]
    mean_cpu = sum(r["cpu_s"] for r in probes) / len(probes)
    sim, counters, identity = simulated_metrics(results)
    out = {
        "digest": digest,
        "region_start": region["start"],
        # The timed region without the probes that ran inside it.
        "wall_s": region["end"] - region["start"] - sum(
            r["end"] - r["start"] for r in probes[:-1]),
        "host_speed": (PROBE_REFERENCE_S / mean_cpu) ** workload.host_sensitivity,
        "simulated": simulated,
        "sim": sim,
        "counters": {**counters, **runner},
        "identity": identity,
        "invariant_failures": invariant_failures(results),
        "spans": spans.records,
        "peak_rss_mb": peak_rss_mb(),
    }
    if profiler is not None:
        out["profile"], out["unmapped"] = profile_by_layer(profiler)
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
