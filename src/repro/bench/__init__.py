"""``repro.bench`` — simulator performance observability.

Three layers (see docs/BENCHMARKING.md):

* **Measurement** — :mod:`repro.bench.scenarios` names the workloads,
  :mod:`repro.bench.harness` runs them with warmup detection and
  bootstrap confidence intervals, :mod:`repro.bench.clock` isolates the
  wall-clock reads so the determinism lint stays clean.
* **Attribution** — ``repro bench profile`` drives the hierarchical
  :class:`repro.engine.profiler.EventLoopProfiler` and exports flame
  stacks / Chrome traces.
* **Trajectory** — :mod:`repro.bench.schema` defines ``BENCH_<n>.json``,
  :mod:`repro.bench.compare` gates regressions, and
  :mod:`repro.bench.report` renders the dashboard.
"""

from repro.bench.compare import NOISE_CAP, Comparison, Finding, compare_docs
from repro.bench.harness import (
    HarnessConfig,
    ScenarioResult,
    ThroughputStat,
    run_scenario,
    run_suite,
    stat_of,
)
from repro.bench.report import render_report, trajectory
from repro.bench.scenarios import SCENARIOS, Scenario, ScenarioRun, resolve_scenarios
from repro.bench.schema import (
    BENCH_FORMAT,
    BENCH_VERSION,
    bench_path,
    build_bench_doc,
    list_bench_files,
    load_bench,
    machine_fingerprint,
    next_bench_index,
    save_bench,
    validate_bench,
)
from repro.bench.stats import bootstrap_ci, detect_warmup, relative_width

__all__ = [
    "BENCH_FORMAT",
    "BENCH_VERSION",
    "Comparison",
    "Finding",
    "HarnessConfig",
    "NOISE_CAP",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "ScenarioRun",
    "ThroughputStat",
    "bench_path",
    "bootstrap_ci",
    "build_bench_doc",
    "compare_docs",
    "detect_warmup",
    "list_bench_files",
    "load_bench",
    "machine_fingerprint",
    "next_bench_index",
    "relative_width",
    "render_report",
    "resolve_scenarios",
    "run_scenario",
    "run_suite",
    "save_bench",
    "stat_of",
    "trajectory",
    "validate_bench",
]
