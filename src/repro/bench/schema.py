"""The version-1 ``BENCH_<n>.json`` document format.

Version-1 documents were written by the scenario harness this package
used to hold; ``perfbench/`` writes version 2 and keeps its own schema.
What stays here is the version-1 validator, which
``python3 perfbench/suite.py validate`` applies to any version-1
document it is given.

:func:`validate_bench` returns a list of problems, empty when the
document is valid, in the same spirit as
:func:`repro.telemetry.validate_chrome_trace`.
"""

from __future__ import annotations

from typing import List

BENCH_FORMAT = "repro-bench"
BENCH_VERSION = 1

#: Per-scenario throughput statistics every BENCH file must carry.
_STAT_KEYS = ("events_per_s", "requests_per_s", "wall_s")


def _check_stat(where: str, stat: object, problems: List[str]) -> None:
    if not isinstance(stat, dict):
        problems.append(f"{where}: not an object")
        return
    mean = stat.get("mean")
    ci = stat.get("ci95")
    samples = stat.get("samples")
    if not isinstance(mean, (int, float)) or mean < 0:
        problems.append(f"{where}.mean: bad value {mean!r}")
    if (
        not isinstance(ci, list)
        or len(ci) != 2
        or not all(isinstance(v, (int, float)) and v >= 0 for v in ci)
    ):
        problems.append(f"{where}.ci95: expected [lo, hi], got {ci!r}")
    elif ci[0] > ci[1]:
        problems.append(f"{where}.ci95: lo {ci[0]} > hi {ci[1]}")
    if not isinstance(samples, list) or not samples:
        problems.append(f"{where}.samples: expected non-empty list")
    elif not all(isinstance(v, (int, float)) and v >= 0 for v in samples):
        problems.append(f"{where}.samples: non-numeric or negative sample")


def validate_bench(doc: object) -> List[str]:
    """Schema-check a BENCH document; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != BENCH_FORMAT:
        problems.append(f"format: expected {BENCH_FORMAT!r}, got {doc.get('format')!r}")
    if doc.get("version") != BENCH_VERSION:
        problems.append(f"version: unsupported {doc.get('version')!r}")
    index = doc.get("index")
    if not isinstance(index, int) or index < 0:
        problems.append(f"index: bad value {index!r}")
    machine = doc.get("machine")
    if not isinstance(machine, dict) or "python" not in machine:
        problems.append("machine: missing fingerprint object")
    harness = doc.get("harness")
    if not isinstance(harness, dict):
        problems.append("harness: missing configuration object")
    else:
        for key in ("instructions", "seed", "trials", "warmup"):
            if not isinstance(harness.get(key), int):
                problems.append(f"harness.{key}: missing or non-integer")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        problems.append("scenarios: expected non-empty object")
        return problems
    for name, scenario in scenarios.items():
        where = f"scenarios[{name}]"
        if not isinstance(scenario, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("events", "requests", "simulated_ps"):
            value = scenario.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"{where}.{key}: bad value {value!r}")
        trials = scenario.get("trials")
        if not isinstance(trials, int) or trials < 1:
            problems.append(f"{where}.trials: bad value {trials!r}")
        metrics = scenario.get("metrics")
        if not isinstance(metrics, dict):
            problems.append(f"{where}.metrics: expected object")
        for key in _STAT_KEYS:
            if key not in scenario:
                problems.append(f"{where}: missing {key}")
            else:
                _check_stat(f"{where}.{key}", scenario[key], problems)
        stat = scenario.get("events_per_s")
        if isinstance(stat, dict) and isinstance(trials, int):
            samples = stat.get("samples")
            if isinstance(samples, list) and len(samples) != trials:
                problems.append(
                    f"{where}.events_per_s: {len(samples)} samples "
                    f"for {trials} trials"
                )
    return problems
