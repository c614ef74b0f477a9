"""The ``BENCH_<n>.json`` performance-trajectory file format.

One BENCH file records one bench run: machine fingerprint, harness
configuration and per-scenario statistics.  Files live at the repo root
and are numbered by PR (``BENCH_5.json`` is this repo's first baseline);
together they form the perf trajectory ``repro bench report`` renders
and ``repro bench compare`` gates on.

:func:`validate_bench` is the schema check, in the same spirit as
:func:`repro.telemetry.validate_chrome_trace`: it returns a list of
problems, empty when the document is valid, and CI runs it over every
emitted file.
"""

from __future__ import annotations

import json
import os
import platform
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.harness import HarnessConfig, ScenarioResult

BENCH_FORMAT = "repro-bench"
BENCH_VERSION = 1

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

#: Per-scenario throughput statistics every BENCH file must carry.
_STAT_KEYS = ("events_per_s", "requests_per_s", "wall_s")


def machine_fingerprint() -> Dict[str, object]:
    """Where the numbers were taken; compare treats cross-machine
    throughput differences as advisory rather than gating."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def build_bench_doc(
    results: Sequence[ScenarioResult],
    config: HarnessConfig,
    index: int,
    quick: bool = False,
    timestamp: Optional[str] = None,
) -> Dict[str, object]:
    """Assemble the BENCH document for one finished suite run."""
    from repro.bench import clock

    doc: Dict[str, object] = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "index": index,
        "recorded_at": timestamp if timestamp is not None else clock.utc_timestamp(),
        "machine": machine_fingerprint(),
        "harness": {
            "quick": quick,
            "instructions": config.instructions,
            "seed": config.seed,
            "trials": config.trials,
            "warmup": config.warmup,
            "bootstrap_resamples": config.bootstrap_resamples,
        },
        "scenarios": {result.name: result.to_dict() for result in results},
    }
    return doc


def bench_path(root: Union[str, Path], index: int) -> Path:
    return Path(root) / f"BENCH_{index}.json"


def save_bench(path: Union[str, Path], doc: Dict[str, object]) -> Path:
    """Validate then write a BENCH document (refuses to write a bad one)."""
    problems = validate_bench(doc)
    if problems:
        raise ValueError(
            "refusing to write invalid BENCH document: " + "; ".join(problems[:5])
        )
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    return path


def load_bench(path: Union[str, Path]) -> Dict[str, object]:
    """Load and schema-validate a BENCH file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not readable as JSON: {exc}") from exc
    problems = validate_bench(doc)
    if problems:
        raise ValueError(f"{path}: invalid BENCH file: " + "; ".join(problems[:5]))
    return doc


def list_bench_files(root: Union[str, Path]) -> List[Tuple[int, Path]]:
    """(index, path) of every BENCH_<n>.json under ``root``, ascending."""
    found = []
    for path in Path(root).iterdir():
        match = _BENCH_NAME.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def next_bench_index(root: Union[str, Path]) -> int:
    """One past the highest BENCH_<n>.json index under ``root``, or 1 when
    there is none: a new run never overwrites an existing point."""
    found = list_bench_files(root)
    return found[-1][0] + 1 if found else 1


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


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
