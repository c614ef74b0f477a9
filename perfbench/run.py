"""Run one benchmark workload for a fixed time and print its metrics.

Usage::

    python3 perfbench/run.py --workload fbd-ap-8c --seed 12345 --seconds 25 --trace 0

Each trial is a fresh ``child.py`` process; trials run one at a time
(closed loop, batch work) until ``--seconds`` is used up, with at least
``MIN_TRIALS``.  End-to-end metrics are medians over the trials.  Their
host times are scaled to the reference host's speed, which each trial
measures with a fixed probe inside its timed region (``child.probing``):
a shared host runs up to 1.7x slower for seconds to minutes.  With
``--trace 1`` the untraced trials leave room for one more trial under
cProfile; the per-layer metrics come from it and from the counters every
trial reports.

Every trial's outputs are checked: the same digest and counts as the
first trial, the digest pinned in ``digests.json`` for the seed (if any),
and the cross-layer invariants.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when every trial passed.  Exit code 2 means the
benchmark could not run at all (no ``src/repro`` beside it, bad
arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from ledger import (
    BENCH_DIR,
    DEFAULT_SEED,
    LAYERS,
    ROOT,
    WORKLOADS,
    declared,
    load_spec,
    quartiles,
)

MIN_TRIALS = 3
MAX_TRIALS = 60
#: cProfile slows a trial about 3x (``trace.overhead``).
TRACED_COST = 3
#: A trial that takes longer than this is killed and counted as failed;
#: at the declared sizes a trial takes under 10 s even on a slow host.
TRIAL_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def _child(args: List[str], src: Path, result: Path) -> dict:
    """Run ``child.py`` once; the parsed result, with the spawn time and
    the parent-side wall time added, or ``{"error": ...}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(BENCH_DIR / "child.py"), "--result",
               str(result), *args]
    spawned = time.perf_counter()
    # A session of its own, so a hung trial is killed with its workers.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"trial exceeded {TRIAL_TIMEOUT_S:.0f} s"}
    except BaseException:
        # Stopped from outside (SIGTERM, ^C): stop the trial and its workers.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    exited = time.perf_counter()
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    out = json.loads(result.read_text())
    result.unlink()
    out.update(spawned=spawned, exited=exited,
               setup_s=out["region_start"] - spawned)
    return out


def load_pins() -> Dict[str, Dict[str, str]]:
    """Seed -> workload -> the digest pinned for it in ``digests.json``."""
    return json.loads((BENCH_DIR / "digests.json").read_text())


def check_trials(trials: List[dict], reference: Optional[dict],
                 pinned: Optional[str]) -> List[str]:
    """One line per failed trial; an empty list when every trial passed.

    A trial fails on a crash, a digest other than the pinned one, a digest
    or count other than the reference trial's, a broken invariant, or (the
    traced trial) profiled code in a ``src/repro`` entry that has no layer.
    """
    reference = reference or next((t for t in trials if "error" not in t), None)
    problems = []
    for index, trial in enumerate(trials):
        why = []
        if "error" in trial:
            why.append(trial["error"])
        else:
            if pinned is not None and trial["digest"] != pinned:
                why.append(f"digest {trial['digest'][:12]} != pinned {pinned[:12]}")
            if trial["digest"] != reference["digest"]:
                why.append("digest differs from the first trial")
            if trial["identity"] != reference["identity"]:
                why.append("event/request/instruction counts differ")
            why.extend(trial["invariant_failures"])
            why.extend(f"src/repro/{name} has no layer in ledger.LAYER_OF"
                       for name in trial.get("unmapped", []))
        if why:
            problems.append(f"trial {index}: " + "; ".join(why))
    return problems


def trial_values(trial: dict) -> Dict[str, float]:
    """One completed trial's end-to-end metric values; host times are in
    seconds of the reference host (``child.PROBE_REFERENCE_S``)."""
    wall_s = trial["wall_s"] * trial["host_speed"]
    return {
        "wall_s": wall_s,
        "sim_kips": trial["simulated"]["insts"] / 1000.0 / wall_s,
        "setup_s": trial["setup_s"] * trial["host_speed"],
        "peak_rss_mb": trial["peak_rss_mb"],
        **trial["sim"],
    }


def end_to_end(good: List[dict]) -> Dict[str, float]:
    """End-to-end metric medians over the trials that completed."""
    values = [trial_values(t) for t in good]
    return {name: quartiles([v[name] for v in values])[1] for name in values[0]}


def per_layer(good: List[dict], traced: dict) -> Dict[str, float]:
    """Per-layer metrics: profile shares and call counts from the traced
    trial, the other counters and host times as medians over the trials
    (the simulated counters repeat exactly, so their median is the value).
    Host times here are as measured, not scaled."""
    median_wall = quartiles([t["wall_s"] for t in good])[1]
    metrics: Dict[str, float] = {}
    profile = traced["profile"]
    total_self = sum(layer["self_s"] for layer in profile.values()) or 1.0
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = profile[layer]["self_s"] / total_self
        metrics[f"{layer}.calls"] = profile[layer]["calls"]
    metrics["trace.overhead"] = traced["wall_s"] / median_wall
    metrics["host.speed"] = quartiles([t["host_speed"] for t in good])[1]
    simulated_events = good[0]["simulated"]["events"]
    metrics["engine.events"] = simulated_events
    metrics["engine.events_per_s"] = simulated_events / median_wall
    for name in good[0]["counters"]:
        metrics[name] = quartiles([t["counters"][name] for t in good])[1]
    return metrics


def chrome_trace(trials: List[dict]) -> dict:
    """Every trial's spans as Chrome trace-event JSON, one pid per trial."""
    events = []
    origin = min(t["spawned"] for t in trials if "spawned" in t)

    def event(name: str, start: float, end: float, pid: int, cat: str) -> dict:
        return {"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6}

    for pid, trial in enumerate(trials):
        if "spawned" not in trial:
            continue
        label = "traced trial" if "profile" in trial else "trial"
        events.append(event(label, trial["spawned"], trial["exited"], pid, "trial"))
        events.append(event("setup", trial["spawned"], trial["region_start"],
                            pid, "setup"))
        events.extend(event(s["name"], s["start"], s["end"], pid, s["cat"])
                      for s in trial["spans"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            src: Path, scratch: Path, pins: Dict[str, Dict[str, str]],
            insts: int = 0) -> dict:
    """Run trials for about ``seconds``: untraced ones, then one traced
    trial if ``trace``; everything the printout and the suite need."""
    workload = WORKLOADS[workload_name]
    started = time.perf_counter()
    base = ["--workload", workload_name, "--seed", str(seed)]
    if insts:
        base += ["--insts", str(insts)]
    result_path = scratch / "result.json"
    reference = None
    cache = scratch / "cache"
    if workload.warm:
        # Benchmark preparation, outside every trial: fill the cache
        # with a cold run whose tables the warm trials must reproduce.
        reference = _child(base + ["--cache", str(cache)], src, result_path)
        if "error" in reference:
            raise BenchError(f"filling the run cache failed: {reference['error']}")

    def trial(extra: List[str]) -> dict:
        if workload.kind == "figures" and not workload.warm:
            shutil.rmtree(cache, ignore_errors=True)
        args = base + (["--cache", str(cache)] if workload.kind == "figures" else [])
        return _child(args + extra, src, result_path)

    # A traced trial takes about TRACED_COST times an untraced one; leave
    # room for it, and keep two untraced trials for trace.overhead.
    reserve, least = (1 + TRACED_COST, 2) if trace else (1, MIN_TRIALS)
    trials: List[dict] = []
    while len(trials) < MAX_TRIALS:
        elapsed = time.perf_counter() - started
        durations = [t["exited"] - t["spawned"] for t in trials if "exited" in t]
        estimate = quartiles(durations)[1] if durations else 0.0
        if len(trials) >= least and elapsed + reserve * estimate > seconds:
            break
        trials.append(trial([]))
    traced = trial(["--profile"]) if trace else None
    everything = trials + ([traced] if traced else [])
    # Digests are pinned for the declared sizes only.
    pinned = None if insts else pins.get(str(seed), {}).get(workload_name)
    problems = check_trials(everything, reference, pinned)
    good = [t for t in trials if "error" not in t]
    record = {
        "workload": workload_name,
        "seed": seed,
        "attempted": len(everything),
        "failed": len(problems),
        "problems": problems,
        "pinned": pinned is not None,
        "digest": good[0]["digest"] if good else None,
        "trials": everything,
        "end_to_end": end_to_end(good) if good else {},
        "per_layer": {},
    }
    if traced is not None and good and "error" not in traced:
        record["per_layer"] = per_layer(good, traced)
    return record


def result_line(record: dict, spec: dict, trace: bool) -> dict:
    """The contract's last output line, with metrics in declaration order."""
    section = "per_layer" if trace else "end_to_end"
    measured = record[section]
    decl = declared(spec, section)
    if measured and set(measured) != set(decl):
        raise BenchError(
            f"measured {section} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(decl) - set(measured))}, "
            f"undeclared {sorted(set(measured) - set(decl))}")
    return {
        "correct": record["failed"] == 0 and bool(measured),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": measured[name], "unit": d["unit"]}
                    for name, d in decl.items() if name in measured},
    }


def print_record(record: dict, line: dict) -> None:
    """Human-readable lines, then the JSON result line."""
    pin = "pinned, matches" if record["pinned"] and not record["failed"] else (
        "pinned" if record["pinned"] else "unpinned")
    good = sum(1 for t in record["trials"] if "error" not in t)
    print(f"workload: {record['workload']}  seed: {record['seed']}  "
          f"trials: {good} of {record['attempted']}")
    print(f"digest: {record['digest']} ({pin})")
    untraced = [t for t in record["trials"] if "error" not in t and "profile" not in t]
    if untraced:
        speed = quartiles([t["host_speed"] for t in untraced])[1]
        raw = quartiles([t["wall_s"] for t in untraced])[1]
        print(f"host speed: {speed:.3g} x reference; timed region as measured: "
              f"{raw:.4g} s")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name, metric in line["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(line), flush=True)


def scratch_dir(root: Path) -> Path:
    """A private working directory inside the checkout."""
    path = root / ".perfbench" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_scratch(path: Path) -> None:
    """Delete a scratch directory, and ``.perfbench`` once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--insts", type=int, default=0,
                        help="override instructions per core (smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be positive")
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro package under {ROOT / 'src'}")
        spec = load_spec()
        pins = load_pins()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so the running trial and scratch are removed.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    scratch = scratch_dir(ROOT)
    try:
        seconds = args.seconds or spec["run_seconds"]
        record = measure(args.workload, args.seed, seconds, bool(args.trace),
                         ROOT / "src", scratch, pins, args.insts)
        line = result_line(record, spec, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_scratch(scratch)
    print_record(record, line)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
