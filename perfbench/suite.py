"""The whole benchmark in one command, its result document, and A/B runs.

Usage::

    python3 perfbench/suite.py run [--seed S] [--workloads a,b] [--trace]
                                   [--trace-out DIR] [--out FILE]
    python3 perfbench/suite.py validate FILE...
    python3 perfbench/suite.py compare BASE NEW
    python3 perfbench/suite.py ab REV [--workloads a,b] [--pairs 10]

``run`` measures each workload for ``run_seconds`` of BENCHMARK.json as
``run.py --trace 0`` does and, with ``--trace``, once more as
``run.py --trace 1`` does.  It prints every metric with its unit
and writes a version-2 ``repro-bench`` document: per workload the median,
quartiles, samples and n of each end-to-end metric, and the per-layer
metrics.  Exit code 1 if any trial failed its checks.

``validate`` schema-checks version-2 documents; version-1 documents (the
``BENCH_<n>.json`` trajectory) go to ``repro.bench``'s own validator.

``compare`` applies each end-to-end metric's bound from BENCHMARK.json and
prints one row per workload.  Exit code 1 on any regression.

``ab`` exports REV's ``src`` with ``git archive`` and runs paired trials of
it against the working tree with this benchmark code, alternating which
side runs first.  Per workload and metric it prints each side's median
and quartiles, the share of pairs the working tree won, and a verdict
(see :func:`verdict`).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import run
from ledger import (
    DEFAULT_SEED,
    ROOT,
    WORKLOADS,
    declared,
    load_spec,
    paired_wins,
    quartiles,
    spread,
    summary,
    worse_by,
)

DOC_FORMAT = "repro-bench"
DOC_VERSION = 2


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------


def machine() -> Dict[str, object]:
    """Where the numbers were taken."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def workload_entry(records: List[dict], spec: dict) -> dict:
    """One workload's part of the v2 document: end-to-end metrics from the
    untraced run, per-layer metrics from the traced one (if any)."""
    e2e = declared(spec, "end_to_end")
    layer = declared(spec, "per_layer")
    samples = [run.trial_values(t) for t in records[0]["trials"] if "error" not in t]
    return {
        "digest": records[0]["digest"],
        "pinned": records[0]["pinned"],
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "problems": [p for r in records for p in r["problems"]],
        "end_to_end": {
            name: {"unit": e2e[name]["unit"],
                   **summary([s[name] for s in samples])}
            for name in e2e if samples
        },
        "per_layer": {
            name: {"unit": layer[name]["unit"], "value": value}
            for name, value in records[-1]["per_layer"].items()
        },
    }


def workload_names(arg: str) -> List[str]:
    """The comma-separated ``--workloads`` value, all when empty."""
    names = arg.split(",") if arg else list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workload(s) {unknown}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        raise SystemExit(2)
    return names


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = workload_names(args.workloads)
    seconds = spec["run_seconds"]
    pins = run.load_pins()
    doc = {
        "format": DOC_FORMAT,
        "version": DOC_VERSION,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "machine": machine(),
        "seed": args.seed,
        "run_seconds": seconds,
        "trace": args.trace,
        "workloads": {},
    }
    failed = False
    for name in names:
        print(f"\n== {name} ==")
        records = []
        for trace in (False, True)[:1 + args.trace]:
            scratch = run.scratch_dir(ROOT)
            try:
                record = run.measure(name, args.seed, seconds, trace, ROOT / "src",
                                     scratch, pins)
            finally:
                run.remove_scratch(scratch)
            line = run.result_line(record, spec, trace)
            run.print_record(record, line)
            failed = failed or not line["correct"]
            records.append(record)
        if args.trace_out is not None:
            args.trace_out.mkdir(parents=True, exist_ok=True)
            (args.trace_out / f"{name}-seed{args.seed}.trace.json").write_text(
                json.dumps(run.chrome_trace(records[-1]["trials"])))
        doc["workloads"][name] = workload_entry(records, spec)
    problems = validate_v2(doc, spec)
    if problems:
        print("\n".join(f"invalid document: {p}" for p in problems), file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_v2(doc: object, spec: dict) -> List[str]:
    """Problems with a version-2 document (empty when valid)."""
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    problems = []
    if doc.get("format") != DOC_FORMAT or doc.get("version") != DOC_VERSION:
        problems.append(f"expected format {DOC_FORMAT!r} version {DOC_VERSION}")
    for key, kind in (("machine", dict), ("seed", int), ("workloads", dict)):
        if not isinstance(doc.get(key), kind):
            problems.append(f"{key}: missing or not {kind.__name__}")
    if problems:
        return problems
    if not doc["workloads"]:
        problems.append("workloads: empty")
    e2e = declared(spec, "end_to_end")
    layer = declared(spec, "per_layer")
    for name, entry in doc["workloads"].items():
        where = f"workloads.{name}"
        if name not in WORKLOADS:
            problems.append(f"{where}: unknown workload")
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("attempted", "failed"):
            if not isinstance(entry.get(key), int) or entry[key] < 0:
                problems.append(f"{where}.{key}: not a count")
        metrics = entry.get("end_to_end")
        if not isinstance(metrics, dict) or set(metrics) != set(e2e):
            problems.append(f"{where}.end_to_end: must hold exactly the declared metrics")
            continue
        for metric, stat in metrics.items():
            problems.extend(_check_summary(f"{where}.end_to_end.{metric}", stat))
        layers = entry.get("per_layer")
        if not isinstance(layers, dict) or (layers and set(layers) != set(layer)):
            problems.append(f"{where}.per_layer: must be empty or hold exactly "
                            "the declared metrics")
            continue
        for metric, value in layers.items():
            if not isinstance(value, dict) or not _is_number(value.get("value")):
                problems.append(f"{where}.per_layer.{metric}: no numeric value")
    return problems


def _check_summary(where: str, stat: object) -> List[str]:
    if not isinstance(stat, dict):
        return [f"{where}: not an object"]
    samples = stat.get("samples")
    if not isinstance(samples, list) or not samples or not all(
            _is_number(s) for s in samples):
        return [f"{where}.samples: need a non-empty list of numbers"]
    if stat.get("n") != len(samples):
        return [f"{where}.n: does not match the samples"]
    if not all(_is_number(stat.get(k)) for k in ("median", "q1", "q3")):
        return [f"{where}: median/q1/q3 missing"]
    q1, median, q3 = quartiles(samples)
    if (stat["q1"], stat["median"], stat["q3"]) != (q1, median, q3):
        return [f"{where}: median/quartiles do not match the samples"]
    return []


def cmd_validate(args: argparse.Namespace) -> int:
    spec = load_spec()
    bad = False
    for path in args.files:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            problems = [f"unreadable: {exc}"]
        else:
            if isinstance(doc, dict) and doc.get("version") == 1:
                sys.path.insert(0, str(ROOT / "src"))
                from repro.bench.schema import validate_bench

                problems = validate_bench(doc)
            else:
                problems = validate_v2(doc, spec)
        bad = bad or bool(problems)
        print(f"{path}: {'ok' if not problems else 'INVALID'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# compare and ab
# ----------------------------------------------------------------------


def verdict(better: str, bound: float, base: List[float], new: List[float],
            paired: bool) -> str:
    """How ``new`` stands against ``base`` for one metric.

    * ``regression``: the new median is worse by more than the bound.
    * ``unresolved``: the base runs spread wider than the bound, unless
      every new run beats every base run.
    * ``gain`` (paired runs only): the new side won at least 9 of 10
      pairs and the medians differ by more than the base's quartile gap.
    * ``no-regression``: otherwise.
    """
    q1, base_median, q3 = quartiles(base)
    new_median = quartiles(new)[1]
    worse = worse_by(better, base_median, new_median)
    all_better = all(worse_by(better, b, n) < 0 for b in base for n in new)
    if paired:
        wins, pairs = paired_wins(better, base, new)
        if wins >= 0.9 * pairs and worse < 0 and abs(
                new_median - base_median) > q3 - q1:
            return "gain"
    if worse > bound:
        return "regression"
    if spread(base) > bound and not all_better:
        return "unresolved"
    return "no-regression"


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    e2e = declared(spec, "end_to_end")
    docs = []
    for path in (args.base, args.new):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            return 2
        problems = validate_v2(doc, spec)
        if problems:
            print(f"{path}: invalid: {problems[0]}", file=sys.stderr)
            return 2
        docs.append(doc)
    base, new = docs
    regressed = False
    print(f"{'workload':18s} {'verdict':14s} change of each median vs base")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"{name:18s} {'missing':14s}")
            continue
        changes, verdicts = [], []
        for metric, decl in e2e.items():
            b = base["workloads"][name]["end_to_end"][metric]
            n = new["workloads"][name]["end_to_end"][metric]
            v = verdict(decl["better"], decl["bound"], b["samples"], n["samples"],
                        paired=False)
            verdicts.append(v)
            change = worse_by(decl["better"], b["median"], n["median"])
            flag = {"regression": "!", "unresolved": "?"}.get(v, "")
            changes.append(f"{metric} {-change:+.1%}{flag}")
        overall = next((v for v in ("regression", "unresolved") if v in verdicts),
                       "no-regression")
        regressed = regressed or overall == "regression"
        print(f"{name:18s} {overall:14s} " + ", ".join(changes))
    print("(+ is better; ! worse than the bound; ? base spread wider than the bound)")
    return 1 if regressed else 0


def export_rev(rev: str, into: Path) -> Path:
    """``src`` of a git revision, unpacked under ``into``; its path."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        capture_output=True, text=True, check=True).stdout.strip()
    target = into / f"rev-{sha[:12]}"
    target.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    # Compile now, so the parent's first trial does not pay for it in set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(target / "src")],
                   check=True)
    return target / "src"


def cmd_ab(args: argparse.Namespace) -> int:
    spec = load_spec()
    e2e = declared(spec, "end_to_end")
    names = workload_names(args.workloads)
    pins = run.load_pins()
    scratch = run.scratch_dir(ROOT)
    try:
        try:
            parent_src = export_rev(args.rev, scratch)
        except subprocess.CalledProcessError as exc:
            print(f"cannot export {args.rev!r}: {exc}", file=sys.stderr)
            return 2
        sides = {"parent": parent_src, "change": ROOT / "src"}
        failed = False
        for name in names:
            values: Dict[str, Dict[str, List[float]]] = {s: {} for s in sides}
            for pair in range(args.pairs):
                order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
                for side in order:
                    # A run cache of its own, so no side reads the other's.
                    work = scratch / f"{side}-{pair}"
                    work.mkdir()
                    try:
                        record = run.measure(name, DEFAULT_SEED + pair,
                                             spec["run_seconds"], False,
                                             sides[side], work, pins)
                    finally:
                        shutil.rmtree(work, ignore_errors=True)
                    if not record["end_to_end"]:
                        print(f"{name}: every {side} trial failed: "
                              f"{record['problems'][0]}", file=sys.stderr)
                        return 1
                    failed = failed or record["failed"] > 0
                    for metric, value in record["end_to_end"].items():
                        values[side].setdefault(metric, []).append(value)
            print(f"\n== {name}: {args.pairs} pairs, change = working tree, "
                  f"parent = {args.rev} ==")
            for metric, decl in e2e.items():
                base, new = values["parent"][metric], values["change"][metric]
                wins, pairs = paired_wins(decl["better"], base, new)
                print(f"{metric:28s} parent {_quartile_text(base)}  change "
                      f"{_quartile_text(new)}  won {wins}/{pairs}  "
                      f"{verdict(decl['better'], decl['bound'], base, new, True)}")
    finally:
        run.remove_scratch(scratch)
    return 1 if failed else 0


def _quartile_text(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="measure every workload and write a v2 document")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workloads", default="", help="comma-separated (default all)")
    p.add_argument("--trace", action="store_true",
                   help="one more traced trial per workload for per-layer metrics")
    p.add_argument("--trace-out", type=Path, metavar="DIR")
    p.add_argument("--out", type=Path, metavar="FILE")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate", help="schema-check result documents")
    p.add_argument("files", nargs="+", type=Path)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="apply the bounds of BENCHMARK.json")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ab", help="paired runs against a git revision")
    p.add_argument("rev")
    p.add_argument("--workloads", default="")
    p.add_argument("--pairs", type=int, default=10,
                   help="pair i runs seed 12345 + i on both sides")
    p.set_defaults(func=cmd_ab)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
