"""``repro timeline`` — record, report, export, diff windowed runs.

Subcommands::

    repro timeline record --workload 4C-1 --system fbd-ap --out tl.jsonl
    repro timeline report tl.jsonl
    repro timeline export tl.jsonl --csv tl.csv [--chrome tl-trace.json]
    repro timeline diff base.jsonl ap.jsonl --labels base,ap

Also reachable as ``python -m repro.timeline``.  Exit codes follow the
repo convention: 0 ok, 1 failed validation / mismatched diff grids,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.__main__ import _build_config, add_run_args, build_machine
from repro.timeline.diff import diff_timelines, format_diff
from repro.timeline.export import (
    read_timeline_jsonl,
    validate_timeline,
    write_timeline_csv,
    write_timeline_jsonl,
)
from repro.timeline.report import timeline_report


def cmd_record(args: argparse.Namespace) -> int:
    config = _build_config(args, args.system).with_timeline(
        window_ns=args.window_ns
    )
    result = build_machine(args, config).run()
    timeline = result.timeline
    assert timeline is not None  # with_timeline() always enables
    issues = validate_timeline(timeline)
    meta = {
        "system": args.system,
        "workload": args.workload,
        "insts": args.insts,
        "seed": args.seed,
        "elapsed_ps": result.elapsed_ps,
    }
    write_timeline_jsonl(timeline, args.out, meta=meta)
    print(f"[{len(timeline.windows)} windows -> {args.out}]")
    if args.csv:
        write_timeline_csv(timeline, args.csv)
        print(f"[csv -> {args.csv}]")
    print(timeline_report(
        timeline, label=f"{args.system} / {args.workload}"
    ))
    if issues:
        print("validation FAILED:", file=sys.stderr)
        for issue in issues:
            print(f"  {issue}", file=sys.stderr)
        return 1
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    timeline, header = read_timeline_jsonl(args.path)
    meta = header.get("meta") or {}
    label = None
    if isinstance(meta, dict) and meta.get("system"):
        label = f"{meta.get('system')} / {meta.get('workload', '?')}"
    print(timeline_report(timeline, width=args.width, label=label))
    issues = validate_timeline(timeline)
    if issues:
        print("validation FAILED:", file=sys.stderr)
        for issue in issues:
            print(f"  {issue}", file=sys.stderr)
        return 1
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    if not args.csv and not args.chrome:
        print("error: pass --csv and/or --chrome", file=sys.stderr)
        return 2
    timeline, header = read_timeline_jsonl(args.path)
    if args.csv:
        write_timeline_csv(timeline, args.csv)
        print(f"[csv: {len(timeline.windows)} rows -> {args.csv}]")
    if args.chrome:
        from pathlib import Path

        from repro.serialize import encode_value
        from repro.telemetry.export import TelemetryCapture, chrome_trace

        meta = header.get("meta") or {}
        capture = TelemetryCapture(
            meta=dict(meta) if isinstance(meta, dict) else {},
            timeline=[encode_value(w) for w in timeline.windows],
        )
        doc = chrome_trace(capture)
        Path(args.chrome).write_text(json.dumps(doc) + "\n", encoding="utf-8")
        print(f"[chrome trace: {len(doc['traceEvents'])} events"
              f" -> {args.chrome}]")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    label_a, label_b = "A", "B"
    if args.labels:
        parts = args.labels.split(",")
        if len(parts) != 2:
            print("error: --labels wants exactly two comma-separated names",
                  file=sys.stderr)
            return 2
        label_a, label_b = parts
    timeline_a, _ = read_timeline_jsonl(args.a)
    timeline_b, _ = read_timeline_jsonl(args.b)
    try:
        diff = diff_timelines(timeline_a, timeline_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_diff(diff, timeline_a, timeline_b, label_a, label_b,
                      width=args.width))
    return 0


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the timeline subcommands to ``parser`` (the ``timeline`` node)."""
    sub = parser.add_subparsers(dest="timeline_command", required=True)

    record_p = sub.add_parser(
        "record", help="run one system with the timeline on and save JSONL"
    )
    add_run_args(record_p)
    record_p.add_argument("--window-ns", type=float, default=1000.0,
                          help="timeline window length in sim-time ns")
    record_p.add_argument("--out", default="timeline.jsonl",
                          help="JSONL output path")
    record_p.add_argument("--csv", default=None, help="also write a CSV")
    record_p.set_defaults(func=cmd_record)

    report_p = sub.add_parser("report", help="render a recorded timeline")
    report_p.add_argument("path")
    report_p.add_argument("--width", type=int, default=60,
                          help="sparkline width in characters")
    report_p.set_defaults(func=cmd_report)

    export_p = sub.add_parser(
        "export", help="convert a recorded timeline to CSV / Chrome trace"
    )
    export_p.add_argument("path")
    export_p.add_argument("--csv", default=None)
    export_p.add_argument("--chrome", default=None,
                          help="Chrome trace-event JSON with counter tracks")
    export_p.set_defaults(func=cmd_export)

    diff_p = sub.add_parser(
        "diff", help="align two recorded timelines window-by-window"
    )
    diff_p.add_argument("a")
    diff_p.add_argument("b")
    diff_p.add_argument("--labels", default=None,
                        help="two comma-separated run names, e.g. base,ap")
    diff_p.add_argument("--width", type=int, default=60)
    diff_p.set_defaults(func=cmd_diff)

