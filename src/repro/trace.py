"""Telemetry CLI: record, summarize and export memory-system traces.

Usage::

    python -m repro.trace record --workload 4C-1 --system fbd-ap -o run.jsonl
    python -m repro.trace summarize run.jsonl
    python -m repro.trace export run.jsonl -o run.trace.json
    python -m repro.trace export -o run.trace.json   # record + export in one

``record`` runs one simulation with a :class:`repro.telemetry.Tracer`
attached and writes the capture JSONL (request lifecycles, DRAM/frame
commands, metrics snapshot, optional timeline windows and event-loop
profile).  ``export`` renders a capture as Chrome trace-event JSON —
open it in Perfetto or ``chrome://tracing`` — and schema-validates the
result; given no capture file it records one first using the same run
flags as ``record``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.telemetry import (
    TelemetryCapture,
    Tracer,
    build_capture,
    load_capture,
    save_capture,
    summarize_capture,
    validate_chrome_trace,
    write_chrome_trace,
)


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """Simulation knobs, matching ``python -m repro run``."""
    parser.add_argument("--workload", default="4C-1",
                        help="a program name or a Table 3 mix")
    parser.add_argument("--system", choices=("ddr2", "fbd", "fbd-ap"),
                        default="fbd-ap")
    parser.add_argument("--insts", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--no-sw-prefetch", action="store_true")
    parser.add_argument("--k", type=int, default=4,
                        help="region cachelines for fbd-ap")
    parser.add_argument("--entries", type=int, default=64)
    parser.add_argument("--assoc",
                        choices=("direct", "2way", "4way", "full"),
                        default="full")
    parser.add_argument("--max-requests", type=int, default=200_000,
                        help="request-trace recording bound")
    parser.add_argument("--profile", action="store_true",
                        help="also profile the event loop by callback site")
    parser.add_argument("--timeline-ns", type=float, default=None,
                        metavar="NS",
                        help="also record the windowed timeline, queue "
                             "depth included (window length in sim-time ns)")


def record_capture(args: argparse.Namespace) -> TelemetryCapture:
    """Run one traced simulation and assemble its capture."""
    from repro.__main__ import _build_config, _programs
    from repro.engine.profiler import EventLoopProfiler
    from repro.system import System

    programs = _programs(args.workload)
    config = _build_config(args, args.system)
    tracer = Tracer(max_requests=args.max_requests)
    machine = System(config, programs, tracer=tracer)
    profiler: Optional[EventLoopProfiler] = None
    if args.profile:
        profiler = EventLoopProfiler()
        machine.sim.profiler = profiler
    result = machine.run()
    return build_capture(
        result,
        tracer,
        check_events=machine.controller.collect_check_events(),
        profile=(
            profiler.to_records() + profiler.stack_records()
            if profiler is not None else None
        ),
    )


def cmd_record(args: argparse.Namespace) -> int:
    capture = record_capture(args)
    records = save_capture(args.out, capture)
    print(
        f"wrote {args.out}: {records} records "
        f"({len(capture.requests)} request traces, "
        f"{len(capture.commands)} command events)"
    )
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    capture = load_capture(args.capture)
    print(summarize_capture(capture, top_sites=args.top))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    capture = (load_capture(args.capture) if args.capture is not None
               else record_capture(args))
    doc = write_chrome_trace(args.out, capture)
    problems = validate_chrome_trace(doc)
    events = doc["traceEvents"]
    print(f"wrote {args.out}: {len(events)} trace events")  # type: ignore[arg-type]
    if problems:
        for problem in problems[:20]:
            print(f"  INVALID: {problem}", file=sys.stderr)
        print(f"{len(problems)} schema problem(s)", file=sys.stderr)
        return 1
    print("schema: OK (load it in Perfetto / chrome://tracing)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Record, summarize and export memory-system traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec_p = sub.add_parser("record", help="run one traced simulation")
    _add_run_args(rec_p)
    rec_p.add_argument("-o", "--out", default="trace-capture.jsonl",
                       help="capture JSONL path")
    rec_p.set_defaults(func=cmd_record)

    sum_p = sub.add_parser("summarize", help="digest of a capture file")
    sum_p.add_argument("capture", help="capture JSONL from 'record'")
    sum_p.add_argument("--top", type=int, default=10,
                       help="profiler sites to show")
    sum_p.set_defaults(func=cmd_summarize)

    exp_p = sub.add_parser(
        "export", help="capture (or fresh run) -> Chrome trace-event JSON"
    )
    exp_p.add_argument("capture", nargs="?", default=None,
                       help="capture JSONL; omitted = record one now")
    _add_run_args(exp_p)
    exp_p.add_argument("-o", "--out", default="trace.json",
                       help="Chrome trace JSON path")
    exp_p.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Missing/garbage capture files and unwritable outputs fail
        # cleanly: 2 = usage/IO error, matching the repro.check CLI.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
