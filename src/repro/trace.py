"""``repro trace`` — record, summarize and export memory-system traces.

Subcommands::

    repro trace record --workload 4C-1 --system fbd-ap -o run.jsonl
    repro trace summarize run.jsonl
    repro trace export run.jsonl -o run.trace.json
    repro trace export -o run.trace.json   # record + export in one

``record`` runs one simulation with a :class:`repro.telemetry.Tracer`
attached and writes the capture JSONL (request lifecycles, DRAM/frame
commands, metrics snapshot, optional timeline windows and event-loop
profile).  ``export`` renders a capture as Chrome trace-event JSON —
open it in Perfetto or ``chrome://tracing`` — and schema-validates the
result; given no capture file it records one first using the same run
flags as ``record``.  Also reachable as ``python -m repro.trace``.
Exit codes: 0 ok, 1 schema problems in an export, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys

from repro.__main__ import add_run_args, build_machine
from repro.telemetry.export import (
    TelemetryCapture,
    build_capture,
    load_capture,
    save_capture,
    summarize_capture,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.spans import Tracer


def record_capture(args: argparse.Namespace) -> TelemetryCapture:
    """Run one traced simulation and assemble its capture."""
    machine = build_machine(args, tracer=Tracer(max_requests=args.max_requests),
                            profile=args.profile)
    result = machine.run()
    return build_capture(machine, result)


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


def _add_record_args(parser: argparse.ArgumentParser) -> None:
    """The run knobs plus what ``record`` and ``export`` capture."""
    add_run_args(parser)
    parser.add_argument("--max-requests", type=int, default=200_000,
                        help="request-trace recording bound")
    parser.add_argument("--profile", action="store_true",
                        help="also profile the event loop by callback site")
    parser.add_argument("--timeline-ns", type=float, default=None,
                        metavar="NS",
                        help="also record the windowed timeline, queue "
                             "depth included (window length in sim-time ns)")


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the trace subcommands to ``parser`` (the ``trace`` node)."""
    sub = parser.add_subparsers(dest="trace_command", required=True)

    rec_p = sub.add_parser("record", help="run one traced simulation")
    _add_record_args(rec_p)
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
    _add_record_args(exp_p)
    exp_p.add_argument("-o", "--out", default="trace.json",
                       help="Chrome trace JSON path")
    exp_p.set_defaults(func=cmd_export)


if __name__ == "__main__":
    from repro.__main__ import main

    sys.exit(main(["trace", *sys.argv[1:]]))
