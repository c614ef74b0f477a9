"""``repro bench profile`` — a hierarchical event-loop profile of one run.

Usage::

    repro bench profile [--workload 4C-1] [--top 15] [--flame out.folded]

Also reachable as ``python -m repro.bench profile``.  Exit codes: 0 ok,
2 usage or I/O error (matching ``repro.check`` and ``repro trace``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.__main__ import add_run_args, build_machine


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.engine.profiler import parse_collapsed

    machine = build_machine(args, profile=True)
    machine.run()
    profiler = machine.sim.profiler
    assert profiler is not None  # profile=True attaches one
    print(profiler.tree_report(limit=args.top))
    if args.flame:
        lines = profiler.to_collapsed()
        text = "\n".join(lines) + ("\n" if lines else "")
        # Round-trip through the parser: a file we cannot re-read is a bug.
        parse_collapsed(text)
        try:
            Path(args.flame).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"\nflame stacks -> {args.flame} ({len(lines)} stacks; "
              f"feed to flamegraph.pl / speedscope)")
    return 0


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the bench subcommands to ``parser`` (the ``bench`` node)."""
    sub = parser.add_subparsers(dest="bench_command", required=True)
    prof_p = sub.add_parser(
        "profile", help="hierarchical event-loop profile of one run"
    )
    add_run_args(prof_p)
    prof_p.add_argument("--top", type=int, default=15,
                        help="callback sites to list")
    prof_p.add_argument("--flame", default=None, metavar="PATH",
                        help="write collapsed-stack flame file")
    prof_p.set_defaults(func=cmd_profile)
