"""``repro bench profile`` — a hierarchical event-loop profile of one run.

Usage::

    repro bench profile [--workload 4C-1] [--top 15] [--flame out.folded]

Also reachable as ``python -m repro.bench profile``.  Exit codes: 0 ok,
2 usage or I/O error (matching ``repro.check`` and ``repro.trace``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.__main__ import _build_config, _programs
    from repro.engine.profiler import EventLoopProfiler, parse_collapsed
    from repro.system import System

    programs = _programs(args.workload)
    config = _build_config(args, args.system)
    machine = System(config, programs)
    profiler = EventLoopProfiler()
    machine.sim.profiler = profiler
    machine.run()
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
    from repro.dram.devices import device_names

    sub = parser.add_subparsers(dest="bench_command", required=True)
    prof_p = sub.add_parser(
        "profile", help="hierarchical event-loop profile of one run"
    )
    prof_p.add_argument("--workload", default="4C-1")
    prof_p.add_argument("--system", choices=("ddr2", "fbd", "fbd-ap"),
                        default="fbd-ap")
    prof_p.add_argument("--insts", type=int, default=50_000)
    prof_p.add_argument("--seed", type=int, default=12345)
    prof_p.add_argument("--no-sw-prefetch", action="store_true")
    prof_p.add_argument("--device", choices=device_names(),
                        default="ddr2-667",
                        help="DRAM device generation preset")
    prof_p.add_argument("--k", type=int, default=4)
    prof_p.add_argument("--entries", type=int, default=64)
    prof_p.add_argument("--assoc",
                        choices=("direct", "2way", "4way", "full"),
                        default="full")
    prof_p.add_argument("--top", type=int, default=15,
                        help="callback sites to list")
    prof_p.add_argument("--flame", default=None, metavar="PATH",
                        help="write collapsed-stack flame file")
    prof_p.set_defaults(func=cmd_profile)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Profile the simulator's event loop.",
    )
    configure_parser(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
