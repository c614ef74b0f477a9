"""``repro prefetch`` — lifecycle observability runs and policy listing.

Subcommands::

    repro prefetch report --workload 4C-1 --k 4 [--json] [--trace-out pf.jsonl]
    repro prefetch policies

``report`` runs the FB-DIMM + AMB-prefetch system with lifecycle
tracking enabled (``AmbPrefetchConfig.lifecycle=True``) and prints the
outcome taxonomy, the derived accuracy / coverage / pollution /
timeliness metrics, and the conservation check.  Also reachable as
``python -m repro.prefetch``.  Exit codes: 0 ok, 1 conservation
violation, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, List, Optional

from repro.prefetch.lifecycle import conservation_delta
from repro.prefetch.policy import policy_names
from repro.prefetch.report import lifecycle_report, lifecycle_summary


def _guarded(
    func: Callable[[argparse.Namespace], int],
) -> Callable[[argparse.Namespace], int]:
    """I/O and schema errors exit 2 (same contract as repro.timeline)."""

    def wrapper(args: argparse.Namespace) -> int:
        try:
            return func(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapper


def cmd_report(args: argparse.Namespace) -> int:
    from repro.__main__ import _build_config, _programs
    from repro.system import System

    config = _build_config(args, "fbd-ap")
    config = dataclasses.replace(
        config,
        memory=dataclasses.replace(
            config.memory,
            prefetch=dataclasses.replace(
                config.memory.prefetch, policy=args.policy, lifecycle=True
            ),
        ),
    )
    tracer = None
    if args.trace_out:
        from repro.telemetry import Tracer

        tracer = Tracer()
    programs = _programs(args.workload)
    machine = System(config, programs, tracer=tracer)
    result = machine.run()
    if tracer is not None:
        from repro.telemetry import build_capture, save_capture

        capture = build_capture(
            result, tracer,
            check_events=machine.controller.collect_check_events(),
        )
        records = save_capture(args.trace_out, capture)
        print(f"[trace: {records} records -> {args.trace_out}]")
    label = f"{args.workload}, K={args.k}, policy={args.policy}"
    if args.json:
        print(json.dumps(lifecycle_summary(result.mem), indent=2, sort_keys=True))
    else:
        print(lifecycle_report(result.mem, label=label))
    delta = conservation_delta(result.mem)
    if delta != 0:
        print(f"error: conservation invariant violated (delta {delta:+d})",
              file=sys.stderr)
        return 1
    return 0


def cmd_policies(_args: argparse.Namespace) -> int:
    print("registered prefetch policies (repro.prefetch.policy):")
    for name in policy_names():
        print(f"  {name}")
    return 0


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the prefetch subcommands (shared with python -m repro)."""
    sub = parser.add_subparsers(dest="prefetch_command", required=True)

    report_p = sub.add_parser(
        "report",
        help="run fbd-ap with lifecycle tracking on and print the taxonomy",
    )
    report_p.add_argument("--workload", default="4C-1")
    report_p.add_argument("--insts", type=int, default=50_000)
    report_p.add_argument("--seed", type=int, default=12345)
    report_p.add_argument("--no-sw-prefetch", action="store_true")
    report_p.add_argument("--k", type=int, default=4,
                          help="region cachelines")
    report_p.add_argument("--entries", type=int, default=64)
    report_p.add_argument("--assoc",
                          choices=("direct", "2way", "4way", "full"),
                          default="full")
    report_p.add_argument("--policy", choices=policy_names(),
                          default="region",
                          help="prefetch policy behind the PrefetchPolicy "
                               "boundary")
    report_p.add_argument("--json", action="store_true",
                          help="print the summary as JSON instead of text")
    report_p.add_argument("--trace-out", metavar="PATH", default=None,
                          help="also record a telemetry capture with "
                               "per-prefetch lifecycle spans")
    report_p.set_defaults(func=_guarded(cmd_report))

    policies_p = sub.add_parser(
        "policies", help="list registered prefetch policies"
    )
    policies_p.set_defaults(func=_guarded(cmd_policies))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.prefetch",
        description="prefetch lifecycle observability (see docs/PREFETCH.md)",
    )
    configure_parser(parser)
    args = parser.parse_args(argv)
    return args.func(args)
