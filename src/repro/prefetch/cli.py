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
import json
import sys

from repro.__main__ import _build_config, add_run_args, build_machine, save_run_capture
from repro.prefetch.lifecycle import conservation_delta
from repro.prefetch.policy import policy_names
from repro.prefetch.report import lifecycle_report, lifecycle_summary


def cmd_report(args: argparse.Namespace) -> int:
    config = _build_config(args, "fbd-ap").with_prefetch(
        policy=args.policy, lifecycle=True
    )
    tracer = None
    if args.trace_out:
        from repro.telemetry.spans import Tracer

        tracer = Tracer()
    machine = build_machine(args, config, tracer=tracer)
    result = machine.run()
    if tracer is not None:
        save_run_capture(args.trace_out, machine, result)
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
    """Attach the prefetch subcommands to ``parser`` (the ``prefetch`` node)."""
    sub = parser.add_subparsers(dest="prefetch_command", required=True)

    report_p = sub.add_parser(
        "report",
        help="run fbd-ap with lifecycle tracking on and print the taxonomy",
    )
    add_run_args(report_p, systems=())
    report_p.add_argument("--policy", choices=policy_names(),
                          default="region",
                          help="prefetch policy behind the PrefetchPolicy "
                               "boundary")
    report_p.add_argument("--json", action="store_true",
                          help="print the summary as JSON instead of text")
    report_p.add_argument("--trace-out", metavar="PATH", default=None,
                          help="also record a telemetry capture with "
                               "per-prefetch lifecycle spans")
    report_p.set_defaults(func=cmd_report)

    policies_p = sub.add_parser(
        "policies", help="list registered prefetch policies"
    )
    policies_p.set_defaults(func=cmd_policies)

