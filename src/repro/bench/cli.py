"""``repro bench`` — run, validate, compare, report, profile.

Subcommands::

    repro bench run [--quick] [--scenarios a,b] [--out BENCH_9.json]
    repro bench validate BENCH_5.json
    repro bench compare BENCH_4.json BENCH_5.json [--report diff.md]
    repro bench report [--root .] [--markdown]
    repro bench profile [--workload 4C-1] [--flame out.folded] [--chrome out.json]

Also reachable as ``python -m repro.bench``.  Exit codes: 0 ok,
1 regression / invalid schema, 2 usage or I/O error (matching
``repro.check`` and ``repro.trace``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, List, Optional

from repro.bench.compare import compare_docs
from repro.bench.harness import HarnessConfig, ScenarioResult, run_suite
from repro.bench.report import render_report
from repro.bench.schema import (
    bench_path,
    build_bench_doc,
    load_bench,
    next_bench_index,
    save_bench,
)
from repro.bench.scenarios import SCENARIOS, resolve_scenarios


def _guarded(
    func: Callable[[argparse.Namespace], int],
) -> Callable[[argparse.Namespace], int]:
    """Turn I/O and schema errors into exit code 2 regardless of whether
    the command is reached via ``python -m repro bench`` or
    ``python -m repro.bench``."""

    def wrapper(args: argparse.Namespace) -> int:
        try:
            return func(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapper


def _format_results(results: List[ScenarioResult]) -> str:
    header = (
        f"{'scenario':<20} {'events':>10} {'events/s':>12} "
        f"{'95% CI':>25} {'req/s':>10} {'wall s':>8} {'warm':>4}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        lo, hi = result.events_per_s.ci95
        lines.append(
            f"{result.name:<20} {result.events:>10} "
            f"{result.events_per_s.mean:>12,.0f} "
            f"{f'[{lo:,.0f}, {hi:,.0f}]':>25} "
            f"{result.requests_per_s.mean:>10,.0f} "
            f"{result.wall_s.mean:>8.3f} {result.warmup_dropped:>4}"
        )
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    config = HarnessConfig(
        instructions=args.insts,
        seed=args.seed,
        trials=args.trials,
        warmup=args.warmup,
        bootstrap_resamples=args.bootstrap,
    )
    if args.quick:
        config = config.quick()
    if not args.no_heartbeat:
        config.progress = lambda line: print(f"  [{line}]", flush=True)
    try:
        scenarios = resolve_scenarios(
            (args.scenarios or "").split(","), device=args.device
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(
        f"bench run: {len(scenarios)} scenario(s), "
        f"{config.warmup}+{config.trials} trials, "
        f"{config.instructions} instructions/core, "
        f"device {args.device}"
        f"{' (quick)' if args.quick else ''}"
    )
    results = run_suite(scenarios, config)
    out_dir = Path(args.out).parent if args.out else Path(".")
    index = args.index if args.index is not None else next_bench_index(out_dir)
    doc = build_bench_doc(results, config, index=index, quick=args.quick)
    out = Path(args.out) if args.out else bench_path(out_dir, index)
    save_bench(out, doc)
    print()
    print(_format_results(results))
    print(f"\nwrote {out} (schema-valid, {len(results)} scenarios)")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        doc = load_bench(args.bench)
    except ValueError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    scenarios = doc.get("scenarios", {})
    print(f"{args.bench}: OK (index {doc.get('index')}, "
          f"{len(scenarios)} scenarios)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    old = load_bench(args.old)
    new = load_bench(args.new)
    comparison = compare_docs(
        old, new,
        threshold=args.threshold,
        strict=args.strict,
        strict_events=args.strict_events,
    )
    print(comparison.format())
    if args.report:
        Path(args.report).write_text(comparison.to_markdown(), encoding="utf-8")
        print(f"(markdown report -> {args.report})")
    return comparison.exit_code


def cmd_report(args: argparse.Namespace) -> int:
    print(render_report(args.root, markdown=args.markdown))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.__main__ import _build_config
    from repro.engine.profiler import EventLoopProfiler, parse_collapsed
    from repro.system import System
    from repro.telemetry import (
        Tracer,
        build_capture,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.workloads.multiprog import workload_programs

    programs = workload_programs(args.workload)
    config = _build_config(args, args.system)
    tracer = Tracer() if args.chrome else None
    machine = System(config, programs, tracer=tracer)
    profiler = EventLoopProfiler()
    machine.sim.profiler = profiler
    result = machine.run()
    print(profiler.tree_report(limit=args.top))
    if args.flame:
        lines = profiler.to_collapsed()
        text = "\n".join(lines) + ("\n" if lines else "")
        # Round-trip through the parser: a file we cannot re-read is a bug.
        parse_collapsed(text)
        Path(args.flame).write_text(text, encoding="utf-8")
        print(f"\nflame stacks -> {args.flame} ({len(lines)} stacks; "
              f"feed to flamegraph.pl / speedscope)")
    if args.chrome:
        assert tracer is not None
        capture = build_capture(
            result, tracer,
            check_events=machine.controller.collect_check_events(),
            profile=profiler.to_records() + profiler.stack_records(),
        )
        doc = write_chrome_trace(args.chrome, capture)
        problems = validate_chrome_trace(doc)
        if problems:
            for problem in problems[:10]:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(f"chrome trace -> {args.chrome} (schema OK, includes the "
              f"profiler track)")
    return 0


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the bench subcommands to ``parser`` (the ``bench`` node)."""
    sub = parser.add_subparsers(dest="bench_command", required=True)

    run_p = sub.add_parser(
        "run", help="measure the named scenarios, emit BENCH_<n>.json"
    )
    run_p.add_argument("--quick", action="store_true",
                       help="reduced scale: fewer instructions and trials")
    run_p.add_argument("--scenarios", default="",
                       help=f"comma list from {sorted(SCENARIOS)} (default all)")
    from repro.dram.devices import device_names

    run_p.add_argument("--device", choices=device_names(), default="ddr2-667",
                       help="DRAM device generation preset applied to every "
                            "scenario (see docs/DEVICES.md)")
    run_p.add_argument("--insts", type=int, default=40_000,
                       help="instructions/core per run")
    run_p.add_argument("--trials", type=int, default=5)
    run_p.add_argument("--warmup", type=int, default=2,
                       help="minimum leading trials to drop")
    run_p.add_argument("--bootstrap", type=int, default=1000,
                       help="bootstrap resamples for the CIs")
    run_p.add_argument("--seed", type=int, default=12345)
    run_p.add_argument("--index", type=int, default=None,
                       help="BENCH series index to stamp (default: one past "
                            "the highest BENCH_<n>.json in the output "
                            "directory, or 1)")
    run_p.add_argument("-o", "--out", default=None,
                       help="output path (default BENCH_<index>.json in the "
                            "current directory)")
    run_p.add_argument("--no-heartbeat", action="store_true",
                       help="suppress per-trial progress lines")
    run_p.set_defaults(func=_guarded(cmd_run))

    val_p = sub.add_parser("validate", help="schema-check one BENCH file")
    val_p.add_argument("bench")
    val_p.set_defaults(func=_guarded(cmd_validate))

    cmp_p = sub.add_parser(
        "compare", help="diff two BENCH files; exit 1 on regression"
    )
    cmp_p.add_argument("old")
    cmp_p.add_argument("new")
    cmp_p.add_argument("--threshold", type=float, default=0.05,
                       help="base relative tolerance (default 5%%)")
    cmp_p.add_argument("--strict", action="store_true",
                       help="gate throughput even across machines")
    cmp_p.add_argument("--strict-events", action="store_true",
                       help="treat simulated-count changes as regressions")
    cmp_p.add_argument("--report", default=None, metavar="PATH",
                       help="also write a markdown report")
    cmp_p.set_defaults(func=_guarded(cmd_compare))

    rep_p = sub.add_parser(
        "report", help="render the BENCH_* trajectory dashboard"
    )
    rep_p.add_argument("--root", default=".",
                       help="directory holding BENCH_<n>.json files")
    rep_p.add_argument("--markdown", action="store_true")
    rep_p.set_defaults(func=_guarded(cmd_report))

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
    prof_p.add_argument("--chrome", default=None, metavar="PATH",
                        help="write Chrome trace with the profiler track")
    prof_p.set_defaults(func=_guarded(cmd_profile))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Simulator performance benchmarking and profiling.",
    )
    configure_parser(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
