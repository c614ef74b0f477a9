"""Command-line interface.

Usage::

    python -m repro run --workload 4C-1 --system fbd-ap
    python -m repro compare --workload 8C-1 --insts 50000
    python -m repro list

``run`` simulates one system and prints a full report; ``compare`` runs
DDR2, FB-DIMM and FB-DIMM+AP side by side; ``list`` shows the available
programs and Table 3 workload mixes; ``trace``, ``timeline``, ``prefetch``
and ``bench`` record and inspect one observed run (``python -m
repro.<name>`` forwards to the same subcommand).  Regenerating the
paper's figures lives under ``python -m repro.experiments``.

Every command that runs one simulation declares its knobs with
:func:`add_run_args` and builds its config with :func:`_build_config`.
Bad input exits 2 with one ``error:`` line: :func:`_fail` for a
rejected value, :func:`_guarded` for a file a command cannot read or
write.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, NoReturn, Optional, Tuple

from repro.config import (
    AmbPrefetchConfig,
    Associativity,
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.dram.devices import device_names
from repro.system import System
from repro.workloads.multiprog import SINGLE_CORE, WORKLOADS, workload_programs

if TYPE_CHECKING:
    from repro.system import SimulationResult
    from repro.telemetry.spans import Tracer

SYSTEMS = ("ddr2", "fbd", "fbd-ap")

ASSOCIATIVITIES = {
    "direct": Associativity.DIRECT,
    "2way": Associativity.TWO_WAY,
    "4way": Associativity.FOUR_WAY,
    "full": Associativity.FULL,
}


#: Count flags and their least valid value, checked before any command runs.
_LEAST = {"jobs": 1, "top": 0, "profile": 0, "max_requests": 0}

#: Subcommand groups whose commands read or write files, run through
#: :func:`_guarded`.
_FILE_COMMANDS = ("trace", "timeline", "prefetch")


def _fail(message: str) -> NoReturn:
    """Reject bad command-line input: one ``error:`` line, exit 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _guarded(
    func: Callable[[argparse.Namespace], int],
) -> Callable[[argparse.Namespace], int]:
    """Wrap a command that reads or writes files (:data:`_FILE_COMMANDS`):
    an I/O or format error (``OSError``, ``ValueError``) prints one
    ``error:`` line and returns 2."""

    def wrapper(args: argparse.Namespace) -> int:
        try:
            return func(args)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return wrapper


def add_run_args(
    parser: argparse.ArgumentParser, systems: Tuple[str, ...] = SYSTEMS
) -> None:
    """Declare the run knobs :func:`_build_config` reads on ``parser``.

    ``systems`` are the ``--system`` choices (default fbd-ap); an empty
    tuple leaves ``--system`` out, for a command that picks its systems.
    """
    parser.add_argument("--workload", default="4C-1",
                        help="a program name or a Table 3 mix (see 'list')")
    if systems:
        parser.add_argument("--system", choices=systems, default="fbd-ap")
    parser.add_argument("--insts", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--no-sw-prefetch", action="store_true")
    parser.add_argument("--device", choices=device_names(), default="ddr2-667",
                        help="DRAM device generation preset "
                             "(see docs/DEVICES.md)")
    parser.add_argument("--k", type=int, default=4,
                        help="region cachelines for fbd-ap")
    parser.add_argument("--entries", type=int, default=64)
    parser.add_argument("--assoc", choices=sorted(ASSOCIATIVITIES),
                        default="full")


def _programs(workload: str) -> List[str]:
    """The programs of ``workload``, or a clean exit when it is unknown."""
    try:
        return workload_programs(workload)
    except KeyError as exc:
        _fail(f"{exc.args[0]}; 'python -m repro list' shows the names")


def _build_config(args: argparse.Namespace, system: str) -> SystemConfig:
    """The config the run knobs (:func:`add_run_args`) describe for
    ``system``; a value a config rejects (``ValueError`` from its
    ``__post_init__``) exits 2, and each of the config's
    :meth:`~repro.config.SystemConfig.warnings` goes to stderr as one
    ``warning:`` line."""
    cores = len(_programs(args.workload))
    try:
        if system == "ddr2":
            config = ddr2_baseline(num_cores=cores)
        elif system == "fbd":
            config = fbdimm_baseline(num_cores=cores)
        else:
            prefetch = AmbPrefetchConfig(
                region_cachelines=args.k,
                cache_entries=args.entries,
                associativity=ASSOCIATIVITIES[args.assoc],
            )
            config = fbdimm_amb_prefetch(num_cores=cores, prefetch=prefetch)
        if args.device != "ddr2-667":
            config = config.with_device(args.device)
        config = dataclasses.replace(
            config,
            instructions_per_core=args.insts,
            seed=args.seed,
            software_prefetch=not args.no_sw_prefetch,
        )
        window_ns = getattr(args, "timeline_ns", None)
        if window_ns is not None:
            config = config.with_timeline(window_ns=window_ns)
    except ValueError as exc:
        _fail(str(exc))
    for warning in config.warnings():
        print(f"warning: {warning}", file=sys.stderr)
    return config


def build_machine(
    args: argparse.Namespace,
    config: Optional[SystemConfig] = None,
    tracer: Optional[Tracer] = None,
    profile: bool = False,
) -> System:
    """The machine of one run, not yet run.

    ``config`` defaults to the one the run knobs describe for
    ``args.system``; ``profile`` attaches an event-loop profiler as
    ``machine.sim.profiler``.
    """
    if config is None:
        config = _build_config(args, args.system)
    machine = System(config, _programs(args.workload), tracer=tracer)
    if profile:
        from repro.engine.profiler import EventLoopProfiler

        machine.sim.profiler = EventLoopProfiler()
    return machine


def save_run_capture(
    path: str, machine: System, result: SimulationResult
) -> None:
    """Write the capture of a finished traced run and say so."""
    from repro.telemetry.export import build_capture, save_capture

    records = save_capture(path, build_capture(machine, result))
    print(f"[trace: {records} records -> {path}]")


def cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.report import run_report

    tracer = None
    if args.trace_out:
        from repro.telemetry.spans import Tracer

        tracer = Tracer()
    machine = build_machine(args, tracer=tracer,
                            profile=args.profile is not None)
    if args.latency:
        machine.controller.stats.enable_latency_capture()
    result = machine.run()
    if tracer is not None:
        save_run_capture(args.trace_out, machine, result)
    print(run_report(result))
    if machine.sim.profiler is not None:
        print()
        print(machine.sim.profiler.tree_report(limit=args.profile))
    if args.latency:
        from repro.analysis.latency import LatencyDistribution

        dist = LatencyDistribution.from_stats(result.mem)
        print(f"\nlatency distribution: {dist.format()}")
    if args.utilisation:
        from repro.analysis.utilisation import channel_utilisation_report

        print("\nlink utilisation:")
        for row in channel_utilisation_report(result.mem):
            print(f"  {row.name:<24} {row.busy_fraction:6.1%}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import execute_runs

    programs = tuple(_programs(args.workload))
    pairs = [(_build_config(args, system), programs) for system in SYSTEMS]
    results = execute_runs(pairs, jobs=args.jobs)
    print(f"workload {args.workload}, {args.insts} instructions/core\n")
    header = (
        f"{'system':<8} {'sum IPC':>8} {'latency':>9} {'bandwidth':>10} "
        f"{'ACT':>7} {'coverage':>9}"
    )
    print(header)
    print("-" * len(header))
    baseline_ipc: Optional[float] = None
    for system, result in zip(SYSTEMS, results):
        total_ipc = sum(result.core_ipcs)
        if system == "ddr2":
            baseline_ipc = total_ipc
        print(
            f"{system:<8} {total_ipc:>8.3f} "
            f"{result.avg_read_latency_ns:>7.1f}ns "
            f"{result.utilized_bandwidth_gbs:>7.2f}GB/s "
            f"{result.mem.activates:>7} {result.prefetch_coverage:>9.3f}"
        )
    if baseline_ipc:
        print(f"\n(speedups are relative to DDR2 = {baseline_ipc:.3f} sum-IPC)")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("programs (single-core workloads):")
    print(" ", ", ".join(SINGLE_CORE))
    print("\nmultiprogrammed workloads (Table 3):")
    for name, programs in WORKLOADS.items():
        print(f"  {name:<5} {', '.join(programs)}")
    return 0


def _assoc_name(value: str) -> str:
    if value not in ASSOCIATIVITIES:
        raise ValueError(f"unknown value {value!r}; choices: {sorted(ASSOCIATIVITIES)}")
    return value


#: Sweepable axes for the ``sweep`` subcommand and how each value parses.
SWEEP_AXES = {
    "k": int,
    "entries": int,
    "assoc": _assoc_name,
    "rate": int,
    "channels": int,
    "device": str,
}


def _parse_axes(specs: List[str]) -> Dict[str, List[object]]:
    """Parse ["k=2,4,8", "rate=667,800"] into {"k": [2,4,8], ...}."""
    axes: Dict[str, List[object]] = {}
    for spec in specs:
        if "=" not in spec:
            _fail(f"bad axis {spec!r}; expected name=v1,v2,...")
        name, _, values = spec.partition("=")
        if name not in SWEEP_AXES:
            _fail(f"unknown axis {name!r}; choices: {sorted(SWEEP_AXES)}")
        cast = SWEEP_AXES[name]
        try:
            axes[name] = [cast(v) for v in values.split(",") if v]
        except ValueError as exc:
            _fail(f"axis {name!r}: {exc}")
        if not axes[name]:
            _fail(f"axis {name!r} has no values")
    if not axes:
        _fail("sweep needs at least one axis (e.g. k=2,4,8)")
    return axes


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.charts import bar_chart
    from repro.experiments.runner import ExperimentContext
    from repro.experiments.sweep import Sweep

    axes = _parse_axes(args.axes)
    cores = len(_programs(args.workload))

    def build(k: int = 4, entries: int = 64, assoc: str = "full",
              rate: int = 667, channels: int = 2,
              device: str = "ddr2-667") -> SystemConfig:
        try:
            prefetch = AmbPrefetchConfig(
                region_cachelines=k,
                cache_entries=entries,
                associativity=ASSOCIATIVITIES[assoc],
            )
            config = fbdimm_amb_prefetch(
                num_cores=cores,
                prefetch=prefetch,
                logic_channels=channels,
            )
            if device != "ddr2-667":
                # The device preset fixes its own data rate; an explicit
                # rate axis still overrides it below.
                config = config.with_device(device)
            if device == "ddr2-667" or "rate" in axes:
                config = config.with_memory(data_rate_mts=rate)
            return config
        except ValueError as exc:
            _fail(str(exc))

    sweep = Sweep(
        axes=axes, build=build, workload=args.workload, metric_name="sum_ipc"
    )
    cache = None if args.no_cache else args.cache_dir
    try:
        ctx = ExperimentContext(
            instructions=args.insts, seed=args.seed, jobs=args.jobs,
            cache=cache,
        )
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    table = sweep.run(ctx, metric=lambda r: sum(r.core_ipcs))
    print(table.format())
    print()
    print(bar_chart(table, "sum_ipc", label_columns=list(axes), width=40))
    if ctx.cache is not None:
        print(
            f"\n[cache: {ctx.fresh_runs} simulated, "
            f"{ctx.disk_hits} served from {ctx.cache.root}]"
        )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.sweep import fault_sweep, format_sweep

    try:
        rates = [float(v) for v in args.rates.split(",") if v]
    except ValueError as exc:
        _fail(f"bad --rates value: {exc}")
    if not rates:
        _fail("--rates needs at least one error rate")
    programs = _programs(args.workload)
    config = _build_config(args, args.system)
    config = dataclasses.replace(
        config, faults=dataclasses.replace(config.faults, seed=args.fault_seed)
    )
    try:
        for rate in rates:  # every sweep point's fault config must be valid
            config.with_faults(
                error_rate=rate,
                amb_bitflip_rate=rate if args.bitflip is None else args.bitflip,
            )
    except ValueError as exc:
        _fail(str(exc))
    points = fault_sweep(
        config,
        programs,
        rates,
        amb_bitflip_rate=args.bitflip,
        jobs=args.jobs,
    )
    print(
        f"workload {args.workload}, system {args.system}, "
        f"{args.insts} instructions/core, fault seed {args.fault_seed}\n"
    )
    print(format_sweep(points))
    print("\n(dIPC is relative to the fault-free baseline; 'retry ns' is "
          "link latency added by replays)")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.runcache import RunCache

    cache = RunCache(args.cache_dir)
    try:
        if args.action == "purge":
            removed = cache.purge()
            print(f"removed {removed} cache entries from {cache.root}")
            return 0
        summary = cache.summary()
    except OSError as exc:
        _fail(str(exc))
    print(f"cache root    {summary['root']}")
    print(f"entries       {summary['entries']}")
    print(f"size          {summary['bytes'] / 1e6:.2f} MB")
    print(f"quarantined   {summary['quarantined']}")
    print(f"code salt     {summary['salt']}")
    print(f"format        v{summary['format']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.bench.cli import configure_parser as configure_bench
    from repro.prefetch.cli import configure_parser as configure_prefetch
    from repro.timeline.cli import configure_parser as configure_timeline
    from repro.trace import configure_parser as configure_trace

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FB-DIMM / AMB-prefetching simulator (ISPASS 2007 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one system")
    add_run_args(run_p)
    run_p.add_argument("--latency", action="store_true",
                       help="capture and print the latency distribution")
    run_p.add_argument("--utilisation", action="store_true",
                       help="print per-link busy fractions")
    run_p.add_argument("--trace-out", metavar="PATH",
                       help="record a telemetry capture (see 'repro trace')")
    run_p.add_argument("--profile", nargs="?", const=15, default=None,
                       type=int, metavar="N",
                       help="profile the event loop; print the top-N "
                            "callback sites (default 15)")
    run_p.add_argument("--timeline-ns", type=float, default=None,
                       metavar="NS",
                       help="record the windowed timeline (window length "
                            "in sim-time ns; see docs/TIMELINE.md)")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="DDR2 vs FBD vs FBD-AP")
    add_run_args(cmp_p, systems=())
    cmp_p.set_defaults(func=cmd_compare)

    list_p = sub.add_parser("list", help="show programs and workloads")
    list_p.set_defaults(func=cmd_list)

    sweep_p = sub.add_parser(
        "sweep", help="sweep fbd-ap knobs, e.g. sweep k=2,4,8 rate=667,800"
    )
    sweep_p.add_argument("axes", nargs="+",
                         help=f"axis=v1,v2,... from {sorted(SWEEP_AXES)}")
    sweep_p.add_argument("--workload", default="4C-1")
    sweep_p.add_argument("--insts", type=int, default=20_000)
    sweep_p.add_argument("--seed", type=int, default=12345)
    sweep_p.add_argument("--no-cache", action="store_true",
                         help="skip the persistent run cache")
    sweep_p.add_argument("--cache-dir", default=".repro-cache",
                         help="run-cache directory")
    sweep_p.set_defaults(func=cmd_sweep)

    faults_p = sub.add_parser(
        "faults", help="sweep link error rates (repro.faults injection)"
    )
    add_run_args(faults_p, systems=("fbd", "fbd-ap"))
    faults_p.add_argument("--rates", default="1e-6,1e-4,1e-2",
                          help="comma-separated frame error rates")
    faults_p.add_argument("--bitflip", type=float, default=None,
                          help="AMB-cache bit-flip rate (default: same as "
                               "the link error rate)")
    faults_p.add_argument("--fault-seed", type=int, default=0xFBD1,
                          help="seed of the fault-decision streams")
    faults_p.set_defaults(func=cmd_faults)

    for command_p in (run_p, cmp_p, sweep_p, faults_p):
        command_p.add_argument("--jobs", type=int, default=1,
                               help="worker processes for independent runs")

    cache_p = sub.add_parser(
        "cache", help="inspect or purge the persistent run cache"
    )
    cache_p.add_argument("action", choices=("stats", "purge"))
    cache_p.add_argument("--cache-dir", default=".repro-cache")
    cache_p.set_defaults(func=cmd_cache)

    configure_trace(sub.add_parser(
        "trace", help="record, summarize and export telemetry captures "
                      "(see docs/OBSERVABILITY.md)"
    ))
    configure_bench(sub.add_parser(
        "bench", help="profile the event loop (see docs/BENCHMARKING.md)"
    ))
    configure_timeline(sub.add_parser(
        "timeline", help="windowed sim-time telemetry (see docs/TIMELINE.md)"
    ))
    configure_prefetch(sub.add_parser(
        "prefetch",
        help="prefetch lifecycle observability (see docs/PREFETCH.md)",
    ))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            _fail(f"--{name.replace('_', '-')} must be >= {least}, "
                  f"got {value}")
    if args.command in _FILE_COMMANDS:
        return _guarded(args.func)(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
