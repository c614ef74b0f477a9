"""Event-loop profiler: hierarchical wall-clock attribution by callback site.

Attach before running::

    sim.profiler = EventLoopProfiler()
    sim.run()
    print(sim.profiler.tree_report())

Attribution happens at three levels:

* **site** — the callback's qualified name (bound methods show as
  ``ChannelControllerBase._kick``, closures as
  ``MemoryController._admit.<locals>.<lambda>``), exactly the granularity
  needed to rank hot paths before optimising one.
* **subsystem** — sites are bucketed by the package they live in
  (``engine`` / ``dram`` / ``channel`` / ``controller`` / ``cpu`` /
  ``telemetry`` / ``workload`` / ``faults``), with *self* time (the
  bucket's own callbacks) distinguished from *cumulative* time (self plus
  every callback transitively scheduled by the bucket).
* **scheduling stack** — the event loop is flat, but causality is not:
  each event remembers the chain of sites that scheduled it
  (:attr:`~repro.engine.event_queue.Event.origin`), so the profiler
  accumulates flame-graph-style stacks ("``_kick`` scheduled
  ``Bank.activate`` which scheduled …").  :meth:`to_collapsed` renders
  them in the standard collapsed-stack format accepted by flamegraph.pl
  and speedscope.

The profiler intentionally reads the host clock: wall time is the quantity
being measured, not model time, so the run's *simulated* behaviour is
bit-identical with or without it (the profiled loop fires the same events
in the same order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Tuple

#: Scheduling stacks deeper than this keep only the most recent frames;
#: direct self-scheduling (a site re-arming itself) is collapsed instead
#: of growing the stack, so steady-state loops stay one frame tall.
MAX_STACK_DEPTH = 12

#: Second component of a ``repro.*`` module path -> subsystem bucket.
_SUBSYSTEM_BUCKETS = {
    "engine": "engine",
    "dram": "dram",
    "channel": "channel",
    "controller": "controller",
    "cpu": "cpu",
    "workloads": "workload",
    "faults": "faults",
    "telemetry": "telemetry",
    "stats": "telemetry",
}


def subsystem_of(module: str) -> str:
    """Map a module path to its attribution bucket (``other`` if unknown)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return _SUBSYSTEM_BUCKETS.get(parts[1], "other")
    return "other"


@dataclass
class SiteProfile:
    """Accumulated cost of one callback site."""

    site: str
    subsystem: str = "other"
    events: int = 0
    wall_s: float = 0.0


@dataclass
class StackProfile:
    """Accumulated cost of one scheduling stack (leaf site last)."""

    stack: Tuple[str, ...]
    subsystem: str = "other"  # bucket of the leaf site
    events: int = 0
    wall_s: float = 0.0


@dataclass
class SubsystemProfile:
    """Self vs. cumulative cost of one subsystem bucket.

    ``self_s`` is wall time spent in the bucket's own callbacks;
    ``cum_s`` adds every callback transitively *scheduled by* the bucket
    (flame-graph semantics over the scheduling stacks, counted once per
    stack however often the bucket appears in it).
    """

    subsystem: str
    events: int = 0
    self_s: float = 0.0
    cum_s: float = 0.0


def callback_site(callback: Callable[[], None]) -> str:
    """Stable attribution key for a scheduled callback."""
    return callback_origin(callback)[0]


def callback_origin(callback: Callable[[], None]) -> Tuple[str, str]:
    """(site, subsystem bucket) attribution for a scheduled callback."""
    func: object = callback
    # A partial is attributed to the function it wraps.
    if isinstance(func, partial):  # nested partials flatten on creation
        func = func.func
    # Unwrap bound methods so the class qualname is the site.
    wrapped = getattr(func, "__func__", None)
    if wrapped is not None:
        func = wrapped
    qualname = getattr(func, "__qualname__", None)
    if qualname is None:
        return repr(type(callback).__name__), "other"
    module = getattr(func, "__module__", "") or ""
    short_module = module.rsplit(".", 1)[-1] if module else ""
    site = f"{short_module}.{qualname}" if short_module else str(qualname)
    return site, subsystem_of(module)


class EventLoopProfiler:
    """Per-site, per-subsystem and per-stack wall-clock attribution."""

    def __init__(self) -> None:
        self.sites: Dict[str, SiteProfile] = {}
        self.stacks: Dict[Tuple[str, ...], StackProfile] = {}
        self.total_events = 0
        self.total_wall_s = 0.0
        #: Scheduling stack of the callback currently executing (its own
        #: site included); () outside the event loop.  Events scheduled
        #: while a callback runs inherit this as their origin.
        self._active_stack: Tuple[str, ...] = ()

    # -- event-loop hooks ----------------------------------------------

    def origin_stack(self) -> Tuple[str, ...]:
        """Ancestry recorded on events scheduled right now."""
        return self._active_stack

    def time_call(
        self, callback: Callable[[], None], origin: Tuple[str, ...] = ()
    ) -> None:
        """Invoke ``callback``, charging its cost to its site and stack.

        ``origin`` is the scheduling ancestry captured when the event was
        pushed (:meth:`origin_stack` at schedule time).
        """
        site, subsystem = callback_origin(callback)
        # Collapse scheduling cycles (A -> B -> A ...) back to the first
        # occurrence, so steady-state ping-pong chains converge to one
        # stack per distinct causal path instead of growing forever.
        stack = (
            origin[: origin.index(site) + 1]
            if site in origin
            else (origin + (site,))[-MAX_STACK_DEPTH:]
        )
        previous = self._active_stack
        self._active_stack = stack
        start = time.perf_counter()  # repro: ignore[wall-clock] — profiling wall time
        try:
            callback()
        finally:
            elapsed = time.perf_counter() - start  # repro: ignore[wall-clock] — profiling wall time
            self._active_stack = previous
        entry = self.sites.get(site)
        if entry is None:
            entry = SiteProfile(site=site, subsystem=subsystem)
            self.sites[site] = entry
        entry.events += 1
        entry.wall_s += elapsed
        frame = self.stacks.get(stack)
        if frame is None:
            frame = StackProfile(stack=stack, subsystem=subsystem)
            self.stacks[stack] = frame
        frame.events += 1
        frame.wall_s += elapsed
        self.total_events += 1
        self.total_wall_s += elapsed

    # -- aggregation ----------------------------------------------------

    def ranked(self) -> List[SiteProfile]:
        """Sites ordered hottest-first (wall time, then events, then name)."""
        return sorted(
            self.sites.values(),
            key=lambda s: (-s.wall_s, -s.events, s.site),
        )

    def ranked_stacks(self) -> List[StackProfile]:
        """Scheduling stacks ordered hottest-first."""
        return sorted(
            self.stacks.values(),
            key=lambda s: (-s.wall_s, -s.events, s.stack),
        )

    def subsystems(self) -> List[SubsystemProfile]:
        """Per-bucket self/cumulative attribution, hottest-cum first."""
        buckets: Dict[str, SubsystemProfile] = {}

        def bucket(name: str) -> SubsystemProfile:
            entry = buckets.get(name)
            if entry is None:
                entry = SubsystemProfile(subsystem=name)
                buckets[name] = entry
            return entry

        site_buckets = {s.site: s.subsystem for s in self.sites.values()}
        for frame in self.stacks.values():
            leaf = bucket(frame.subsystem)
            leaf.events += frame.events
            leaf.self_s += frame.wall_s
            seen = {site_buckets.get(site, "other") for site in frame.stack}
            for name in seen:
                bucket(name).cum_s += frame.wall_s
        return sorted(
            buckets.values(),
            key=lambda b: (-b.cum_s, -b.self_s, b.subsystem),
        )

    # -- exports ---------------------------------------------------------

    def to_records(self) -> List[Dict[str, object]]:
        """JSONL-ready per-site records, hottest-first."""
        return [
            {
                "site": s.site,
                "subsystem": s.subsystem,
                "events": s.events,
                "wall_s": s.wall_s,
            }
            for s in self.ranked()
        ]

    def stack_records(self) -> List[Dict[str, object]]:
        """JSONL-ready per-stack records, hottest-first."""
        return [
            {
                "stack": list(s.stack),
                "subsystem": s.subsystem,
                "events": s.events,
                "wall_s": s.wall_s,
            }
            for s in self.ranked_stacks()
        ]

    def to_collapsed(self) -> List[str]:
        """Collapsed-stack flame lines: ``bucket;site;... <wall microseconds>``.

        One line per scheduling stack, rooted at the leaf's subsystem
        bucket, weighted by integer microseconds of wall time (stacks that
        round to 0 us are dropped).  Feed to flamegraph.pl / speedscope.
        """
        lines = []
        for frame in self.ranked_stacks():
            value = round(frame.wall_s * 1e6)
            if value <= 0:
                continue
            frames = ";".join((frame.subsystem,) + frame.stack)
            lines.append(f"{frames} {value}")
        return lines

    # -- reports ----------------------------------------------------------

    def report(self, limit: int = 15) -> str:
        """Fixed-width ranking of the hottest callback sites."""
        lines = [
            f"event-loop profile: {self.total_events} events, "
            f"{self.total_wall_s * 1000:.1f} ms wall",
            f"{'site':<60} {'events':>9} {'wall ms':>9} {'%':>6}",
        ]
        for entry in self.ranked()[:limit]:
            share = (
                entry.wall_s / self.total_wall_s * 100 if self.total_wall_s else 0.0
            )
            lines.append(
                f"{entry.site:<60} {entry.events:>9} "
                f"{entry.wall_s * 1000:>9.1f} {share:>5.1f}%"
            )
        return "\n".join(lines)

    def tree_report(self, limit: int = 15) -> str:
        """Subsystem self/cumulative table plus the hottest sites and stacks."""
        total = self.total_wall_s
        lines = [
            f"event-loop profile: {self.total_events} events, "
            f"{total * 1000:.1f} ms wall",
            "",
            f"{'subsystem':<12} {'events':>9} {'self ms':>9} "
            f"{'cum ms':>9} {'self %':>7} {'cum %':>7}",
        ]
        for entry in self.subsystems():
            self_share = entry.self_s / total * 100 if total else 0.0
            cum_share = entry.cum_s / total * 100 if total else 0.0
            lines.append(
                f"{entry.subsystem:<12} {entry.events:>9} "
                f"{entry.self_s * 1000:>9.1f} {entry.cum_s * 1000:>9.1f} "
                f"{self_share:>6.1f}% {cum_share:>6.1f}%"
            )
        lines.append("")
        lines.append(self.report(limit))
        hottest = [s for s in self.ranked_stacks() if len(s.stack) > 1][:5]
        if hottest:
            lines.append("")
            lines.append("hottest scheduling chains:")
            for frame in hottest:
                chain = " -> ".join(frame.stack)
                lines.append(
                    f"  {chain}  ({frame.events} events, "
                    f"{frame.wall_s * 1000:.1f} ms)"
                )
        return "\n".join(lines)


def parse_collapsed(text: str) -> List[Tuple[List[str], int]]:
    """Parse (and thereby validate) collapsed-stack flame output.

    The inverse of :meth:`EventLoopProfiler.to_collapsed`: each line must
    be ``frame;frame;... <positive integer>``.  Raises ``ValueError`` on
    any malformed line, so a round-trip through this function is the
    flame-file schema check.
    """
    parsed: List[Tuple[List[str], int]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack_part, _, value_part = line.rpartition(" ")
        if not stack_part:
            raise ValueError(f"line {number}: missing stack or value: {line!r}")
        try:
            value = int(value_part)
        except ValueError as exc:
            raise ValueError(
                f"line {number}: value {value_part!r} is not an integer"
            ) from exc
        if value <= 0:
            raise ValueError(f"line {number}: non-positive weight {value}")
        frames = stack_part.split(";")
        if not all(frames):
            raise ValueError(f"line {number}: empty frame in {stack_part!r}")
        parsed.append((frames, value))
    return parsed
