"""The simulation loop: a clock plus an event queue.

Every model component holds a reference to one :class:`Simulator` and uses
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` to arrange its own
future work.  The loop runs until a stop condition is raised by a component
(via :meth:`Simulator.stop`) or the queue drains.

Fire-and-forget call sites — completions, admissions, refresh ticks —
should prefer :meth:`Simulator.schedule_fire`, which skips the
:class:`Event` handle allocation entirely.  Only callers that may later
``cancel()`` (or that a profiler must attribute) need the handle-returning
:meth:`schedule` / :meth:`schedule_at`.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.engine.event_queue import Event, EventQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.profiler import EventLoopProfiler

#: Picoseconds per nanosecond; all model parameters are given in ns and
#: converted once at configuration time.
PS_PER_NS = 1000


def ns(value: float) -> int:
    """Convert nanoseconds to the integer-picosecond time base."""
    return round(value * PS_PER_NS)


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block.

    For allocation-heavy code that creates no reference cycles: reference
    counting reclaims everything it frees, so collector passes over a
    growing heap are pure overhead.  The previous GC state is restored on
    exit, including on exceptions.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Simulator:
    """Owns the clock and the event queue.

    The simulator knows nothing about memory systems; it only orders
    callbacks in time.  Determinism: same schedule calls -> same run.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0
        self._stopped = False
        self.events_fired = 0
        #: Optional event-loop profiler; when set, :meth:`run` times every
        #: callback by site.  Fires the exact same events either way.
        self.profiler: Optional["EventLoopProfiler"] = None

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` picoseconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        event = self.queue.push(self.now + delay, callback)
        if self.profiler is not None:
            event.origin = self.profiler.origin_stack()
        return event

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute time, clamped to not-before-now."""
        event = self.queue.push(max(time, self.now), callback)
        if self.profiler is not None:
            event.origin = self.profiler.origin_stack()
        return event

    def schedule_fire(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time with no cancellation handle.

        The fire-and-forget fast path: identical firing semantics to
        :meth:`schedule_at` (clamped to not-before-now, same tie-break
        ordering) but no :class:`Event` is allocated, so the caller cannot
        cancel it.  With a profiler attached it falls back to the
        handle-carrying path so origin attribution still works.
        """
        if self.profiler is not None:
            event = self.queue.push(max(time, self.now), callback)
            event.origin = self.profiler.origin_stack()
            return
        self.queue.push_fire(max(time, self.now), callback)

    def schedule_every(self, period: int, callback: Callable[[], object]) -> Event:
        """Schedule ``callback`` every ``period`` picoseconds from now.

        The series starts at ``now + period`` and re-arms itself after
        each firing; returning ``False`` from the callback ends the
        series.  The pending tick keeps the event queue non-empty, so a
        periodic series only suits runs that end via :meth:`stop` (or an
        explicit ``until`` bound), never by queue drain.  Ticks are
        ordinary events: they fire in timestamp order and, on timestamp
        ties, in scheduling order — deterministic like everything else.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")

        def fire() -> None:
            if callback() is not False:
                self.schedule(period, fire)

        return self.schedule(period, fire)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Fire events in order until stop(), queue drain, or a limit.

        Args:
            until: Absolute time bound; events after it stay queued.
            max_events: Safety valve for tests; raises RuntimeError when hit
                so an accidental livelock fails loudly instead of hanging.

        The drain is fused with the heap: the loop pops (time, seq, item)
        entries straight off ``queue._heap`` instead of going through a
        pop/peek method pair per event — the heap invariant already yields
        the exact firing order (timestamp, then scheduling order), and
        anything not yet popped when the loop exits simply stays queued.
        ``EventQueue._compact`` rebuilds that list in place, so the local
        reference stays valid even when a dispatched callback cancels
        enough events to trigger compaction.

        The loop runs under :func:`gc_paused`: it allocates heavily (heap
        entries, requests, closures) but the only reference cycles —
        Event._queue back-references — are broken explicitly on
        pop/cancel, so refcounting reclaims everything.
        """
        self._stopped = False
        profiler = self.profiler
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        event_cls = Event
        fired = 0
        with gc_paused():
            while heap and not self._stopped:
                entry = heap[0]
                item = entry[2]
                if item.__class__ is event_cls:
                    if item.cancelled:  # type: ignore[attr-defined]
                        heappop(heap)
                        queue._cancelled -= 1
                        continue
                    if until is not None and entry[0] > until:
                        # Events beyond the bound stay queued; the clock
                        # still advances to the bound itself.
                        self.now = until
                        break
                    heappop(heap)
                    queue._live -= 1
                    item._queue = None  # type: ignore[attr-defined]
                    callback = item.callback  # type: ignore[attr-defined]
                    origin = item.origin  # type: ignore[attr-defined]
                else:
                    if until is not None and entry[0] > until:
                        self.now = until
                        break
                    heappop(heap)
                    queue._live -= 1
                    callback = item
                    origin = None
                self.now = entry[0]
                if profiler is not None:
                    profiler.time_call(callback, origin or ())
                else:
                    callback()
                self.events_fired += 1
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events"
                    )
