"""A deterministic priority event queue keyed on (time, sequence number).

Events that are scheduled for the same picosecond fire in the order they were
scheduled, which keeps runs bit-for-bit reproducible regardless of heap
tie-breaking.

Hot-path layout: the heap holds raw ``(time, seq, item)`` tuples, so every
sift comparison is a C-level tuple compare — ``seq`` is unique, so the item
itself is never compared.  The item is either

* an :class:`Event` (``__slots__``-carrying handle) when the caller needs
  cancellation or profiler origin tracking — :meth:`push`; or
* the bare callback when no handle is needed — :meth:`push_fire`, the
  fire-and-forget fast path most of the simulator uses.  It skips the
  handle allocation entirely: one tuple per scheduled callback.

Cancellation is O(1): a cancelled event is flagged and skipped when it
surfaces, and the queue keeps a live-event counter so ``len()`` never scans
the heap.  When cancelled events come to dominate the heap it is compacted
in place, so a workload that cancels heavily (e.g. the channel controllers'
wake events) cannot grow the heap without bound.

The simulator's run loop (``Simulator.run``) does not call :meth:`pop`:
it pops entries straight off ``_heap`` and keeps the live and cancelled
counts exact itself.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Compaction never triggers below this heap size; the rebuild is O(n) and
#: pointless for small heaps.
_COMPACT_MIN_HEAP = 64


class Event:
    """A scheduled callback with a cancellation handle.

    Attributes:
        time: Absolute firing time in picoseconds.
        seq: Monotonic tie-breaker assigned by the queue.
        callback: Zero-argument callable invoked when the event fires.
        cancelled: Cancelled events stay in the heap but are skipped.
        origin: Scheduling ancestry (chain of profiler callback sites)
            recorded only while an
            :class:`~repro.engine.profiler.EventLoopProfiler` is attached;
            None otherwise, costing nothing on unprofiled runs.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "origin", "_queue")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[[], None],
        queue: "Optional[EventQueue]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.origin: Optional[Tuple[str, ...]] = None
        #: Back-reference so cancel() can keep the queue's live counter
        #: exact; detached (None) once the event has been popped.
        self._queue = queue

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time}, seq={self.seq}{state})"

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of firing it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()
            self._queue = None


#: One heap entry: (time, seq, item) where item is an Event or a bare
#: callback.  ``seq`` is unique per queue, so tuple comparison never
#: reaches the item.
_Entry = Tuple[int, int, object]


class EventQueue:
    """Min-heap of scheduled callbacks ordered by (time, insertion order)."""

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0  # entries neither fired nor cancelled
        self._cancelled = 0  # cancelled events still occupying the heap

    def __len__(self) -> int:
        """Number of live (non-cancelled, not yet fired) entries; O(1)."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Total heap entries including cancelled ones (introspection)."""
        return len(self._heap)

    def push(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute ``time``; returns its handle."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_fire(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` with no handle (cannot be cancelled).

        The fire-and-forget fast path: the callback itself rides in the
        heap entry, skipping the :class:`Event` allocation.  Interleaves
        deterministically with :meth:`push` — both draw from the same
        sequence counter.
        """
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, callback))
        self._live += 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None when empty.

        Handle-free entries (``push_fire``) are wrapped in a detached
        :class:`Event` so callers see a uniform result type.
        """
        heap = self._heap
        while heap:
            time, seq, item = heapq.heappop(heap)
            if item.__class__ is Event:
                if item.cancelled:  # type: ignore[union-attr]
                    self._cancelled -= 1
                    continue
                item._queue = None  # type: ignore[union-attr]
                self._live -= 1
                return item  # type: ignore[return-value]
            self._live -= 1
            return Event(time, seq, item)  # type: ignore[arg-type]
        return None

    def peek_time(self) -> Optional[int]:
        """Return the firing time of the earliest live entry, or None."""
        heap = self._heap
        while heap:
            head = heap[0][2]
            if head.__class__ is Event and head.cancelled:  # type: ignore[union-attr]
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return heap[0][0]
        return None

    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Bookkeeping for Event.cancel(); compacts when garbage dominates."""
        self._live -= 1
        self._cancelled += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events (O(n), rare).

        In place: Simulator.run drains the heap through a local reference,
        and cancel() — hence compaction — can run from inside a dispatched
        callback, so the list object's identity must survive.
        """
        self._heap[:] = [
            entry for entry in self._heap
            if entry[2].__class__ is not Event
            or not entry[2].cancelled  # type: ignore[union-attr]
        ]
        heapq.heapify(self._heap)
        self._cancelled = 0
