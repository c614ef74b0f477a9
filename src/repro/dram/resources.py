"""Backfilling bus resources.

A :class:`BusResource` models a wire that carries one thing at a time:
the DDR2 shared command bus, the DDR2 shared data bus, a DIMM's private DDR2
data bus behind an AMB, and the FB-DIMM southbound/northbound links.

Reservations *backfill*: a request asks for the earliest ``duration``-long
gap at or after its ready time, so a transfer that becomes ready early is
not stuck behind one reserved further in the future (no head-of-line
blocking between independent banks/DIMMs).  The number of outstanding
future reservations is bounded by the channel controllers' in-flight caps,
so the gap search stays O(few).

All callers reserve with ``earliest >= sim.now``, which makes pruning of
reservations that end at or before the current time safe.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple


class BusResource:
    """A single-owner bus with busy-interval tracking and backfill."""

    __slots__ = ("name", "busy_ps", "_intervals")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_ps = 0  # total occupied time, for utilisation stats
        self._intervals: List[Tuple[int, int]] = []  # sorted (start, end)

    def reserve(self, earliest: int, duration: int) -> int:
        """Reserve ``duration`` ps in the first gap at/after ``earliest``.

        Returns the granted start time (>= ``earliest``).
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        start = self._find_gap(earliest, duration)
        end = start + duration
        bisect.insort(self._intervals, (start, end))
        self.busy_ps += duration
        return start

    def next_free(self, earliest: int) -> int:
        """Earliest start a new zero-length probe would get (no booking)."""
        return self._find_gap(earliest, 1)

    def probe(self, earliest: int, duration: int) -> int:
        """Where ``reserve(earliest, duration)`` would land, without booking."""
        return self._find_gap(earliest, duration)

    def prune_before(self, time_ps: int) -> None:
        """Drop reservations that ended at or before ``time_ps``.

        Only safe with the invariant that future ``reserve`` calls use
        ``earliest >= time_ps`` — which holds because every caller reserves
        at or after the current simulation time.  Under that invariant an
        expired interval never moves a grant, so when (or whether) this
        runs changes nothing but the length of later gap searches.
        """
        intervals = self._intervals
        for iv in intervals:
            if iv[1] <= time_ps:
                break
        else:
            return  # nothing expired: skip the rebuild allocation
        self._intervals = [iv for iv in intervals if iv[1] > time_ps]

    def utilisation(self, elapsed_ps: int) -> float:
        """Fraction of ``elapsed_ps`` the bus spent occupied."""
        if elapsed_ps <= 0:
            return 0.0
        return min(1.0, self.busy_ps / elapsed_ps)

    @property
    def free_at(self) -> int:
        """End of the last current reservation (0 when idle)."""
        return self._intervals[-1][1] if self._intervals else 0

    def _find_gap(self, earliest: int, duration: int) -> int:
        start = earliest
        fits_at = earliest + duration
        for interval_start, interval_end in self._intervals:
            if fits_at <= interval_start:
                break
            if interval_end > start:
                start = interval_end
                fits_at = start + duration
        return start


class TaggedBusResource:
    """A shared bidirectional bus with switching bubbles.

    Models the DDR2 channel data bus: back-to-back bursts with different
    *tags* (direction, rank) must be separated by ``switch_gap_ps`` of dead
    time — the read/write turnaround and rank-to-rank switching bubbles
    that cap a real DDR2 channel's efficiency well below 100 %.  FB-DIMM's
    unidirectional links have no such bubbles, which is precisely the
    utilisation advantage the paper measures (Section 5.1).
    """

    __slots__ = ("name", "switch_gap_ps", "busy_ps", "_intervals")

    def __init__(self, name: str, switch_gap_ps: int) -> None:
        self.name = name
        self.switch_gap_ps = switch_gap_ps
        self.busy_ps = 0
        self._intervals: List[Tuple[int, int, object]] = []  # (start, end, tag)

    def reserve(self, earliest: int, duration: int, tag: object = None) -> int:
        """Reserve the first feasible slot honouring switch gaps."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        start = self._find_gap(earliest, duration, tag)
        bisect.insort(self._intervals, (start, start + duration, tag))
        self.busy_ps += duration
        return start

    def next_free(self, earliest: int, tag: object = None) -> int:
        """Earliest feasible start without booking."""
        return self._find_gap(earliest, 1, tag)

    def probe(self, earliest: int, duration: int, tag: object = None) -> int:
        """Where ``reserve`` would land, without booking."""
        return self._find_gap(earliest, duration, tag)

    def prune_before(self, time_ps: int) -> None:
        """Drop reservations that ended at or before ``time_ps``.

        The most recent expired reservation is kept so a new reservation
        immediately after it still pays the switch gap against it.

        Unlike :meth:`BusResource.prune_before`, *when* this runs is part
        of the model: an older expired burst within one switch gap of
        ``time_ps`` still pushes a differently-tagged grant until it is
        pruned (``tests/test_prune_timing.py`` pins a case).  The DDR2
        controller therefore prunes this bus every tick; do not make that
        lazy without accepting changed results.
        """
        intervals = self._intervals
        if len(intervals) <= 1:
            return
        for iv in intervals:
            if iv[1] <= time_ps:
                break
        else:
            return  # nothing expired: skip the rebuild allocation
        keep = [iv for iv in intervals if iv[1] > time_ps]
        if not keep:
            keep = [intervals[-1]]
        self._intervals = keep

    def utilisation(self, elapsed_ps: int) -> float:
        if elapsed_ps <= 0:
            return 0.0
        return min(1.0, self.busy_ps / elapsed_ps)

    @property
    def free_at(self) -> int:
        return self._intervals[-1][1] if self._intervals else 0

    def _gap_after_ps(self, other_tag: object, tag: object) -> int:
        return 0 if other_tag == tag else self.switch_gap_ps

    def _find_gap(self, earliest: int, duration: int, tag: object) -> int:
        start = earliest
        switch_gap = self.switch_gap_ps
        for iv_start, iv_end, iv_tag in self._intervals:
            lead = 0 if iv_tag == tag else switch_gap
            if start + duration + lead <= iv_start:
                # Fits before this interval; also respect the previous one.
                break
            shifted = iv_end + lead
            if shifted > start:
                start = shifted
        return start


class BusView:
    """Binds a tag to a shared :class:`TaggedBusResource`.

    Banks reserve data-bus time without knowing who they are; a view makes
    one (direction, rank) identity look like a plain bus.
    """

    __slots__ = ("bus", "tag")

    def __init__(self, bus: TaggedBusResource, tag: object) -> None:
        self.bus = bus
        self.tag = tag

    @property
    def name(self) -> str:
        return f"{self.bus.name}[{self.tag}]"

    def reserve(self, earliest: int, duration: int) -> int:
        return self.bus.reserve(earliest, duration, self.tag)

    def next_free(self, earliest: int) -> int:
        return self.bus.next_free(earliest, self.tag)

    def probe(self, earliest: int, duration: int) -> int:
        return self.bus.probe(earliest, duration, self.tag)
