"""The prefetch buffer: one tag store, its in-flight fills and its policy.

Section 3.2 (Figure 3) places the buffer's tags at the memory controller
and its data in the AMB; the comparison point (Lin et al.) keeps the data
at the controller too.  Both placements are this one class — the channel
controller decides only where the lines cross the channel:

* ``PrefetchLocation.AMB``: one buffer per DIMM, mirroring that AMB's SRAM;
  a parity check guards each hit when faults are injected.
* ``PrefetchLocation.CONTROLLER``: one buffer per channel, with the
  capacity of all the channel's AMB caches together.

The buffer owns the prediction policy, so under the controller placement
one policy trains on the whole channel's demand stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.controller.prefetch_table import PrefetchTable
from repro.prefetch.policy import create_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import AmbPrefetchConfig
    from repro.faults.retry import ChannelFaults
    from repro.prefetch.lifecycle import PrefetchLifecycle


class PrefetchBuffer:
    """Prefetched lines held for demand reads: resident or still filling."""

    __slots__ = (
        "table", "pending", "policy", "lifecycle", "faults",
        "prefetched_lines", "_region_lines",
    )

    def __init__(
        self,
        config: "AmbPrefetchConfig",
        faults: "Optional[ChannelFaults]" = None,
    ) -> None:
        self.table = PrefetchTable(config)
        #: Prediction policy deciding each group fetch's companion lines.
        self.policy = create_policy(config)
        #: In-flight group fetches: region id -> {line -> fill time}.  A
        #: read that arrives while its region is still filling merges with
        #: the fill instead of re-fetching.
        self.pending: Dict[int, Dict[int, int]] = {}
        #: Fault-injection state driving the per-hit parity check; None
        #: (the controller placement, or a clean channel) skips it.
        self.faults = faults
        #: Optional per-prefetch lifecycle tracker (observation only);
        #: None keeps every hook free.
        self.lifecycle: "Optional[PrefetchLifecycle]" = None
        self.prefetched_lines = 0  # lines written into the buffer
        self._region_lines = config.region_cachelines

    def attach_lifecycle(self, lifecycle: "PrefetchLifecycle") -> None:
        """Report every fill, hit, eviction and invalidation to ``lifecycle``."""
        self.lifecycle = lifecycle
        self.table.lifecycle = lifecycle

    def lookup(self, line: int) -> Optional[int]:
        """Probe for a demand read: 0 when ``line`` is resident, its fill
        time while its group fetch is still in flight, None on a miss."""
        table = self.table
        if (
            self.faults is not None
            and table.contains(line)
            and self.faults.cached_line_flipped()
        ):
            # Parity detected a bit-flipped copy: void the entry before the
            # tag probe, so the lookup below counts a miss and the demand
            # re-fetches the line from DRAM (no silent corruption served).
            table.invalidate(line)
            if self.lifecycle is not None:
                self.lifecycle.on_invalidate(line)
        if table.lookup(line):
            if self.lifecycle is not None:
                self.lifecycle.on_hit(line)
            self.policy.observe_hit(line)
            return 0
        pending = self.pending.get(line // self._region_lines)
        if pending is not None and line in pending:
            table.stats.hits += 1  # merged with an in-flight fill
            if self.lifecycle is not None:
                self.lifecycle.on_late(line)
            return pending[line]
        return None

    def miss(self, line: int) -> List[int]:
        """The group fetch for a missed ``line``, in fetch order: the line
        itself first, then the policy's companions (under the default
        region policy, the rest of the region by address)."""
        policy = self.policy
        policy.observe_miss(line)
        return [line] + policy.prefetch_lines(line)

    def start_fills(self, region: int, fills: Dict[int, int]) -> None:
        """Book a group fetch's companion lines, ``{line: fill time}``."""
        if fills:
            self.pending[region] = fills
            self.prefetched_lines += len(fills)
            if self.lifecycle is not None:
                self.lifecycle.on_issue(fills)

    def commit(self, region: int) -> None:
        """Move a completed group fetch from pending state into the tags."""
        fills = self.pending.pop(region, None)
        if fills:
            if self.lifecycle is not None:
                # Fills become resident before the insert below so that a
                # same-batch eviction of a just-filled line is charged to
                # the right instance.
                self.lifecycle.on_fill(fills)
            self.table.insert(fills.keys())

    def invalidate(self, line: int) -> None:
        """A write to ``line`` makes any buffered copy stale."""
        self.table.invalidate(line)
        pending = self.pending.get(line // self._region_lines)
        if pending is not None:
            pending.pop(line, None)
        if self.lifecycle is not None:
            self.lifecycle.on_invalidate(line)
