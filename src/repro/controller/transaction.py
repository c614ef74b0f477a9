"""Memory request lifecycle records."""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.controller.mapping import MappedAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections import OrderedDict

    from repro.dram.bank import Bank, RankTimer

_request_ids = itertools.count()


class RequestKind(enum.Enum):
    """What generated a memory request.

    DEMAND_READ: an L2 demand miss — the core stalls on it (via the ROB).
    SW_PREFETCH: a software cache-prefetch instruction's L2 fill — consumes
        the same memory resources as a demand read but never stalls the core.
    WRITE: an L2 writeback / store — posted, drained in the background.
    """

    DEMAND_READ = "read"
    SW_PREFETCH = "sw_prefetch"
    WRITE = "write"

    @property
    def is_read(self) -> bool:
        return self is not RequestKind.WRITE


class MemoryRequest:
    """One cacheline-sized transaction travelling through the controller.

    Timestamps (all picoseconds, -1 until set) let the stats layer compute
    queueing delay vs service time without re-deriving anything.

    Identity semantics: ``req_id`` is unique per request, so equality is
    identity — which keeps the controllers' ``deque.remove`` calls at
    pointer-compare cost on the issue hot path.

    ``bank``/``rank_timer`` (and, for FB-DIMM reads with a prefetch
    buffer, ``tag_set``/``pending_fills``) are bound once by the channel
    controller at submit, so the scheduler's per-candidate probe resolves
    nothing.
    """

    __slots__ = (
        "kind", "line_addr", "core_id", "arrival", "mapped", "on_complete",
        "req_id", "schedulable_at", "issue_time", "finish_time",
        "amb_hit", "row_hit",
        "bank", "rank_timer", "tag_set", "pending_fills",
    )

    def __init__(
        self,
        kind: RequestKind,
        line_addr: int,
        core_id: int,
        arrival: int,
        mapped: Optional[MappedAddress] = None,
        on_complete: Optional[Callable[["MemoryRequest"], None]] = None,
        req_id: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.line_addr = line_addr
        self.core_id = core_id
        self.arrival = arrival
        self.mapped = mapped
        self.on_complete = on_complete
        self.req_id = next(_request_ids) if req_id is None else req_id
        self.schedulable_at = -1  # arrival + controller overhead
        self.issue_time = -1  # first DRAM/AMB command for this request
        self.finish_time = -1  # critical data at the controller / write retired
        self.amb_hit = False  # served from the AMB cache
        self.row_hit = False  # open-page row-buffer hit
        self.bank: "Optional[Bank]" = None  # target bank (bound at submit)
        self.rank_timer: "Optional[RankTimer]" = None
        #: The prefetch tag-store set holding this line, and the buffer's
        #: region -> {line: fill time} map of in-flight group fetches.
        self.tag_set: "Optional[OrderedDict]" = None
        self.pending_fills: "Optional[Dict[int, Dict[int, int]]]" = None

    def __repr__(self) -> str:
        return (
            f"MemoryRequest(kind={self.kind!r}, line_addr={self.line_addr},"
            f" core_id={self.core_id}, arrival={self.arrival},"
            f" req_id={self.req_id})"
        )

    @property
    def latency(self) -> int:
        """Total latency seen by the requester, in picoseconds."""
        if self.finish_time < 0:
            raise ValueError(f"request {self.req_id} has not completed")
        return self.finish_time - self.arrival

    def complete(self, finish_time: int) -> None:
        """Mark done and fire the completion callback."""
        self.finish_time = finish_time
        if self.on_complete is not None:
            self.on_complete(self)
