"""The prefetch-policy interface at the AMB/controller boundary.

A policy decides *which* lines accompany a demand miss; the prefetch
buffer that owns it (:mod:`repro.controller.prefetch_buffer`) and the
channel controller decide *how* they are fetched, buffered and accounted.
The split mirrors the demand-vs-prefetch queue separation of DRAMSim-class
models: the policy sees the demand stream (miss/hit training hooks) and
answers one question — given this demanded line, which other lines should
ride along on the group fetch.

The paper's Section 3.2 region prefetcher is re-hosted here bit-identically
(:class:`RegionPrefetchPolicy`); the lifecycle counters in
:mod:`repro.prefetch.lifecycle` are shared by every policy, so future
policies (DSPatch-class dual-pattern, stride/stream) are measured by the
same accuracy/coverage/pollution/timeliness instruments.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import AmbPrefetchConfig


class PrefetchPolicy(abc.ABC):
    """Decides the companion lines of a demand miss.

    Contract:

    * :meth:`prefetch_lines` returns the line addresses to fetch alongside
      ``demanded_line``, in fetch order, *excluding* the demanded line
      itself (the controller always fetches the demanded line first and
      cut-through-forwards it).  Lines must be non-negative and distinct.
    * :meth:`observe_hit` / :meth:`observe_miss` are training hooks called
      on the demand stream (before the corresponding fetch is issued).
      Stateless policies ignore them.
    * Policies must be deterministic: the same call sequence yields the
      same predictions (the conformance digest suite pins this).
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def observe_hit(self, line_addr: int) -> None:
        """A demand read hit the prefetch buffer (training signal)."""

    def observe_miss(self, line_addr: int) -> None:
        """A demand read missed and will trigger a group fetch."""

    @abc.abstractmethod
    def prefetch_lines(self, demanded_line: int) -> List[int]:
        """Companion lines to fetch with ``demanded_line``, in order."""


class RegionPrefetchPolicy(PrefetchPolicy):
    """The paper's region prefetcher (Section 3.2), behind the interface.

    A miss to line L fetches the remaining lines of L's aligned K-line
    region in ascending address order, so the group fetch order is
    ``[demanded] + [other region lines by address]``.
    """

    name = "region"

    def __init__(self, region_cachelines: int) -> None:
        if region_cachelines < 1:
            raise ValueError("region_cachelines must be >= 1")
        self.region_cachelines = region_cachelines

    def prefetch_lines(self, demanded_line: int) -> List[int]:
        k = self.region_cachelines
        base = (demanded_line // k) * k
        return [line for line in range(base, base + k) if line != demanded_line]


#: name -> factory(config).  A factory receives the full prefetch config so
#: policies can read their geometry (K, cache size) from it.
_POLICIES: Dict[str, Callable[["AmbPrefetchConfig"], PrefetchPolicy]] = {}


def register_policy(
    name: str,
) -> Callable[
    [Callable[["AmbPrefetchConfig"], PrefetchPolicy]],
    Callable[["AmbPrefetchConfig"], PrefetchPolicy],
]:
    """Decorator registering a policy factory under ``name``."""

    def wrap(
        factory: Callable[["AmbPrefetchConfig"], PrefetchPolicy],
    ) -> Callable[["AmbPrefetchConfig"], PrefetchPolicy]:
        if name in _POLICIES:
            raise ValueError(f"prefetch policy {name!r} already registered")
        # Registration runs only at import time (decorator application in
        # a module body), so every ProcessPool worker builds an identical
        # registry — there is no run-time mutation to leak between runs.
        _POLICIES[name] = factory  # repro: ignore[worker-shared-state]
        return factory

    return wrap


@register_policy("region")
def _make_region(config: "AmbPrefetchConfig") -> PrefetchPolicy:
    return RegionPrefetchPolicy(config.region_cachelines)


def policy_names() -> List[str]:
    """Registered policy names, sorted."""
    return sorted(_POLICIES)


def create_policy(config: "AmbPrefetchConfig") -> PrefetchPolicy:
    """Instantiate the policy named by ``config.policy``."""
    try:
        factory = _POLICIES[config.policy]
    except KeyError:
        known = ", ".join(policy_names())
        raise ValueError(
            f"unknown prefetch policy {config.policy!r}; known: {known}"
        ) from None
    return factory(config)
