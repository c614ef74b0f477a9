"""Latency distribution analysis.

Average latency (what the paper's Figures 5 and 10 plot) hides the tail
that queueing creates; this module summarises the captured per-request
latencies into percentiles and a fixed-bucket histogram so the idle-vs-
queued split is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.stats.collector import MemSystemStats


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ascending ``ordered``.

    Linear interpolation between the two order statistics around the
    virtual index ``(n - 1) * q / 100``, with the same float operations as
    NumPy's default ``linear`` method, so the two agree bit for bit
    (``tests/test_analysis.py`` checks it against NumPy when installed).
    """
    index = (len(ordered) - 1) * (q / 100)
    below = int(index)
    if below >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[below], ordered[below + 1]
    t = index - below
    # Interpolate from the nearer neighbour, as NumPy does.
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


@dataclass(frozen=True)
class LatencyDistribution:
    """Summary statistics of demand-read latencies (nanoseconds)."""

    count: int
    mean_ns: float
    p50_ns: float
    p90_ns: float
    p99_ns: float
    max_ns: float
    min_ns: float

    @classmethod
    def from_samples_ps(cls, samples_ps: Sequence[int]) -> "LatencyDistribution":
        """Build from picosecond samples (as captured by MemSystemStats)."""
        if not samples_ps:
            raise ValueError("no latency samples captured; call "
                             "stats.enable_latency_capture() before the run")
        ordered = [sample / 1000.0 for sample in sorted(samples_ps)]
        return cls(
            count=len(ordered),
            mean_ns=sum(samples_ps) / (1000 * len(ordered)),
            p50_ns=percentile(ordered, 50),
            p90_ns=percentile(ordered, 90),
            p99_ns=percentile(ordered, 99),
            max_ns=ordered[-1],
            min_ns=ordered[0],
        )

    @classmethod
    def from_stats(cls, stats: MemSystemStats) -> "LatencyDistribution":
        """Build from a run's stats object (capture must be enabled)."""
        if stats.demand_latency_samples is None:
            raise ValueError("latency capture was not enabled for this run")
        return cls.from_samples_ps(stats.demand_latency_samples)

    @property
    def queueing_tail_ns(self) -> float:
        """p99 minus p50 — a proxy for queueing-induced spread."""
        return self.p99_ns - self.p50_ns

    def format(self) -> str:
        """One-line human-readable summary."""
        return (
            f"n={self.count} mean={self.mean_ns:.1f}ns "
            f"p50={self.p50_ns:.1f} p90={self.p90_ns:.1f} "
            f"p99={self.p99_ns:.1f} max={self.max_ns:.1f}"
        )


def histogram_ns(
    samples_ps: Sequence[int], bucket_ns: float = 15.0, max_ns: float = 300.0
) -> Dict[str, int]:
    """Fixed-width latency histogram with an overflow bucket.

    Bucket labels are "lo-hi" ranges in ns; the last is "300+" style.
    """
    if bucket_ns <= 0 or max_ns <= 0:
        raise ValueError("bucket_ns and max_ns must be positive")
    edges: List[float] = []
    edge = 0.0
    while edge < max_ns:
        edges.append(edge)
        edge += bucket_ns
    counts: Dict[str, int] = {
        f"{int(lo)}-{int(lo + bucket_ns)}": 0 for lo in edges
    }
    overflow_label = f"{int(max_ns)}+"
    counts[overflow_label] = 0
    for sample in samples_ps:
        ns_value = sample / 1000.0
        if ns_value >= max_ns:
            counts[overflow_label] += 1
        else:
            bucket = int(ns_value // bucket_ns) * bucket_ns
            counts[f"{int(bucket)}-{int(bucket + bucket_ns)}"] += 1
    return counts
