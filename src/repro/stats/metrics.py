"""Derived metrics: the quantities the paper's figures report."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.stats.collector import MemSystemStats


def smt_speedup(
    core_ipcs: Sequence[float], reference_ipcs: Sequence[float]
) -> float:
    """SMT speedup (Snavely/Tullsen, Section 4.2).

    ``sum_i IPC_cmp[i] / IPC_single[i]`` where the reference is each
    program's IPC running alone (on the single-core DDR2 system for the
    paper's absolute figures).
    """
    if len(core_ipcs) != len(reference_ipcs):
        raise ValueError("need one reference IPC per core")
    if any(ref <= 0 for ref in reference_ipcs):
        raise ValueError("reference IPCs must be positive")
    return sum(ipc / ref for ipc, ref in zip(core_ipcs, reference_ipcs))


def average_read_latency_ns(stats: MemSystemStats) -> float:
    """Mean latency of demand reads, in nanoseconds."""
    if stats.demand_reads == 0:
        return 0.0
    return stats.demand_latency_sum_ps / stats.demand_reads / 1000.0


def average_queue_delay_ns(stats: MemSystemStats) -> float:
    """Mean time a read waited before its first command (writes add
    nothing to ``queue_delay_sum_ps``, so they count in neither term)."""
    if stats.total_reads == 0:
        return 0.0
    return stats.queue_delay_sum_ps / stats.total_reads / 1000.0


def utilized_bandwidth_gbs(stats: MemSystemStats) -> float:
    """Data actually moved over the channels, in GB/s (Figures 5 and 10).

    Counts demanded read lines and write lines; prefetched lines that stay
    behind the AMB never cross the channel and never count.
    """
    if stats.elapsed_ps <= 0:
        return 0.0
    total_bytes = stats.bytes_read + stats.bytes_written
    return total_bytes / (stats.elapsed_ps / 1000.0)  # B/ns == GB/s


def prefetch_coverage(stats: MemSystemStats) -> float:
    """coverage = #prefetch_hit / #read (Section 5.2)."""
    if stats.total_reads == 0:
        return 0.0
    return stats.amb_hits / stats.total_reads


def prefetch_efficiency(stats: MemSystemStats) -> float:
    """efficiency = #prefetch_hit / #prefetch (Section 5.2)."""
    if stats.prefetched_lines == 0:
        return 0.0
    return stats.amb_hits / stats.prefetched_lines


def prefetch_accuracy(stats: MemSystemStats) -> float:
    """accuracy = used prefetches / issued prefetches.

    Fed by the lifecycle taxonomy (:mod:`repro.prefetch.lifecycle`); zero
    whenever lifecycle tracking is off.
    """
    if stats.pf_issued == 0:
        return 0.0
    return stats.pf_used / stats.pf_issued


def prefetch_pollution(stats: MemSystemStats) -> float:
    """pollution = prefetches evicted unused / issued prefetches."""
    if stats.pf_issued == 0:
        return 0.0
    return stats.pf_evicted_unused / stats.pf_issued


def prefetch_timeliness(stats: MemSystemStats) -> float:
    """timeliness = timely useful prefetches / all useful prefetches.

    A prefetch is *useful* when a demand wanted its line (``used`` or
    ``late_unused``) and *timely* when the line was already resident
    (``used``).  1.0 means every useful prefetch arrived in time.
    """
    useful = stats.pf_used + stats.pf_late_unused
    if useful == 0:
        return 0.0
    return stats.pf_used / useful


def lifecycle_coverage(stats: MemSystemStats) -> float:
    """coverage recomputed from the lifecycle path: pf_hits / #read.

    ``PrefetchLifecycle.finalize`` sets ``pf_hits`` from ``amb_hits``, so
    with lifecycle tracking on this reproduces :func:`prefetch_coverage`
    identically (pinned by a regression test on the fig08 experiment);
    with it off ``pf_hits`` stays 0.
    """
    if stats.total_reads == 0:
        return 0.0
    return stats.pf_hits / stats.total_reads


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, for summarising normalised results."""
    if not values:
        raise ValueError("need at least one value")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain mean, the paper's summary for speedups and bandwidth."""
    if not values:
        raise ValueError("need at least one value")
    return sum(values) / len(values)


def speedup_over(
    metric: Mapping[str, float], baseline: Mapping[str, float]
) -> "dict[str, float]":
    """Per-key ratio of two result tables (e.g. FBD-AP over FBD)."""
    missing = set(metric) ^ set(baseline)
    if missing:
        raise ValueError(f"mismatched workloads: {sorted(missing)}")
    return {key: metric[key] / baseline[key] for key in metric}
