"""Human-readable rendering of a recorded timeline.

``repro timeline report`` (and the timeline section of
:func:`repro.analysis.report.run_report`) render the per-window series
as ASCII sparklines over a totals summary, so a run's bandwidth burst,
latency tail, and power-down residency are visible at a glance without
leaving the terminal.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.timeline.phases import detect_phases
from repro.timeline.records import TimelineResult, WindowRecord

#: Sparkline glyph ramp, lowest to highest.
_BARS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render values as a fixed-width sparkline (mean-downsampled)."""
    if not values:
        return ""
    if len(values) > width:
        # Bucket-mean downsampling keeps bursts visible without aliasing
        # to whichever sample happens to land on a column.
        bucketed: List[float] = []
        per = len(values) / width
        for col in range(width):
            lo = int(col * per)
            hi = max(int((col + 1) * per), lo + 1)
            chunk = values[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        values = bucketed
    top = max(values)
    if top <= 0:
        return " " * len(values)
    glyphs = []
    for value in values:
        rank = round(value / top * (len(_BARS) - 1))
        glyphs.append(_BARS[max(0, min(rank, len(_BARS) - 1))])
    return "".join(glyphs)


def _totals(windows: Sequence[WindowRecord]) -> dict:
    """Field-wise sums (and maxima where summing is meaningless)."""
    t = {
        "demand_reads": 0, "sw_prefetch_reads": 0, "writes": 0,
        "amb_hits": 0, "bytes_read": 0, "bytes_written": 0,
        "demand_latency_sum_ps": 0, "queue_delay_sum_ps": 0,
        "fault_retries": 0, "activates": 0, "column_reads": 0,
        "column_writes": 0, "refreshes": 0, "row_hits": 0,
        "row_misses": 0, "prefetched_lines": 0, "idle_ps": 0,
        "powerdown_ps": 0, "energy_act_nj": 0.0, "energy_rd_nj": 0.0,
        "energy_wr_nj": 0.0, "energy_refresh_nj": 0.0,
        "energy_background_nj": 0.0, "latency_max_ps": 0,
        "queue_depth_max": 0, "duration_ps": 0,
        "pf_issued": 0, "pf_used": 0, "pf_evicted_unused": 0,
        "pf_late_unused": 0, "pf_invalidated": 0,
    }
    for w in windows:
        t["demand_reads"] += w.demand_reads
        t["sw_prefetch_reads"] += w.sw_prefetch_reads
        t["writes"] += w.writes
        t["amb_hits"] += w.amb_hits
        t["bytes_read"] += w.bytes_read
        t["bytes_written"] += w.bytes_written
        t["demand_latency_sum_ps"] += w.demand_latency_sum_ps
        t["queue_delay_sum_ps"] += w.queue_delay_sum_ps
        t["fault_retries"] += w.fault_retries
        t["activates"] += w.activates
        t["column_reads"] += w.column_reads
        t["column_writes"] += w.column_writes
        t["refreshes"] += w.refreshes
        t["row_hits"] += w.row_hits
        t["row_misses"] += w.row_misses
        t["prefetched_lines"] += w.prefetched_lines
        t["idle_ps"] += w.idle_ps
        t["powerdown_ps"] += w.powerdown_ps
        t["energy_act_nj"] += w.energy_act_nj
        t["energy_rd_nj"] += w.energy_rd_nj
        t["energy_wr_nj"] += w.energy_wr_nj
        t["energy_refresh_nj"] += w.energy_refresh_nj
        t["energy_background_nj"] += w.energy_background_nj
        t["pf_issued"] += w.pf_issued
        t["pf_used"] += w.pf_used
        t["pf_evicted_unused"] += w.pf_evicted_unused
        t["pf_late_unused"] += w.pf_late_unused
        t["pf_invalidated"] += w.pf_invalidated
        t["latency_max_ps"] = max(t["latency_max_ps"], w.latency_max_ps)
        t["queue_depth_max"] = max(t["queue_depth_max"], w.queue_depth)
        t["duration_ps"] += w.duration_ps
    return t


def timeline_report(
    timeline: TimelineResult,
    width: int = 60,
    label: Optional[str] = None,
) -> str:
    """Render one timeline: header, sparklines, totals, phase changes."""
    lines: List[str] = []
    title = f"timeline: {label}" if label else "timeline"
    lines.append(title)
    n = len(timeline.windows)
    span_ns = (timeline.end_ps - timeline.start_ps) / 1000.0
    flags = []
    if timeline.resets:
        flags.append(f"resets={timeline.resets}")
    if timeline.truncated:
        flags.append("TRUNCATED at max_windows")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    lines.append(
        f"  {n} windows x {timeline.window_ps / 1000.0:.1f} ns"
        f" covering {span_ns:.1f} ns{suffix}"
    )
    if not n:
        return "\n".join(lines)

    for name, fmt_label in (
        ("bandwidth_gbs", "bandwidth GB/s"),
        ("avg_latency_ns", "read latency ns"),
        ("queue_depth", "queue depth"),
        ("avg_power_w", "power W"),
        ("powerdown_fraction", "power-down frac"),
    ):
        series = timeline.series(name)
        peak = max(series)
        lines.append(
            f"  {fmt_label:<16} |{sparkline(series, width)}| peak {peak:.3g}"
        )

    t = _totals(timeline.windows)
    reads = t["demand_reads"] + t["sw_prefetch_reads"]
    lines.append(
        f"  reads {t['demand_reads']} demand + {t['sw_prefetch_reads']} swpf,"
        f" writes {t['writes']}, AMB hits {t['amb_hits']}"
        f" ({t['amb_hits'] / reads:.1%} of reads)" if reads else
        f"  reads 0, writes {t['writes']}"
    )
    lines.append(
        f"  traffic {(t['bytes_read'] + t['bytes_written']) / 1e6:.2f} MB"
        f" ({t['bytes_read']} B read, {t['bytes_written']} B written)"
    )
    row_total = t["row_hits"] + t["row_misses"]
    hit_rate = t["row_hits"] / row_total if row_total else 0.0
    lines.append(
        f"  DRAM: {t['activates']} ACT, {t['column_reads']} RD,"
        f" {t['column_writes']} WR, {t['refreshes']} REF,"
        f" row-hit {hit_rate:.1%}, {t['prefetched_lines']} prefetched lines"
    )
    if t["demand_reads"]:
        avg_ns = t["demand_latency_sum_ps"] / t["demand_reads"] / 1000.0
        qd_ns = t["queue_delay_sum_ps"] / t["demand_reads"] / 1000.0
        lines.append(
            f"  latency: avg {avg_ns:.1f} ns (queue {qd_ns:.1f}),"
            f" worst-window max {t['latency_max_ps'] / 1000.0:.1f} ns"
        )
    dynamic_nj = (t["energy_act_nj"] + t["energy_rd_nj"]
                  + t["energy_wr_nj"] + t["energy_refresh_nj"])
    total_nj = dynamic_nj + t["energy_background_nj"]
    avg_w = total_nj / (t["duration_ps"] / 1000.0) if t["duration_ps"] else 0.0
    lines.append(
        f"  energy: {total_nj / 1000.0:.2f} uJ"
        f" (ACT {t['energy_act_nj']:.0f} + RD {t['energy_rd_nj']:.0f}"
        f" + WR {t['energy_wr_nj']:.0f} + REF {t['energy_refresh_nj']:.0f}"
        f" + background {t['energy_background_nj']:.0f} nJ),"
        f" avg power {avg_w:.3f} W"
    )
    span_ps = t["duration_ps"]
    if span_ps:
        lines.append(
            f"  residency: idle {t['idle_ps'] / span_ps:.1%},"
            f" power-down {t['powerdown_ps'] / span_ps:.1%}"
            f" of the recorded span, peak queue {t['queue_depth_max']}"
        )
    if t["fault_retries"]:
        lines.append(f"  faults: {t['fault_retries']} recovered retries")
    if t["pf_issued"]:
        lines.append(
            f"  prefetch lifecycle: {t['pf_issued']} issued ="
            f" {t['pf_used']} used + {t['pf_late_unused']} late"
            f" + {t['pf_evicted_unused']} evicted"
            f" + {t['pf_invalidated']} invalidated (+ open)"
        )

    changes = detect_phases(timeline)
    if changes:
        lines.append("  phase changes:")
        for change in changes:
            lines.append(
                f"    {change.time_ps / 1000.0:>10.1f} ns  {change.metric}:"
                f" {change.before:.3g} -> {change.after:.3g}"
                f" ({change.relative_shift:+.0%})"
            )
    # latency percentile trend (p50/p95/p99 of the busiest window)
    busiest = max(
        timeline.windows, key=lambda w: w.demand_reads + w.sw_prefetch_reads
    )
    if busiest.latency_p50_ps:
        lines.append(
            f"  busiest window #{busiest.index}"
            f" [{busiest.start_ps / 1000.0:.0f}-{busiest.end_ps / 1000.0:.0f} ns]:"
            f" p50 {busiest.latency_p50_ps / 1000.0:.1f},"
            f" p95 {busiest.latency_p95_ps / 1000.0:.1f},"
            f" p99 {busiest.latency_p99_ps / 1000.0:.1f} ns"
        )
    return "\n".join(lines)
