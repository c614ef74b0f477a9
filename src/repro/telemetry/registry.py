"""Named, self-describing metrics: counters, gauges and log-scaled histograms.

The raw simulator counters live in bare dataclass ints
(:class:`repro.stats.collector.MemSystemStats`) because the hot path must
stay allocation-free.  This module provides the *presentation* layer on
top: every quantity gets a name, a help string and a typed snapshot, so
exporters (JSON, JSONL streams, the trace CLI) never need to know which
dataclass field a number came from.  :func:`registry_from_stats` adapts a
finished ``MemSystemStats`` into a registry without changing its API.
"""

from __future__ import annotations

import json
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

if TYPE_CHECKING:
    from repro.stats.collector import MemSystemStats


class Counter:
    """A monotonically increasing integer metric."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative: counters never go down)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another counter in (counts from parallel workers sum)."""
        self.inc(other.value)

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """A point-in-time value that may move in either direction."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: last write wins.

        A gauge is a point-in-time snapshot, so there is no universally
        correct cross-worker combination; aggregate quantities (mean
        latency, total bandwidth) should be re-derived from the merged
        *counters* instead of averaged gauges.
        """
        self.value = other.value

    def snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """Log-scaled histogram of non-negative integers (latencies in ps).

    Buckets are powers of two: bucket ``i`` holds values in
    ``(2**(i-1), 2**i]`` (bucket 0 holds exactly 0).  That keeps memory
    bounded (~64 buckets for any picosecond quantity) at ~2x resolution,
    which is plenty for latency-distribution shape and percentiles.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self._buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        """Record one sample (negative values are a caller bug)."""
        if value < 0:
            raise ValueError(f"histogram {self.name}: negative sample {value}")
        index = int(value).bit_length()
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in, bucket by bucket.

        Exact: the merged histogram equals one built by observing both
        sample streams, so per-worker latency histograms from parallel
        runs aggregate losslessly (percentiles keep bucket resolution).
        """
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def buckets(self) -> List[Tuple[int, int]]:
        """(bucket upper bound, count) pairs in ascending order."""
        return [
            (0 if i == 0 else 2 ** i, self._buckets[i])
            for i in sorted(self._buckets)
        ]

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (0 < p <= 100), bucket-resolution.

        Returns the upper bound of the bucket containing the p-th sample,
        clamped to the observed maximum — an over-estimate by at most 2x.
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for upper, count in self.buckets():
            seen += count
            if seen >= rank:
                assert self.max is not None
                return float(min(upper, self.max))
        assert self.max is not None
        return float(self.max)

    def snapshot(self) -> Dict[str, object]:
        return {
            "type": self.kind,
            "help": self.help,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "buckets": self.buckets(),
        }


#: The concrete metric classes ``_get_or_create`` can hand back.
_MetricT = TypeVar("_MetricT", Counter, Gauge, Histogram)


class MetricsRegistry:
    """An ordered collection of named metrics with one snapshot surface.

    ``counter()`` / ``gauge()`` / ``histogram()`` get-or-create, so model
    code can call them repeatedly without bookkeeping; asking for an
    existing name with a different metric type is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(
        self, cls: Type[_MetricT], name: str, help: str
    ) -> _MetricT:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}"
                )
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        """Registered metric names, in registration order."""
        return list(self._metrics)

    def get(self, name: str) -> Any:
        return self._metrics.get(name)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in, metric by metric.

        Metrics missing here are created with the other registry's help
        text; same-name metrics must agree on type (counters sum,
        histograms merge bucket-wise, gauges take the incoming value).
        The parallel experiment runner uses this to aggregate per-worker
        metrics that were previously dropped.
        """
        for name, metric in other._metrics.items():
            mine = self._get_or_create(type(metric), name, metric.help)
            mine.merge(metric)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Name -> self-describing value dict, in registration order."""
        return {name: m.snapshot() for name, m in self._metrics.items()}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def to_records(self) -> List[Dict[str, object]]:
        """One flat dict per metric, for JSONL streaming."""
        records = []
        for name, snap in self.snapshot().items():
            record: Dict[str, object] = {"name": name}
            record.update(snap)
            records.append(record)
        return records


def _dynamic_energy_units(stats: MemSystemStats) -> float:
    """Per-command dynamic energy of a finished run (fig13's basis)."""
    from repro.power.energy import CommandEnergyModel

    return CommandEnergyModel().energy_of(stats)


def registry_from_stats(
    stats: MemSystemStats, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Adapt a :class:`~repro.stats.collector.MemSystemStats` into metrics.

    Every declared counter (:data:`~repro.stats.collector.COUNTERS`)
    becomes a named :class:`Counter` with its declared help text; the derived
    paper quantities (latency, bandwidth, coverage, efficiency) become
    gauges; captured per-request latencies (``enable_latency_capture``)
    become a histogram.  The stats object itself is left untouched.
    """
    from repro.stats import metrics as derived
    from repro.stats.collector import COUNTERS

    reg = registry if registry is not None else MetricsRegistry()

    for f in COUNTERS:
        reg.counter(f"mem.{f.name}", f.metadata["help"]).inc(getattr(stats, f.name))

    gauges = (
        ("mem.elapsed_ps", "active window length", float(stats.elapsed_ps)),
        ("mem.avg_read_latency_ns", "mean demand-read latency",
         derived.average_read_latency_ns(stats)),
        ("mem.avg_queue_delay_ns", "mean schedulable-to-issue delay",
         derived.average_queue_delay_ns(stats)),
        ("mem.utilized_bandwidth_gbs", "data moved over the channels",
         derived.utilized_bandwidth_gbs(stats)),
        ("mem.prefetch_coverage", "#prefetch_hit / #read",
         derived.prefetch_coverage(stats)),
        ("mem.prefetch_efficiency", "#prefetch_hit / #prefetch",
         derived.prefetch_efficiency(stats)),
        ("mem.prefetch_accuracy", "used prefetches / issued prefetches",
         derived.prefetch_accuracy(stats)),
        ("mem.prefetch_pollution", "evicted-unused prefetches / issued",
         derived.prefetch_pollution(stats)),
        ("mem.prefetch_timeliness", "timely useful prefetches / useful",
         derived.prefetch_timeliness(stats)),
        ("mem.lifecycle_coverage", "pf_hits / #read (lifecycle path)",
         derived.lifecycle_coverage(stats)),
        ("mem.dynamic_energy_units", "per-command dynamic energy",
         _dynamic_energy_units(stats)),
        ("mem.powerdown_residency", "power-down share of the idle time",
         stats.powerdown_ps / stats.idle_ps if stats.idle_ps else 0.0),
    )
    for name, help, value in gauges:
        reg.gauge(name, help).set(value)

    for name, busy_ps in sorted(stats.per_channel_busy_ps.items()):
        reg.gauge(
            f"mem.busy_ps.{name}", "bus/link occupancy in picoseconds"
        ).set(float(busy_ps))

    for core_id in sorted(stats.per_core_reads):
        entry = stats.per_core_reads[core_id]
        reads, latency_sum = entry[0], entry[1]
        queue_sum = entry[2] if len(entry) > 2 else 0
        prefix = f"mem.core{core_id}"
        reg.counter(f"{prefix}.demand_reads", "per-core demand reads").inc(reads)
        reg.counter(
            f"{prefix}.demand_latency_sum_ps", "per-core latency sum"
        ).inc(latency_sum)
        reg.counter(
            f"{prefix}.queue_delay_sum_ps", "per-core queue-delay sum"
        ).inc(queue_sum)

    if stats.demand_latency_samples:
        hist = reg.histogram(
            "mem.demand_latency_ps", "per-request demand-read latency"
        )
        for sample in stats.demand_latency_samples:
            hist.observe(sample)
    return reg


def merge_records(registries: Iterable[MetricsRegistry]) -> List[Dict[str, object]]:
    """Flatten several registries into one JSONL-ready record list."""
    records: List[Dict[str, object]] = []
    for registry in registries:
        records.extend(registry.to_records())
    return records
