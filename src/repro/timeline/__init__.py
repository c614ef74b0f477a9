"""Sim-time telemetry timeline (windowed counters, energy, phases).

Off by default; enable with ``SystemConfig.with_timeline()``.  When on,
a :class:`~repro.timeline.collector.TimelineCollector` snapshots the
memory-system counters every window and derives per-window bandwidth,
latency percentiles, queue occupancy, prefetch behaviour, fault retries
and a per-command energy breakdown (repro.power.EnergyAccountant).
"""
