"""The timeline collector: windowed counter snapshots on the sim clock.

The collector registers one periodic event with the simulator
(:meth:`~repro.engine.simulator.Simulator.schedule_every`) and, at each
tick, differences the current counter state against the previous
snapshot to produce one :class:`~repro.timeline.records.WindowRecord`.
Everything is driven by sim time, never wall time, so a timeline-enabled
run is exactly as deterministic as a plain one — the ticks merely add
events at fixed timestamps.

Conservation invariant: with no measurement reset, the field-wise sum of
all windows (plus the final partial window) equals the run's final
totals.  The zero-overhead guard tests in tests/test_timeline.py pin
both directions: timeline off -> bit-identical results, timeline on ->
unchanged simulation outcome plus a timeline whose sums reconcile.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import TimelineConfig
from repro.engine.simulator import Simulator
from repro.power.energy import EnergyAccountant
from repro.stats.collector import COUNTERS, MemSystemStats
from repro.timeline.records import TimelineResult, WindowRecord

#: (counter, WindowRecord field, read off the controller's live device
#: totals rather than the stats) for every counter the timeline windows.
_WINDOWED = tuple(
    (f.name, f.metadata["window"], f.metadata["scope"] == "device")
    for f in COUNTERS if f.metadata["window"]
)


def _percentile_ps(sorted_samples: List[int], p: float) -> int:
    """Nearest-rank percentile of pre-sorted integer samples."""
    if not sorted_samples:
        return 0
    rank = max(1, -(-len(sorted_samples) * int(p) // 100))  # ceil(n*p/100)
    return sorted_samples[min(rank, len(sorted_samples)) - 1]


class TimelineCollector:
    """Snapshots counter deltas every ``window_ps`` of sim time.

    The collector is deliberately decoupled from the concrete controller:
    it only needs two callables — one returning the live device/residency
    counter totals and one returning the current queue depth — so tests
    can drive it with stubs and exact synthetic schedules.
    """

    def __init__(
        self,
        sim: Simulator,
        stats: MemSystemStats,
        config: TimelineConfig,
        accountant: EnergyAccountant,
        device_counters: Callable[[], Dict[str, int]],
        queue_depth: Callable[[], int],
    ) -> None:
        if not config.enabled:
            raise ValueError("TimelineCollector requires timeline.enabled")
        self.sim = sim
        self.stats = stats
        self.config = config
        self.accountant = accountant
        self._device_counters = device_counters
        self._queue_depth = queue_depth
        self.windows: List[WindowRecord] = []
        self.resets = 0
        self.truncated = False
        self._started = False
        self._window_start = 0
        self._prev: Dict[str, int] = {}
        self._sample_offset = 0
        if config.capture_latency:
            stats.enable_latency_capture()

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Take the opening snapshot and arm the periodic tick."""
        if self._started:
            raise RuntimeError("a TimelineCollector starts exactly once")
        self._started = True
        self._window_start = self.sim.now
        self._prev = self._snapshot()
        self._sample_offset = self._sample_count()
        self.sim.schedule_every(self.config.window_ps, self._tick)

    def on_measurement_reset(self) -> None:
        """Warm-up discard: drop recorded windows, re-anchor deltas.

        Called by the controller *after* ``stats.reset_measurement()``,
        so the fresh snapshot reads the already-zeroed completion
        counters.  The tick cadence stays on its original grid, which
        makes the first post-reset window shorter than ``window_ps``
        unless the reset lands exactly on a boundary.
        """
        self.windows = []
        self.resets += 1
        self.truncated = False
        self._window_start = self.sim.now
        self._prev = self._snapshot()
        self._sample_offset = self._sample_count()

    def finalize(self, end_ps: int) -> TimelineResult:
        """Emit the final partial window (if any) and wrap up.

        A run rarely ends on a window boundary; whatever accumulated
        since the last tick becomes one short final window.  When the
        run ends *exactly* on a boundary the tick already emitted that
        window and ``end_ps == window start``, so nothing is added — a
        zero-length window is never recorded.
        """
        if end_ps > self._window_start and not self.truncated:
            self._emit(end_ps)
        return TimelineResult(
            window_ps=self.config.window_ps,
            windows=self.windows,
            resets=self.resets,
            truncated=self.truncated,
        )

    # ------------------------------------------------------------------

    def _tick(self) -> object:
        if len(self.windows) >= self.config.max_windows:
            self.truncated = True
            return False  # ends the periodic series
        self._emit(self.sim.now)
        return None

    def _sample_count(self) -> int:
        samples = self.stats.demand_latency_samples
        return len(samples) if samples is not None else 0

    def _snapshot(self) -> Dict[str, int]:
        """Windowed counter totals, keyed by WindowRecord field."""
        device = self._device_counters()
        stats = self.stats
        return {
            window: device.get(name, 0) if from_device else getattr(stats, name)
            for name, window, from_device in _WINDOWED
        }

    def _emit(self, end_ps: int) -> None:
        now = self._snapshot()
        prev = self._prev
        delta = {key: value - prev[key] for key, value in now.items()}
        duration_ps = end_ps - self._window_start

        p50 = p95 = p99 = lat_max = 0
        samples = self.stats.demand_latency_samples
        if samples is not None:
            fresh = sorted(samples[self._sample_offset:])
            self._sample_offset = len(samples)
            if fresh:
                p50 = _percentile_ps(fresh, 50)
                p95 = _percentile_ps(fresh, 95)
                p99 = _percentile_ps(fresh, 99)
                lat_max = fresh[-1]

        energy = self.accountant.interval_energy(
            activates=delta["activates"],
            column_reads=delta["column_reads"],
            column_writes=delta["column_writes"],
            refreshes=delta["refreshes"],
            interval_ps=duration_ps,
            powerdown_ps=delta["powerdown_ps"],
        )

        self.windows.append(WindowRecord(
            index=len(self.windows),
            start_ps=self._window_start,
            end_ps=end_ps,
            latency_p50_ps=p50,
            latency_p95_ps=p95,
            latency_p99_ps=p99,
            latency_max_ps=lat_max,
            queue_depth=self._queue_depth(),
            energy_act_nj=energy.act_nj,
            energy_rd_nj=energy.rd_nj,
            energy_wr_nj=energy.wr_nj,
            energy_refresh_nj=energy.refresh_nj,
            energy_background_nj=energy.background_nj,
            **delta,
        ))
        self._prev = now
        self._window_start = end_ps
