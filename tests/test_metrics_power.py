"""Metrics and power-model tests."""

import pytest

from repro.power import (
    CommandEnergyModel,
    MicronPowerCalculator,
    relative_dynamic_power_from_commands,
)
from repro.stats import metrics
from repro.stats.collector import MemSystemStats


def stats_with(**kw):
    s = MemSystemStats()
    for key, value in kw.items():
        setattr(s, key, value)
    return s


class TestSmtSpeedup:
    def test_single_core_identity(self):
        assert metrics.smt_speedup([1.5], [1.5]) == pytest.approx(1.0)

    def test_sums_per_core_ratios(self):
        assert metrics.smt_speedup([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.5)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            metrics.smt_speedup([1.0], [1.0, 2.0])

    def test_zero_reference(self):
        with pytest.raises(ValueError):
            metrics.smt_speedup([1.0], [0.0])


class TestLatencyAndBandwidth:
    def test_average_read_latency(self):
        s = stats_with(demand_reads=2, demand_latency_sum_ps=126_000)
        assert metrics.average_read_latency_ns(s) == pytest.approx(63.0)

    def test_average_latency_empty(self):
        assert metrics.average_read_latency_ns(MemSystemStats()) == 0.0

    def test_utilized_bandwidth(self):
        s = MemSystemStats()
        s.note_activity(0)
        s.note_activity(1000)  # 1 ns window
        s.bytes_read = 4
        s.bytes_written = 4
        assert metrics.utilized_bandwidth_gbs(s) == pytest.approx(8.0)

    def test_bandwidth_empty_window(self):
        assert metrics.utilized_bandwidth_gbs(MemSystemStats()) == 0.0

    def test_queue_delay(self):
        # A per-read mean: the write adds nothing to the sum or the count.
        s = stats_with(demand_reads=1, writes=1, queue_delay_sum_ps=4000)
        assert metrics.average_queue_delay_ns(s) == pytest.approx(4.0)


class TestCoverageEfficiency:
    def test_coverage(self):
        s = stats_with(demand_reads=80, sw_prefetch_reads=20, amb_hits=50)
        assert metrics.prefetch_coverage(s) == pytest.approx(0.5)

    def test_efficiency(self):
        s = stats_with(amb_hits=30, prefetched_lines=60)
        assert metrics.prefetch_efficiency(s) == pytest.approx(0.5)

    def test_zero_denominators(self):
        assert metrics.prefetch_coverage(MemSystemStats()) == 0.0
        assert metrics.prefetch_efficiency(MemSystemStats()) == 0.0


class TestMeans:
    def test_arithmetic(self):
        assert metrics.arithmetic_mean([1.0, 3.0]) == pytest.approx(2.0)

    def test_geometric(self):
        assert metrics.geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_requires_positive(self):
        with pytest.raises(ValueError):
            metrics.geometric_mean([1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.arithmetic_mean([])

    def test_speedup_over(self):
        out = metrics.speedup_over({"a": 2.0}, {"a": 1.0})
        assert out == {"a": 2.0}

    def test_speedup_over_mismatch(self):
        with pytest.raises(ValueError):
            metrics.speedup_over({"a": 1.0}, {"b": 1.0})


class TestCollector:
    def test_record_read_completion(self):
        s = MemSystemStats()
        s.record_read_completion(63_000, 1_000, is_demand=True, amb_hit=True, line_bytes=64)
        s.record_read_completion(33_000, 0, is_demand=False, amb_hit=False, line_bytes=64)
        assert s.demand_reads == 1
        assert s.sw_prefetch_reads == 1
        assert s.total_reads == 2
        assert s.amb_hits == 1
        assert s.bytes_read == 128
        assert s.demand_latency_sum_ps == 63_000
        assert s.read_latency_sum_ps == 96_000

    def test_activity_window(self):
        s = MemSystemStats()
        assert s.elapsed_ps == 0
        s.note_activity(500)
        s.note_activity(1500)
        s.note_activity(900)  # out of order is fine
        assert s.first_activity_ps == 500
        assert s.last_activity_ps == 1500
        assert s.elapsed_ps == 1000


class TestMicronCalculator:
    def test_ratio_is_roughly_four_to_one(self):
        ratio = MicronPowerCalculator().act_to_column_ratio()
        assert 3.0 < ratio < 5.0

    def test_write_bursts_cost_slightly_more(self):
        calc = MicronPowerCalculator()
        assert calc.column_energy_nj(is_write=True) > calc.column_energy_nj()

    def test_energies_positive(self):
        calc = MicronPowerCalculator()
        assert calc.act_pre_energy_nj() > 0
        assert calc.column_energy_nj() > 0


class TestPowerModel:
    def test_weighting(self):
        model = CommandEnergyModel(act_pre_units=4.0)
        assert model.dynamic_energy_units(10, 15, 5) == pytest.approx(60.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CommandEnergyModel().dynamic_energy_units(-1, 0, 0)

    def test_relative_power_saving(self):
        base = stats_with(activates=100, column_reads=100)  # 500 units
        ap = stats_with(activates=50, column_reads=90, column_writes=30)  # 320
        assert relative_dynamic_power_from_commands(ap, base) == pytest.approx(0.64)

    def test_relative_power_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_dynamic_power_from_commands(MemSystemStats(), MemSystemStats())
