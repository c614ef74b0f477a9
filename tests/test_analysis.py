"""Analysis-package tests: latency distributions, utilisation and run
reports."""

import dataclasses
import random

import pytest

from repro.analysis.latency import LatencyDistribution, percentile
from repro.analysis.report import run_report
from repro.analysis.utilisation import channel_utilisation_report, utilisation_summary
from repro.config import (
    InterleaveScheme,
    PagePolicy,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.stats.collector import MemSystemStats
from repro.system import System


def small_run(config=None, insts=8_000, programs=("swim",), capture=False):
    config = dataclasses.replace(
        config or fbdimm_baseline(len(programs)), instructions_per_core=insts
    )
    system = System(config, list(programs))
    if capture:
        system.controller.stats.enable_latency_capture()
    return system.run()


class TestLatencyDistribution:
    def test_from_samples(self):
        dist = LatencyDistribution.from_samples_ps([63_000, 63_000, 100_000])
        assert dist.count == 3
        assert dist.min_ns == pytest.approx(63.0)
        assert dist.max_ns == pytest.approx(100.0)
        assert dist.mean_ns == pytest.approx(75.333, abs=0.01)
        assert dist.p50_ns == pytest.approx(63.0)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            LatencyDistribution.from_samples_ps([])

    def test_from_stats_requires_capture(self):
        with pytest.raises(ValueError):
            LatencyDistribution.from_stats(MemSystemStats())

    def test_capture_through_a_real_run(self):
        result = small_run(capture=True)
        dist = LatencyDistribution.from_stats(result.mem)
        assert dist.count == result.mem.demand_reads
        assert dist.min_ns >= 63.0  # idle latency is the floor
        assert dist.p50_ns <= dist.p90_ns <= dist.p99_ns <= dist.max_ns

    def test_format(self):
        dist = LatencyDistribution.from_samples_ps([63_000])
        assert "p99" in dist.format()

    def test_input_order_does_not_matter(self):
        samples = [163_000, 63_000, 80_000, 63_000, 500_000, 91_000]
        shuffled = LatencyDistribution.from_samples_ps(samples)
        assert shuffled == LatencyDistribution.from_samples_ps(sorted(samples))
        assert samples[0] == 163_000  # the caller's list is not sorted in place


class TestPercentile:
    def test_endpoints_are_min_and_max(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert percentile(ordered, 0) == 1.0
        assert percentile(ordered, 100) == 4.0
        assert percentile([7.5], 99) == 7.5

    def test_interpolates_between_order_statistics(self):
        ordered = [10.0, 20.0, 30.0, 40.0]
        assert percentile(ordered, 50) == 25.0  # index 1.5
        assert percentile(ordered, 90) == pytest.approx(37.0)  # index 2.7
        assert percentile(ordered, 10) == pytest.approx(13.0)  # index 0.3


def _oracle_cases():
    rng = random.Random(2007)
    cases = {
        "n=1": [63_000],
        "n=2": [63_000, 100_000],
        "all-equal": [70_500] * 17,
        "ties": [63_000] * 5 + [80_000] * 4 + [163_000] * 3,
        "odd": [rng.randint(50_000, 900_000) for _ in range(101)],
        "even": [rng.randint(50_000, 900_000) for _ in range(100)],
    }
    for i in range(40):
        n = rng.randint(1, 700)
        cases[f"random-{i}"] = [rng.randint(1, 5_000_000) for _ in range(n)]
    return cases


ORACLE_CASES = _oracle_cases()


class TestPercentileOracle:
    """The pure-Python summary equals NumPy's on the same samples."""

    @pytest.mark.parametrize("samples", list(ORACLE_CASES.values()),
                             ids=list(ORACLE_CASES))
    def test_matches_numpy(self, samples):
        np = pytest.importorskip("numpy")
        dist = LatencyDistribution.from_samples_ps(samples)
        arr = np.asarray(samples, dtype=np.float64) / 1000.0
        assert dist.count == len(samples)
        assert dist.p50_ns == float(np.percentile(arr, 50))
        assert dist.p90_ns == float(np.percentile(arr, 90))
        assert dist.p99_ns == float(np.percentile(arr, 99))
        assert dist.min_ns == float(arr.min())
        assert dist.max_ns == float(arr.max())
        assert dist.mean_ns == pytest.approx(float(arr.mean()), rel=1e-12)


class TestUtilisation:
    def test_report_sorted_and_bounded(self):
        result = small_run()
        report = channel_utilisation_report(result.mem)
        assert report, "FB-DIMM runs must track link occupancy"
        fractions = [r.busy_fraction for r in report]
        assert fractions == sorted(fractions, reverse=True)
        assert all(0 <= f <= 1 for f in fractions)

    def test_summary_keys(self):
        result = small_run()
        summary = utilisation_summary(result.mem)
        assert summary["utilized_bandwidth_gbs"] > 0
        assert 0 < summary["mean_link_busy_fraction"] <= 1
        assert summary["links_tracked"] == 8  # 4 channels x north+south

    def test_empty_stats(self):
        assert channel_utilisation_report(MemSystemStats()) == []


class TestRunReport:
    def test_report_mentions_key_facts(self):
        result = small_run(config=fbdimm_amb_prefetch(1))
        text = run_report(result)
        assert "fbdimm" in text
        assert "AMB prefetching: K=4" in text
        assert "swim" in text
        assert "coverage" in text
        assert "ACT/PRE" in text

    def test_report_without_prefetch(self):
        result = small_run()
        assert "AMB prefetching: off" in run_report(result)

    def test_report_per_core_queueing_column(self):
        result = small_run(
            config=fbdimm_baseline(2), programs=("swim", "mgrid")
        )
        text = run_report(result)
        assert "queueing" in text
        # Every core accumulated the third (queue-delay) counter.
        for entry in result.mem.per_core_reads.values():
            assert len(entry) == 3
            assert entry[2] >= 0

    def test_report_tolerates_legacy_two_field_entries(self):
        result = small_run()
        result.mem.per_core_reads[0] = [5, 315_000]  # pre-queue-delay shape
        assert "63.0ns" in run_report(result)

    def test_report_all_reads_latency_line(self):
        # read_latency_sum_ps covers sw-prefetch reads too; the report
        # must surface it, not just the demand-only average.
        result = small_run()
        mem = result.mem
        assert mem.total_reads > mem.demand_reads  # sw prefetch ran
        expected_ns = mem.read_latency_sum_ps / mem.total_reads / 1000
        text = run_report(result)
        assert f"incl. sw-prefetch {expected_ns:.1f} ns" in text

    def test_report_row_buffer_line_open_page(self):
        config = fbdimm_baseline(1).with_memory(
            page_policy=PagePolicy.OPEN_PAGE,
            interleave=InterleaveScheme.PAGE,
        )
        result = small_run(config=config)
        mem = result.mem
        assert mem.row_hits + mem.row_misses > 0
        text = run_report(result)
        assert (
            f"row buffer: {mem.row_hits} hits, {mem.row_misses} misses"
            in text
        )

    def test_report_close_page_omits_row_buffer_line(self):
        # Close page never re-hits a row, so the line would be 0/0 noise.
        result = small_run()
        assert result.mem.row_hits + result.mem.row_misses == 0
        assert "row buffer:" not in run_report(result)

    def test_report_faults_line_counts_injections(self):
        config = fbdimm_baseline(1).with_faults(error_rate=0.02)
        result = small_run(config=config)
        mem = result.mem
        assert mem.faults_injected > 0
        assert f"faults: {mem.faults_injected} injected" in run_report(result)
