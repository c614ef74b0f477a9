"""Prefetch lifecycle observability: taxonomy, invariant, zero overhead.

Pins the repro.prefetch contract end to end:

* the conservation invariant ``issued == used + evicted_unused +
  late_unused + invalidated + resident_at_end`` holds on every bench
  scenario (and on adversarial random event sequences, via hypothesis);
* lifecycle tracking is observation-only — enabling it never changes the
  simulated outcome;
* the edge cases each land in their taxonomy bucket: late fills,
  evictions racing pending fills, parity invalidations under
  fault injection;
* the ``PrefetchPolicy`` boundary re-hosts the paper's region prefetcher
  bit-identically;
* the lifecycle-derived coverage reproduces the legacy Figure 8 metric
  exactly.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    AmbPrefetchConfig,
    Associativity,
    PrefetchLocation,
    fbdimm_amb_prefetch,
)
from repro.prefetch.lifecycle import OUTCOMES, PrefetchLifecycle, conservation_delta
from repro.prefetch.policy import (
    RegionPrefetchPolicy,
    create_policy,
    policy_names,
    register_policy,
)
from repro.serialize import encode_value
from repro.stats import metrics
from repro.stats.collector import MemSystemStats
from repro.system import run_system

INSTS = 2000
SEED = 12345
PROGRAMS = ("wupwise", "swim", "mgrid", "applu")


def _with_lifecycle(config, **prefetch_overrides):
    prefetch = dataclasses.replace(
        config.memory.prefetch, lifecycle=True, **prefetch_overrides
    )
    return dataclasses.replace(
        config,
        memory=dataclasses.replace(config.memory, prefetch=prefetch),
    )


def _run_ap(insts: int = INSTS, programs=PROGRAMS, **prefetch_overrides):
    config = fbdimm_amb_prefetch(num_cores=len(programs), logic_channels=4)
    config = dataclasses.replace(
        config, instructions_per_core=insts, seed=SEED
    )
    return run_system(_with_lifecycle(config, **prefetch_overrides), programs)


def _assert_conserved(stats: MemSystemStats, where: str = "") -> None:
    delta = conservation_delta(stats)
    assert delta == 0, (
        f"{where}: issued {stats.pf_issued} != used {stats.pf_used} "
        f"+ evicted {stats.pf_evicted_unused} + late {stats.pf_late_unused} "
        f"+ invalidated {stats.pf_invalidated} "
        f"+ resident {stats.pf_resident_at_end} (delta {delta:+d})"
    )


class TestConservationOnBenchScenarios:
    """The invariant holds on every prefetch-enabled bench scenario."""

    def _prefetching_bench_pairs(self):
        from tests.test_engine_conformance import _bench_cases

        for name, pairs in sorted(_bench_cases().items()):
            for config, programs in pairs:
                if config.memory.prefetch.enabled:
                    yield name, config, programs

    def test_every_bench_scenario_conserves(self):
        checked = issued = 0
        for name, config, programs in self._prefetching_bench_pairs():
            result = run_system(_with_lifecycle(config), programs)
            _assert_conserved(result.mem, name)
            issued += result.mem.pf_issued
            checked += 1
        assert checked >= 3  # ap, ap-timeline, ap-faults at minimum
        assert issued > 0  # the scenarios did exercise the tracker

    def test_controller_side_buffer_conserves(self):
        result = _run_ap(location=PrefetchLocation.CONTROLLER)
        assert result.mem.pf_issued > 0
        _assert_conserved(result.mem, "mc-side")

    def test_hits_counted_like_amb_hits(self):
        result = _run_ap()
        assert result.mem.pf_hits == result.mem.amb_hits
        assert metrics.lifecycle_coverage(result.mem) == pytest.approx(
            metrics.prefetch_coverage(result.mem), abs=0
        )


class TestZeroOverhead:
    """Lifecycle tracking observes; it never changes the simulation."""

    def test_simulation_outcome_identical_with_lifecycle_on(self):
        config = fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
        config = dataclasses.replace(
            config, instructions_per_core=INSTS, seed=SEED
        )
        off = run_system(config, PROGRAMS)
        on = run_system(_with_lifecycle(config), PROGRAMS)

        assert on.elapsed_ps == off.elapsed_ps
        assert on.core_ipcs == off.core_ipcs
        assert on.events_fired == off.events_fired
        off_mem = encode_value(off.mem)
        on_mem = encode_value(on.mem)
        pf_keys = {k for k in on_mem if k.startswith("pf_")}
        assert pf_keys  # the lifecycle run did record the taxonomy
        for key in pf_keys:
            on_mem.pop(key, None)
        assert on_mem == off_mem

    def test_defaults_are_elided_from_canonical_encodings(self):
        # Config: a pre-existing serialized AmbPrefetchConfig must decode
        # (and re-encode) unchanged, so the new fields hide at defaults.
        encoded = encode_value(AmbPrefetchConfig())
        assert "policy" not in encoded and "lifecycle" not in encoded
        encoded = encode_value(AmbPrefetchConfig(policy="region"))
        assert "policy" not in encoded  # default value, still elided
        # Stats: a lifecycle-off run encodes no pf_* fields at all.
        assert not any(
            key.startswith("pf_") for key in encode_value(MemSystemStats())
        )
        # Windows: same for the per-window taxonomy deltas.
        from repro.timeline.records import WindowRecord

        assert not any(
            key.startswith("pf_")
            for key in encode_value(WindowRecord(index=0, start_ps=0, end_ps=1))
        )


class TestEdgeCases:
    def test_late_fill_lands_in_late_unused(self):
        # Demand reads racing their own region's in-flight fill are the
        # common case at K=4; the merge path must charge ``late_unused``.
        result = _run_ap()
        assert result.mem.pf_late_unused > 0
        _assert_conserved(result.mem, "late-fill")

    def test_eviction_racing_pending_fill(self):
        # A 2-entry direct-mapped tag store thrashes: fills evict lines
        # whose replacement fetch is often already in flight.  Evictions
        # and re-issues must charge exactly one ``evicted_unused`` each.
        result = _run_ap(
            cache_entries=2, associativity=Associativity.DIRECT
        )
        assert result.mem.pf_evicted_unused > 0
        assert result.mem.pf_table_evictions > 0
        _assert_conserved(result.mem, "evict-race")

    def test_parity_invalidation_under_faults(self):
        config = fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
        config = dataclasses.replace(
            config, instructions_per_core=INSTS, seed=SEED
        ).with_faults(error_rate=1e-3, amb_bitflip_rate=0.2)
        result = run_system(_with_lifecycle(config), PROGRAMS)
        assert result.mem.amb_parity_errors > 0
        assert result.mem.pf_invalidated > 0
        _assert_conserved(result.mem, "parity")

    def test_tag_store_counters_surface_in_stats(self):
        result = _run_ap()
        mem = result.mem
        assert mem.pf_table_lookups > 0
        assert mem.pf_table_hits > 0
        assert mem.pf_table_inserts > 0
        assert mem.pf_table_invalidations >= 0
        # The fold is gated on lifecycle: an off run keeps the fields 0.
        config = fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
        config = dataclasses.replace(
            config, instructions_per_core=500, seed=SEED
        )
        off = run_system(config, PROGRAMS)
        assert off.mem.pf_table_lookups == 0


# ----------------------------------------------------------------------
# Property: the conservation invariant on adversarial event sequences
# ----------------------------------------------------------------------

_LINES = st.integers(min_value=0, max_value=7)

_EVENTS = st.one_of(
    st.tuples(st.just("issue"), st.lists(_LINES, max_size=4)),
    st.tuples(st.just("fill"), st.lists(_LINES, max_size=4)),
    st.tuples(st.just("hit"), _LINES),
    st.tuples(st.just("late"), _LINES),
    st.tuples(st.just("evict"), _LINES),
    st.tuples(st.just("invalidate"), _LINES),
    st.tuples(st.just("reset"), st.none()),
)


class TestConservationProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_EVENTS, max_size=60))
    def test_random_event_sequences_conserve(self, events):
        stats = MemSystemStats()
        tracker = PrefetchLifecycle(stats)
        for kind, arg in events:
            if kind == "issue":
                tracker.on_issue(arg)
            elif kind == "fill":
                tracker.on_fill(arg)
            elif kind == "hit":
                tracker.on_hit(arg)
            elif kind == "late":
                tracker.on_late(arg)
            elif kind == "evict":
                tracker.on_evict(arg)
            elif kind == "invalidate":
                tracker.on_invalidate(arg)
            else:  # reset: mirror the controller's call order
                stats.reset_measurement()
                tracker.on_measurement_reset()
        # Mid-run, the delta equals exactly the open instances...
        assert conservation_delta(stats) == tracker.open_instances()
        # ...and finalize closes the taxonomy.
        tracker.finalize()
        assert tracker.open_instances() == 0
        _assert_conserved(stats, "property")
        for name in ("pf_issued", "pf_used", "pf_evicted_unused",
                     "pf_late_unused", "pf_invalidated",
                     "pf_resident_at_end"):
            assert getattr(stats, name) >= 0


# ----------------------------------------------------------------------
# The PrefetchPolicy boundary
# ----------------------------------------------------------------------


class TestPolicyBoundary:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_region_policy_matches_legacy_formula(self, k, demanded):
        policy = RegionPrefetchPolicy(k)
        base = (demanded // k) * k
        legacy_group = [demanded] + [
            line for line in range(base, base + k) if line != demanded
        ]
        assert [demanded] + policy.prefetch_lines(demanded) == legacy_group

    def test_region_policy_excludes_demanded_line(self):
        policy = RegionPrefetchPolicy(4)
        for demanded in range(12):
            companions = policy.prefetch_lines(demanded)
            assert demanded not in companions
            assert len(companions) == 3
            assert companions == sorted(companions)

    def test_registry(self):
        assert "region" in policy_names()
        policy = create_policy(AmbPrefetchConfig(region_cachelines=8))
        assert isinstance(policy, RegionPrefetchPolicy)
        assert policy.region_cachelines == 8
        assert policy.name == "region"

    def test_unknown_policy_rejected_at_creation_and_config(self):
        # dataclasses.replace re-runs __post_init__, so the config itself
        # rejects an unknown name before create_policy ever sees it...
        with pytest.raises(ValueError, match="bogus"):
            dataclasses.replace(AmbPrefetchConfig(), policy="bogus")
        with pytest.raises(ValueError, match="bogus"):
            AmbPrefetchConfig(policy="bogus")
        # ...and create_policy rejects a name bypassing validation.
        bogus = AmbPrefetchConfig()
        object.__setattr__(bogus, "policy", "bogus")
        with pytest.raises(ValueError, match="region"):
            create_policy(bogus)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_policy("region")(lambda config: RegionPrefetchPolicy(1))

    def test_training_hooks_are_optional_noops(self):
        policy = RegionPrefetchPolicy(4)
        policy.observe_hit(3)
        policy.observe_miss(5)
        assert policy.prefetch_lines(5) == [4, 6, 7]

    def test_invalid_region_size_rejected(self):
        with pytest.raises(ValueError):
            RegionPrefetchPolicy(0)


# ----------------------------------------------------------------------
# Derived metrics and the fig08 regression
# ----------------------------------------------------------------------


class TestDerivedMetrics:
    def test_zero_denominators_are_zero(self):
        stats = MemSystemStats()
        assert metrics.prefetch_accuracy(stats) == 0.0
        assert metrics.prefetch_pollution(stats) == 0.0
        assert metrics.prefetch_timeliness(stats) == 0.0
        assert metrics.lifecycle_coverage(stats) == 0.0

    def test_metrics_follow_the_taxonomy(self):
        stats = MemSystemStats()
        stats.pf_issued = 10
        stats.pf_used = 6
        stats.pf_late_unused = 2
        stats.pf_evicted_unused = 1
        stats.pf_invalidated = 1
        stats.demand_reads = 20
        stats.pf_hits = 8
        assert metrics.prefetch_accuracy(stats) == 0.6
        assert metrics.prefetch_pollution(stats) == 0.1
        assert metrics.prefetch_timeliness(stats) == 6 / 8
        assert metrics.lifecycle_coverage(stats) == 8 / 20

    def test_outcomes_tuple_matches_stats_fields(self):
        stats = MemSystemStats()
        for outcome in OUTCOMES:
            assert hasattr(stats, f"pf_{outcome}")


class TestFig08Regression:
    def test_lifecycle_coverage_reproduces_figure8(self):
        from repro.experiments.fig08_coverage import lifecycle_crosscheck
        from repro.experiments.runner import ExperimentContext

        ctx = ExperimentContext(instructions=800, seed=SEED, quick=True)
        problems = lifecycle_crosscheck(ctx)
        assert problems == []


# ----------------------------------------------------------------------
# Reporting surfaces
# ----------------------------------------------------------------------


class TestReportSurfaces:
    def test_run_report_includes_lifecycle_section(self):
        from repro.analysis.report import run_report

        result = _run_ap()
        text = run_report(result)
        assert "prefetch lifecycle:" in text
        assert "accuracy" in text and "pollution" in text
        assert "prefetch tag store:" in text

    def test_run_report_omits_lifecycle_when_off(self):
        from repro.analysis.report import run_report

        config = fbdimm_amb_prefetch(num_cores=2, logic_channels=2)
        config = dataclasses.replace(
            config, instructions_per_core=500, seed=SEED
        )
        text = run_report(run_system(config, ("wupwise", "swim")))
        assert "prefetch lifecycle:" not in text

    def test_lifecycle_report_renders_and_reconciles(self):
        from repro.prefetch.report import lifecycle_report, lifecycle_summary

        result = _run_ap()
        text = lifecycle_report(result.mem, label="test")
        assert "conservation: issued == sum(outcomes) holds" in text
        summary = lifecycle_summary(result.mem)
        assert summary["conservation_delta"] == 0
        assert summary["issued"] == result.mem.pf_issued
        assert summary["table_evictions"] == result.mem.pf_table_evictions

    def test_lifecycle_report_without_prefetches(self):
        from repro.prefetch.report import lifecycle_report

        assert "no prefetches issued" in lifecycle_report(MemSystemStats())

    def test_registry_exports_lifecycle_series(self):
        from repro.telemetry.export import capture_metrics

        result = _run_ap()
        snapshot = capture_metrics(result.mem)
        assert snapshot["mem.pf_issued"]["value"] == result.mem.pf_issued
        assert snapshot["mem.pf_table_evictions"]["value"] == (
            result.mem.pf_table_evictions
        )
        assert snapshot["mem.prefetch_accuracy"]["value"] == pytest.approx(
            metrics.prefetch_accuracy(result.mem)
        )
        assert snapshot["mem.lifecycle_coverage"]["value"] == pytest.approx(
            metrics.lifecycle_coverage(result.mem)
        )


class TestTimelineTaxonomy:
    def test_window_sums_reconcile_with_final_stats(self):
        config = fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
        config = dataclasses.replace(
            config, instructions_per_core=INSTS, seed=SEED
        ).with_timeline(window_ns=500.0)
        result = run_system(_with_lifecycle(config), PROGRAMS)
        timeline = result.timeline
        assert timeline is not None and timeline.windows
        mem = result.mem
        for field, expected in (
            ("pf_issued", mem.pf_issued),
            ("pf_used", mem.pf_used),
            ("pf_evicted_unused", mem.pf_evicted_unused),
            ("pf_late_unused", mem.pf_late_unused),
            ("pf_invalidated", mem.pf_invalidated),
        ):
            total = sum(getattr(w, field) for w in timeline.windows)
            assert total == expected, field
        _assert_conserved(mem, "timeline")

    def test_timeline_report_shows_taxonomy_line(self):
        from repro.timeline.report import timeline_report

        config = fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
        config = dataclasses.replace(
            config, instructions_per_core=INSTS, seed=SEED
        ).with_timeline(window_ns=500.0)
        result = run_system(_with_lifecycle(config), PROGRAMS)
        assert result.timeline is not None
        assert "prefetch lifecycle:" in timeline_report(result.timeline)
