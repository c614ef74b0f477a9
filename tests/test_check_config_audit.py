"""Config audit: factory configs stay clean; seeded defects are caught."""

from dataclasses import replace

import pytest

from repro.check.config_audit import (
    ERROR,
    WARNING,
    audit_memory,
    audit_system,
    errors_only,
)
from repro.config import (
    AmbPrefetchConfig,
    DramTimings,
    InterleaveScheme,
    PagePolicy,
    ddr2_baseline,
    ddr3_memory_overrides,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)


class TestFactoriesClean:
    def test_ddr2_baseline(self):
        assert audit_system(ddr2_baseline()) == []

    def test_fbdimm_baseline(self):
        assert audit_system(fbdimm_baseline()) == []

    def test_fbdimm_amb_prefetch(self):
        assert audit_system(fbdimm_amb_prefetch()) == []

    def test_ddr3_overrides(self):
        assert audit_system(fbdimm_baseline(**ddr3_memory_overrides())) == []


class TestTimingIdentities:
    def test_short_tras_is_error(self):
        memory = replace(
            ddr2_baseline().memory, timings=DramTimings(tRAS=10.0)
        )
        issues = errors_only(audit_memory(memory))
        assert any(i.field == "timings.tRAS" for i in issues)

    def test_trc_shorter_than_tras_plus_trp(self):
        memory = replace(
            ddr2_baseline().memory, timings=DramTimings(tRC=40.0)
        )
        issues = errors_only(audit_memory(memory))
        assert any(i.field == "timings.tRC" for i in issues)

    def test_ddr2_timings_at_ddr3_rate_warned(self):
        memory = replace(fbdimm_baseline().memory, data_rate_mts=1333)
        issues = audit_memory(memory)
        assert any(
            i.field == "data_rate_mts" and i.severity == WARNING for i in issues
        )


class TestPrefetchGeometry:
    def test_region_exceeding_cache_is_error(self):
        config = fbdimm_amb_prefetch(
            prefetch=AmbPrefetchConfig(region_cachelines=8, cache_entries=4)
        )
        issues = errors_only(audit_memory(config.memory))
        assert any(i.field == "prefetch.region_cachelines" for i in issues)

    def test_region_crossing_row_is_error(self):
        # Under multi-cacheline interleave such a region is rejected when
        # the config is built; page interleave still lets it through.
        prefetch = AmbPrefetchConfig(region_cachelines=128, cache_entries=128)
        with pytest.raises(ValueError, match="not divisible"):
            fbdimm_amb_prefetch(prefetch=prefetch)
        config = fbdimm_amb_prefetch(
            prefetch=prefetch, interleave=InterleaveScheme.PAGE
        )
        issues = errors_only(audit_memory(config.memory))
        assert any("row" in i.message for i in issues)

    def test_cacheline_interleave_with_prefetch_warned(self):
        memory = replace(
            fbdimm_amb_prefetch().memory, interleave=InterleaveScheme.CACHELINE
        )
        issues = audit_memory(memory)
        assert any(i.field == "interleave" for i in issues)


class TestPolicyAndRefresh:
    def test_open_page_cacheline_interleave_warned(self):
        memory = replace(
            fbdimm_baseline().memory,
            page_policy=PagePolicy.OPEN_PAGE,
            interleave=InterleaveScheme.CACHELINE,
        )
        issues = audit_memory(memory)
        assert any(i.field == "page_policy" for i in issues)

    def test_refresh_denser_than_trfc_is_error(self):
        memory = replace(
            fbdimm_baseline().memory,
            refresh_interval_ns=100.0,
            refresh_cycle_ns=127.5,
        )
        issues = errors_only(audit_memory(memory))
        assert any(i.field == "refresh_cycle_ns" for i in issues)

    def test_severity_values(self):
        assert ERROR == "error" and WARNING == "warning"
