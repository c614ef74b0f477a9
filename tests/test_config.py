"""Configuration tests: Table 1/2 defaults, validation, derived values."""

import dataclasses

import pytest

from repro.config import (
    DRAM_CLOCK_PS,
    AmbPrefetchConfig,
    Associativity,
    CpuConfig,
    DramTimings,
    InterleaveScheme,
    MemoryConfig,
    MemoryKind,
    PagePolicy,
    PrefetchLocation,
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)


class TestTable2Defaults:
    """The DRAM timing parameters of Table 2."""

    def test_values(self):
        t = DramTimings()
        assert t.tRP == 15.0
        assert t.tRCD == 15.0
        assert t.tCL == 15.0
        assert t.tRC == 54.0
        assert t.tRRD == 9.0
        assert t.tRPD == 9.0
        assert t.tWTR == 9.0
        assert t.tRAS == 39.0
        assert t.tWL == 12.0
        assert t.tWPD == 36.0

    def test_ps_accessor(self):
        assert DramTimings().ps("tRC") == 54_000


class TestTable1Defaults:
    """The system parameters of Table 1."""

    def test_cpu(self):
        cpu = CpuConfig()
        assert cpu.clock_ghz == 4.0
        assert cpu.rob_entries == 196
        assert cpu.l2_mshr_entries == 64
        assert cpu.data_mshr_entries == 32
        assert cpu.store_buffer_entries == 32
        assert cpu.cycle_ps == 250

    def test_memory_geometry(self):
        m = MemoryConfig()
        assert m.logic_channels == 2
        assert m.physical_per_logic == 2
        assert m.physical_channels == 4
        assert m.dimms_per_channel == 4
        assert m.banks_per_dimm == 4
        assert m.data_rate_mts == 667
        assert m.buffer_entries == 64
        assert m.controller_overhead_ns == 12.0

    def test_clock_table(self):
        assert DRAM_CLOCK_PS == {
            533: 3750, 667: 3000, 800: 2500, 1066: 1875, 1333: 1500,
            # DDR3/DDR4-era rates for the non-DDR2 device presets
            # (floor(2000/(rate/2)) ps, matching the DDR2 rows).
            1600: 1250, 1866: 1071, 2133: 937, 2400: 833,
        }
        assert MemoryConfig(data_rate_mts=800).dram_clock_ps == 2500
        assert MemoryConfig(data_rate_mts=2400).dram_clock_ps == 833

    def test_frame_is_two_dram_clocks(self):
        assert MemoryConfig().frame_ps == 6000
        assert MemoryConfig(data_rate_mts=533).frame_ps == 7500

    def test_burst_clocks_for_64b_line(self):
        assert MemoryConfig().burst_clocks == 4

    def test_lines_per_page(self):
        assert MemoryConfig().lines_per_page == 64


class TestInterleaveLines:
    def test_cacheline(self):
        assert MemoryConfig(interleave=InterleaveScheme.CACHELINE).interleave_lines == 1

    def test_multi_cacheline_uses_region(self):
        m = MemoryConfig(
            interleave=InterleaveScheme.MULTI_CACHELINE,
            prefetch=AmbPrefetchConfig(region_cachelines=8),
        )
        assert m.interleave_lines == 8

    def test_page(self):
        m = MemoryConfig(interleave=InterleaveScheme.PAGE)
        assert m.interleave_lines == m.lines_per_page


class TestValidation:
    def test_bad_data_rate(self):
        with pytest.raises(ValueError, match="data rate"):
            MemoryConfig(data_rate_mts=675)

    def test_zero_channels(self):
        with pytest.raises(ValueError):
            MemoryConfig(logic_channels=0)

    def test_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            MemoryConfig(cacheline_bytes=96)

    def test_prefetch_requires_fbdimm(self):
        with pytest.raises(ValueError, match="FB-DIMM"):
            MemoryConfig(
                kind=MemoryKind.DDR2,
                interleave=InterleaveScheme.MULTI_CACHELINE,
                prefetch=AmbPrefetchConfig(enabled=True),
            )

    def test_prefetch_region_positive(self):
        with pytest.raises(ValueError):
            AmbPrefetchConfig(region_cachelines=0)

    def test_cache_entries_divisible_by_ways(self):
        with pytest.raises(ValueError):
            AmbPrefetchConfig(cache_entries=10, associativity=Associativity.FOUR_WAY)

    def test_full_latency_hits_require_amb_placement(self):
        with pytest.raises(ValueError, match="full_latency_hits.*location"):
            AmbPrefetchConfig(full_latency_hits=True,
                              location=PrefetchLocation.CONTROLLER)

    def test_full_latency_hits_at_controller_rejected_on_load(self):
        raw = fbdimm_amb_prefetch().to_dict()
        raw["memory"]["prefetch"].update(full_latency_hits=True,
                                         location="CONTROLLER")
        with pytest.raises(ValueError, match="full_latency_hits.*location"):
            SystemConfig.from_dict(raw)
        raw["memory"]["prefetch"]["location"] = "AMB"
        assert SystemConfig.from_dict(raw).memory.prefetch.full_latency_hits

    def test_interleave_region_must_divide_page(self):
        with pytest.raises(ValueError, match="not divisible by interleave region of 3"):
            MemoryConfig(
                interleave=InterleaveScheme.MULTI_CACHELINE,
                prefetch=AmbPrefetchConfig(region_cachelines=3),
            )

    def test_instruction_budget_checked_before_warmup(self):
        with pytest.raises(ValueError, match="instructions_per_core must be >= 1"):
            SystemConfig(instructions_per_core=0)

    def test_cpu_needs_cores(self):
        with pytest.raises(ValueError):
            CpuConfig(num_cores=0)


class TestAssociativity:
    def test_full_resolves_to_entries(self):
        assert Associativity.FULL.ways(64) == 64

    def test_fixed_ways(self):
        assert Associativity.DIRECT.ways(64) == 1
        assert Associativity.TWO_WAY.ways(64) == 2
        assert Associativity.FOUR_WAY.ways(64) == 4

    def test_ways_capped_at_entries(self):
        assert Associativity.FOUR_WAY.ways(2) == 2


class TestFactories:
    def test_ddr2_baseline(self):
        cfg = ddr2_baseline(num_cores=4)
        assert cfg.memory.kind is MemoryKind.DDR2
        assert cfg.memory.page_policy is PagePolicy.CLOSE_PAGE
        assert not cfg.memory.prefetch.enabled
        assert cfg.cpu.num_cores == 4

    def test_fbdimm_baseline(self):
        cfg = fbdimm_baseline()
        assert cfg.memory.kind is MemoryKind.FBDIMM
        assert not cfg.memory.prefetch.enabled
        assert cfg.memory.interleave is InterleaveScheme.CACHELINE

    def test_fbdimm_amb_prefetch_default(self):
        cfg = fbdimm_amb_prefetch()
        assert cfg.memory.prefetch.enabled
        assert cfg.memory.prefetch.region_cachelines == 4
        assert cfg.memory.prefetch.cache_entries == 64
        assert cfg.memory.prefetch.associativity is Associativity.FULL
        assert cfg.memory.interleave is InterleaveScheme.MULTI_CACHELINE

    def test_factory_forwards_overrides(self):
        cfg = fbdimm_baseline(data_rate_mts=800, logic_channels=4)
        assert cfg.memory.data_rate_mts == 800
        assert cfg.memory.physical_channels == 8


class TestSystemConfigHelpers:
    def test_with_prefetch_switches_interleave(self):
        cfg = fbdimm_baseline().with_prefetch(enabled=True, region_cachelines=8)
        assert cfg.memory.prefetch.enabled
        assert cfg.memory.interleave is InterleaveScheme.MULTI_CACHELINE
        assert cfg.memory.interleave_lines == 8

    def test_with_memory(self):
        cfg = fbdimm_baseline().with_memory(data_rate_mts=533)
        assert cfg.memory.data_rate_mts == 533

    def test_with_cpu(self):
        cfg = fbdimm_baseline().with_cpu(num_cores=8)
        assert cfg.cpu.num_cores == 8

    def test_config_is_hashable(self):
        assert hash(fbdimm_baseline()) == hash(fbdimm_baseline())
        assert fbdimm_baseline() == fbdimm_baseline()

    def test_replace_keeps_frozen(self):
        cfg = fbdimm_baseline()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1


class TestPeakBandwidth:
    def test_ddr2(self):
        cfg = ddr2_baseline().memory
        # 8 B x 667 MT/s x 4 physical channels
        assert cfg.peak_bandwidth_gbs() == pytest.approx(8 * 667 / 1000 * 4)

    def test_fbdimm_has_extra_write_bandwidth(self):
        ddr2 = ddr2_baseline().memory
        fbd = fbdimm_baseline().memory
        assert fbd.peak_bandwidth_gbs() == pytest.approx(
            1.5 * ddr2.peak_bandwidth_gbs()
        )
