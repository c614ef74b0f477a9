"""Config validity: every config that constructs is valid, and
``SystemConfig.warnings`` lists the legal but suspicious ones.

Each cross-field error rule is raised by a dataclass ``__post_init__``,
so constructors, ``dataclasses.replace``, ``with_*`` and ``from_dict``
all reject it with the same message.
"""

from dataclasses import replace

import pytest

from repro.config import (
    AmbPrefetchConfig,
    DramTimings,
    InterleaveScheme,
    PagePolicy,
    SystemConfig,
    ddr2_baseline,
    ddr3_memory_overrides,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.dram.devices import DEVICE_PRESETS


def _clean_on_every_preset(factory):
    for device in DEVICE_PRESETS:
        for cores in (1, 4, 8):
            config = factory(num_cores=cores).with_device(device)
            assert config.warnings() == [], (device, cores)


class TestFactoriesClean:
    def test_ddr2_baseline(self):
        _clean_on_every_preset(ddr2_baseline)

    def test_fbdimm_baseline(self):
        _clean_on_every_preset(fbdimm_baseline)

    def test_fbdimm_amb_prefetch(self):
        _clean_on_every_preset(fbdimm_amb_prefetch)

    def test_ddr3_overrides(self):
        assert fbdimm_baseline(**ddr3_memory_overrides()).warnings() == []


class TestTimingIdentities:
    def test_short_tras_is_error(self):
        with pytest.raises(ValueError, match=r"^timings\.tRAS: .* raise tRAS"):
            replace(ddr2_baseline().memory, timings=DramTimings(tRAS=10.0))

    def test_trc_shorter_than_tras_plus_trp(self):
        with pytest.raises(ValueError, match=r"^timings\.tRC: tRC \(40.0 ns\)"):
            replace(ddr2_baseline().memory, timings=DramTimings(tRC=40.0))

    def test_ddr2_timings_at_ddr3_rate_warned(self):
        config = fbdimm_baseline().with_memory(data_rate_mts=1333)
        assert [w for w in config.warnings() if w.startswith("data_rate_mts:")]


class TestPrefetchGeometry:
    def test_region_exceeding_cache_is_error(self):
        with pytest.raises(ValueError, match="^prefetch.region_cachelines: "
                           "region of 8 lines cannot fit the 4-entry"):
            AmbPrefetchConfig(region_cachelines=8, cache_entries=4)
        # A disabled prefetcher fetches no region, so nothing can overflow.
        AmbPrefetchConfig(enabled=False, region_cachelines=8, cache_entries=4)

    def test_region_crossing_row_is_error(self):
        # Multi-cacheline interleave rejects such a region by divisibility;
        # page interleave reaches the row rule.
        prefetch = AmbPrefetchConfig(region_cachelines=128, cache_entries=128)
        with pytest.raises(ValueError, match="not divisible"):
            fbdimm_amb_prefetch(prefetch=prefetch)
        with pytest.raises(ValueError, match="4096-byte DRAM row"):
            fbdimm_amb_prefetch(
                prefetch=prefetch, interleave=InterleaveScheme.PAGE
            )

    def test_cacheline_interleave_with_prefetch_warned(self):
        config = fbdimm_amb_prefetch().with_memory(
            interleave=InterleaveScheme.CACHELINE
        )
        assert [w for w in config.warnings() if w.startswith("interleave:")]


class TestPolicyAndRefresh:
    def test_open_page_cacheline_interleave_warned(self):
        config = fbdimm_baseline().with_memory(
            page_policy=PagePolicy.OPEN_PAGE,
            interleave=InterleaveScheme.CACHELINE,
        )
        assert [w for w in config.warnings() if w.startswith("page_policy:")]

    def test_refresh_denser_than_trfc_is_error(self):
        with pytest.raises(ValueError, match="^refresh_cycle_ns: tRFC"):
            fbdimm_baseline().with_memory(
                refresh_interval_ns=100.0, refresh_cycle_ns=127.5
            )

    def test_severity_values(self):
        # An error never constructs; a warning constructs and is listed.
        with pytest.raises(ValueError):
            fbdimm_amb_prefetch().with_prefetch(
                region_cachelines=8, cache_entries=4
            )
        config = fbdimm_amb_prefetch().with_prefetch(
            region_cachelines=4, cache_entries=4
        )
        assert config.warnings() == [
            "prefetch.cache_entries: only 1 region(s) fit the AMB cache; "
            "two concurrent streams will thrash it"
        ]


def _set(path, value):
    """A ``to_dict`` rewrite setting the key at ``path`` to ``value``."""

    def rewrite(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return raw

    return rewrite


def _timing(name, value):
    return _set(("memory", "timings", name), value)


#: One case per error rule: a payload rewrite and the message it raises.
ERROR_RULES = [
    *[
        pytest.param(_timing(name, 0.0), rf"^timings\.{name}: must be positive",
                     id=f"{name}-positive")
        for name in ("tRP", "tRCD", "tCL", "tRC", "tRAS", "tWL")
    ],
    pytest.param(_timing("tRC", 40.0), r"^timings\.tRC: tRC \(40.0 ns\) < "
                 r"tRAS \+ tRP \(39.0 \+ 15.0 ns\)", id="tRC"),
    pytest.param(_timing("tRAS", 20.0), r"^timings\.tRAS: tRAS \(20.0 ns\) < "
                 r"tRCD \+ burst \(15.0 \+ 12.0 ns\)", id="tRAS"),
    pytest.param(_timing("tWPD", 17.0), r"^timings\.tWPD: tWPD \(17.0 ns\) < "
                 r"tWL \+ burst \(12.0 \+ 12.0 ns\)", id="tWPD"),
    pytest.param(_set(("memory", "prefetch", "cache_entries"), 2),
                 r"^prefetch\.region_cachelines: region of 4 lines cannot "
                 r"fit the 2-entry AMB cache", id="region-vs-cache"),
    pytest.param(
        lambda raw: _set(("memory", "interleave"), "PAGE")(
            _set(("memory", "page_bytes"), 128)(raw)),
        r"^prefetch\.region_cachelines: a 4-line region spans more than one "
        r"128-byte DRAM row", id="region-vs-row"),
    pytest.param(_set(("memory", "cacheline_bytes"), 16),
                 r"^cacheline_bytes: 16 B is not a whole number of 32 B "
                 r"northbound frames", id="frames"),
    pytest.param(_set(("memory", "refresh_interval_ns"), 100.0),
                 r"^refresh_cycle_ns: tRFC \(127.5 ns\) >= tREFI \(100.0 ns\)",
                 id="refresh"),
]


class TestFromDict:
    """A payload the constructors reject does not load either."""

    @pytest.mark.parametrize("rewrite, message", ERROR_RULES)
    def test_error_rule_raises(self, rewrite, message):
        raw = rewrite(fbdimm_amb_prefetch().to_dict())
        with pytest.raises(ValueError, match=message):
            SystemConfig.from_dict(raw)

    def test_frames_rule_is_fbdimm_only(self):
        raw = _set(("memory", "cacheline_bytes"), 16)(ddr2_baseline().to_dict())
        assert SystemConfig.from_dict(raw).memory.cacheline_bytes == 16
