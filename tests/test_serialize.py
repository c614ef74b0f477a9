"""Round-trip tests for the typed JSON codec behind the run cache.

The cache and the differential tests rely on serialisation being *exact*:
``from_dict(to_dict(x)) == x`` and the canonical JSON text being stable,
so two results can be compared byte-for-byte.
"""

import dataclasses
import json
from typing import Dict, List, Optional, Tuple

import pytest

from repro.config import (
    AmbPrefetchConfig,
    Associativity,
    InterleaveScheme,
    PagePolicy,
    PrefetchLocation,
    ReplacementPolicy,
    SystemConfig,
    ddr2_baseline,
    ddr3_memory_overrides,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.serialize import canonical_dumps, decode_value, encode_value
from repro.stats.collector import MemSystemStats
from repro.system import SimulationResult, run_system


def _small(config: SystemConfig) -> SystemConfig:
    return dataclasses.replace(config, instructions_per_core=1500)


CONFIGS = [
    ddr2_baseline(num_cores=1),
    fbdimm_baseline(num_cores=4),
    fbdimm_amb_prefetch(num_cores=2),
    fbdimm_amb_prefetch(
        num_cores=1,
        prefetch=AmbPrefetchConfig(
            region_cachelines=8,
            cache_entries=128,
            associativity=Associativity.FOUR_WAY,
            replacement=ReplacementPolicy.LRU,
            location=PrefetchLocation.CONTROLLER,
        ),
    ),
    fbdimm_amb_prefetch(
        num_cores=1,
        interleave=InterleaveScheme.PAGE,
        page_policy=PagePolicy.OPEN_PAGE,
    ),
    fbdimm_baseline(num_cores=1, **ddr3_memory_overrides(1066)),
]


class TestPrimitives:
    def test_primitives_pass_through(self):
        for value in (0, -3, 1.5, "x", True, False, None):
            assert encode_value(value) == value

    def test_enum_encodes_by_name(self):
        assert encode_value(Associativity.FULL) == "FULL"
        assert decode_value("FULL", Associativity) is Associativity.FULL

    def test_unencodable_is_a_hard_error(self):
        with pytest.raises(TypeError):
            encode_value(object())
        with pytest.raises(TypeError):
            encode_value({1, 2, 3})

    def test_float_json_fidelity(self):
        values = [0.1, 1.0 / 3.0, 2.5e-17, 39.0, 1e300]
        text = canonical_dumps(encode_value(values))
        assert json.loads(text) == values

    def test_canonical_text_is_key_order_independent(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})


class TestConfigRoundTrip:
    @pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
    def test_round_trip_is_exact(self, config):
        restored = SystemConfig.from_dict(config.to_dict())
        assert restored == config
        assert canonical_dumps(restored.to_dict()) == canonical_dumps(config.to_dict())

    @pytest.mark.parametrize("where", ["top", "nested"])
    def test_unknown_keys_are_rejected(self, where):
        raw = fbdimm_baseline().to_dict()
        (raw if where == "top" else raw["memory"])["nonsense"] = 1
        owner = "SystemConfig" if where == "top" else "MemoryConfig"
        with pytest.raises(ValueError,
                           match=f"unknown field\\(s\\) for {owner}: nonsense"):
            SystemConfig.from_dict(raw)

    def test_only_unknown_key_is_rejected(self):
        with pytest.raises(ValueError, match="nonsense"):
            SystemConfig.from_dict({"nonsense": 1})

    def test_missing_keys_take_field_defaults(self):
        raw = fbdimm_baseline().to_dict()
        del raw["seed"]
        assert SystemConfig.from_dict(raw).seed == SystemConfig().seed


@dataclasses.dataclass
class _Nested:
    per_core: Dict[int, List[int]]
    pair: Tuple[int, str]
    maybe: Optional[float] = None


class TestTypedContainers:
    def test_int_dict_keys_survive_json(self):
        value = _Nested(per_core={3: [1, 2], 0: []}, pair=(7, "x"), maybe=0.25)
        raw = json.loads(canonical_dumps(encode_value(value)))
        assert decode_value(raw, _Nested) == value

    def test_none_optional(self):
        value = _Nested(per_core={}, pair=(0, ""), maybe=None)
        assert decode_value(encode_value(value), _Nested) == value

    def test_mem_stats_round_trip(self):
        stats = MemSystemStats(
            demand_reads=10,
            per_channel_busy_ps={"nb0": 123, "sb0": 456},
            per_core_reads={0: [5, 7], 2: [1]},
            first_activity_ps=-1,
        )
        raw = json.loads(canonical_dumps(encode_value(stats)))
        assert decode_value(raw, MemSystemStats) == stats


class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return run_system(_small(fbdimm_amb_prefetch(num_cores=1)), ("swim",))

    def test_result_round_trip_is_exact(self, result):
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored == result
        assert restored.canonical_json() == result.canonical_json()

    def test_canonical_json_round_trips_through_text(self, result):
        text = result.canonical_json()
        again = SimulationResult.from_dict(json.loads(text))
        assert again.canonical_json() == text


class TestOptionalFieldElision:
    """Regression guard for ``ENCODE_OPTIONAL_FIELDS`` (the PR-9 device
    refactor).

    The device-generation fields late-added to :class:`MemoryConfig` and
    :class:`MemSystemStats` are elided from the encoding while at their
    defaults.  That elision is what keeps every pre-refactor conformance
    digest, run-cache key and regression golden byte-identical for DDR2
    configurations — if a default value ever starts serialising, all of
    them churn at once.
    """

    def test_memory_config_defaults_elide_device_fields(self):
        raw = ddr2_baseline().to_dict()
        assert "tFAW_ns" not in raw["memory"]
        assert "device" not in raw["memory"]

    def test_memory_config_non_defaults_serialise(self):
        raw = ddr2_baseline().with_device("ddr4-2400").to_dict()
        assert raw["memory"]["device"] == "ddr4-2400"
        assert raw["memory"]["tFAW_ns"] == pytest.approx(26 * 0.833)

    def test_mem_stats_defaults_elide_faw_counters(self):
        raw = encode_value(MemSystemStats(demand_reads=3))
        assert "faw_stalls" not in raw
        assert "faw_stall_ps" not in raw

    def test_mem_stats_non_defaults_serialise(self):
        stats = MemSystemStats(faw_stalls=2, faw_stall_ps=12_000)
        raw = encode_value(stats)
        assert raw["faw_stalls"] == 2
        assert raw["faw_stall_ps"] == 12_000

    def test_elided_and_explicit_forms_round_trip(self):
        for config in (
            ddr2_baseline(),
            fbdimm_baseline().with_device("ddr3-1333"),
        ):
            assert SystemConfig.from_dict(config.to_dict()) == config
        for stats in (
            MemSystemStats(demand_reads=1),
            MemSystemStats(faw_stalls=5, faw_stall_ps=999),
        ):
            raw = json.loads(canonical_dumps(encode_value(stats)))
            assert decode_value(raw, MemSystemStats) == stats

    def test_device_config_canonical_text_differs_only_in_new_keys(self):
        base = json.loads(canonical_dumps(ddr2_baseline().to_dict()))
        mapped = json.loads(
            canonical_dumps(ddr2_baseline().with_device("ddr3-1333").to_dict())
        )
        changed = {
            key
            for key in set(base["memory"]) | set(mapped["memory"])
            if base["memory"].get(key) != mapped["memory"].get(key)
        }
        # The preset rewrites exactly the fields it declares: the two new
        # optional keys plus the organization/timing/refresh overrides.
        assert changed == {
            "device", "tFAW_ns", "data_rate_mts", "timings",
            "refresh_interval_ns", "refresh_cycle_ns", "banks_per_dimm",
            "page_bytes", "rows_per_bank",
        }


class TestSlotsCompat:
    """Regression guard for the PR-8 ``__slots__`` rewrite.

    The hot classes (TraceEvent, MappedAddress, MemoryRequest, Core, the
    DRAM banks) carry ``__slots__`` and therefore no ``__dict__``; the
    codec must keep working off dataclass *fields* — a ``vars()``-based
    shortcut would crash on them — and slotted dataclasses, should one
    enter the result tree, must round-trip like any other.
    """

    def test_slotted_dataclass_round_trips(self):
        @dataclasses.dataclass
        class Slotted:
            __slots__ = ("count", "scale")
            count: int
            scale: float

        value = Slotted(count=3, scale=0.125)
        encoded = encode_value(value)
        assert encoded == {"count": 3, "scale": 0.125}
        raw = json.loads(canonical_dumps(encoded))
        assert decode_value(raw, Slotted) == value

    def test_slotted_dataclass_nested_in_containers(self):
        @dataclasses.dataclass
        class Inner:
            __slots__ = ("x",)
            x: int

        @dataclasses.dataclass
        class Outer:
            items: List[Inner]
            by_name: Dict[str, Inner]

        value = Outer(items=[Inner(1), Inner(2)], by_name={"a": Inner(3)})
        raw = json.loads(canonical_dumps(encode_value(value)))
        assert decode_value(raw, Outer) == value

    def test_hot_path_slots_classes_stay_unencodable(self):
        """The slotted non-dataclass hot classes never silently reach the
        cache: encode is a hard TypeError, not a lossy best-effort."""
        from repro.controller.mapping import MappedAddress
        from repro.controller.transaction import MemoryRequest, RequestKind
        from repro.workloads.trace import TraceEvent, TraceKind

        for value in (
            TraceEvent(0, TraceKind.READ, 5),
            MappedAddress(0, 0, 0, 0, 0, 0, 0, 0),
            MemoryRequest(RequestKind.DEMAND_READ, 1, 0, 0),
        ):
            assert not hasattr(value, "__dict__")  # the premise of the test
            with pytest.raises(TypeError):
                encode_value(value)
