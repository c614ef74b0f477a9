"""The ``MemSystemStats`` counter schema and the surfaces derived from it.

``tests/goldens/registry_snapshot.json`` pins, byte for byte, what the
schema feeds: the telemetry metrics block of two runs, the timeline CSV header
and the canonical window JSONL, so no counter name, help text,
registration order or value can move.  The structural tests check that
every derived surface names exactly what the schema declares.  Regenerate
the golden after an *intentional* change with::

    PYTHONPATH=src python tests/test_counter_schema.py --refresh
"""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.config import fbdimm_amb_prefetch, fbdimm_baseline
from repro.controller.channel_controller import BANK_FOLD, TABLE_FOLD
from repro.controller.prefetch_table import TableStats
from repro.dram.bank import BankStats
from repro.serialize import canonical_dumps, encode_value
from repro.stats.collector import (
    COMPLETION_COUNTERS,
    COUNTERS,
    DEVICE_COUNTERS,
    MemSystemStats,
    counter,
)
from repro.system import run_system
from repro.telemetry.export import capture_metrics
from repro.timeline.export import WINDOW_FIELDS, timeline_csv_lines
from repro.timeline.records import WindowRecord
from repro.workloads.multiprog import workload_programs

GOLDEN_PATH = Path(__file__).parent / "goldens" / "registry_snapshot.json"

#: The counters ``reset_measurement`` zeroed by hand before the schema.
PARENT_COMPLETION_SET = frozenset({
    "demand_reads", "sw_prefetch_reads", "writes", "amb_hits",
    "pf_issued", "pf_used", "pf_evicted_unused", "pf_late_unused",
    "pf_invalidated", "pf_resident_at_end", "pf_hits",
    "read_latency_sum_ps", "demand_latency_sum_ps", "queue_delay_sum_ps",
    "bytes_read", "bytes_written", "faults_injected", "faults_corrupted",
    "faults_retried_ok", "faults_dropped", "fault_retry_latency_ps",
    "fault_degraded_entries", "amb_parity_errors",
})


def snapshot() -> dict:
    """Everything the counter schema feeds, as golden-comparable text."""
    # fbd-ap 4C-1 with warm-up, timeline, prefetch lifecycle and link faults.
    observed = run_system(dataclasses.replace(
        fbdimm_amb_prefetch(num_cores=4).with_prefetch(lifecycle=True)
        .with_faults(error_rate=1e-2).with_timeline(window_ns=1000.0),
        instructions_per_core=40_000, warmup_instructions=10_000, seed=12345,
    ), workload_programs("4C-1"))
    # DDR3-1333: refresh and the tFAW window are on.
    ddr3 = run_system(dataclasses.replace(
        fbdimm_baseline(num_cores=4).with_device("ddr3-1333"),
        instructions_per_core=40_000, seed=12345,
    ), workload_programs("4C-1"))
    windows = [canonical_dumps(dict(encode_value(w), type="window"))
               for w in observed.timeline.windows]
    return {
        "registry:fbd-ap-observed": json.dumps(capture_metrics(observed.mem)),
        "registry:ddr3-1333": json.dumps(capture_metrics(ddr3.mem)),
        "timeline:csv-header": timeline_csv_lines(observed.timeline)[0],
        "timeline:windows": "\n".join(windows),
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_schema_surfaces_match_golden():
    golden = GOLDEN_PATH.read_text(encoding="utf-8")
    assert _dump(snapshot()) == golden
    doc = json.loads(golden)
    observed = json.loads(doc["registry:fbd-ap-observed"])
    for name in ("faults_injected", "pf_issued", "pf_evicted_unused",
                 "pf_table_evictions", "prefetched_lines"):
        assert observed[f"mem.{name}"]["value"] > 0, name
    assert json.loads(doc["registry:ddr3-1333"])["mem.refreshes"]["value"] > 0


def test_every_counter_is_registered_in_declaration_order():
    block = capture_metrics(MemSystemStats())
    assert [n for n, m in block.items() if m["type"] == "counter"] == [
        f"mem.{f.name}" for f in COUNTERS
    ]
    assert all(block[f"mem.{f.name}"]["help"] == f.metadata["help"] for f in COUNTERS)
    assert len(COUNTERS) == 41
    assert sorted(COMPLETION_COUNTERS + DEVICE_COUNTERS) == sorted(f.name for f in COUNTERS)


def test_windows_are_exported_window_record_fields():
    windows = [f.metadata["window"] for f in COUNTERS if f.metadata["window"]]
    assert len(windows) == len(set(windows))
    assert WINDOW_FIELDS == tuple(f.name for f in dataclasses.fields(WindowRecord))
    assert set(windows) <= set(WINDOW_FIELDS)
    assert WindowRecord.ENCODE_OPTIONAL_FIELDS == {
        "pf_issued", "pf_used", "pf_evicted_unused", "pf_late_unused", "pf_invalidated",
    }


def test_each_bank_and_table_counter_has_exactly_one_fold_source():
    assert Counter(BANK_FOLD.values()) == Counter(set(BankStats.__slots__) - {"precharges"})
    assert Counter(TABLE_FOLD.values()) == Counter(
        f.name for f in dataclasses.fields(TableStats)
    )
    # Every other device counter is derived in the fold or kept on the controller.
    assert set(DEVICE_COUNTERS) - set(BANK_FOLD) - set(TABLE_FOLD) == {
        "column_accesses", "prefetched_lines", "idle_ps", "powerdown_ps", "idle_gaps",
    }


def test_reset_zeroes_exactly_the_completion_counters():
    stats = MemSystemStats(per_core_reads={0: [1, 2, 3]}, demand_latency_samples=[5])
    int_fields = [f.name for f in dataclasses.fields(stats) if f.type == "int"]
    for name in int_fields:
        setattr(stats, name, 7)
    stats.reset_measurement()
    zeroed = {name for name in int_fields if getattr(stats, name) == 0}
    assert zeroed == PARENT_COMPLETION_SET | {"last_activity_ps"}
    assert stats.first_activity_ps == -1
    assert stats.per_core_reads == {} and stats.demand_latency_samples == []
    assert all(getattr(stats, name) == 7 for name in DEVICE_COUNTERS)


def test_counter_rejects_an_unknown_scope():
    with pytest.raises(ValueError, match="scope"):
        counter("help", scope="window")


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    if sys.argv[1:] != ["--refresh"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_counter_schema.py --refresh")
    GOLDEN_PATH.write_text(_dump(snapshot()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
