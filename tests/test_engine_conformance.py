"""Differential conformance suite: the engine's exact behaviour, digested.

Every case below runs one or more simulations and folds their
``SimulationResult.canonical_json()`` texts into a SHA-256 digest that is
committed in ``tests/goldens/engine_conformance.json``.  The digests were
recorded *before* the hot-path rewrite (PR 8) and must never drift: any
refactor of the engine, DRAM, channel, controller or workload layers is
only legal while every digest stays bit-identical.

Coverage:

* the system configurations of the retired ``repro bench`` scenarios,
  kept under their ``bench:*`` names (the two sweep scenarios shared one
  4-point prefetch sweep, digested serially);
* a deterministic slice of every figure module's ``plan(ctx)`` — all
  unique planned runs, normalised the way the experiments layer does;
* the off-by-default subsystems that ride the hot path when enabled:
  a faulted run, a timeline-enabled run and a ``check_protocol=True`` run;
* the prefetch-buffer paths no other case reaches: AMB-cache parity flips,
  the controller-side buffer with lifecycle accounting, and K=1 groups;
* every non-DDR2 device generation preset (``repro.dram.devices``)
  running the bench cases plus the fig05 plan, so the per-generation
  timing and energy tables are pinned by digests of their own.  tFAW
  enforcement is pinned where it binds, in the scheduler's estimate
  (``Bank.probe``): ``device:lpddr4-2400:fig05`` and ``reach:refresh``
  change without it.  These runs end before their first tREFI, so
  refresh scheduling is pinned by ``reach:refresh`` instead.  The DDR2
  preset adds no cases: it must map every configuration onto itself
  (``test_ddr2_preset_reproduces_...``), keeping the pre-refactor digests
  authoritative;
* the six scenarios of the retired golden-number harness (``golden:*``),
  at its budget and each config's own seed;
* one short run per path no other case reaches (``reach:*``): refresh,
  power-down residency, retry-budget drops and degraded mode, the
  windowed lifecycle, fault-retry and open-page fields, and cores that
  stall on full MSHR pools.

The reach gate (``test_every_counter_and_window_field_is_reached``)
proves the digests cover every counter: each ``MemSystemStats`` and
``CoreStats`` counter and each ``WindowRecord`` field must be nonzero in
at least one case, or sit in :data:`UNREACHED` with its reason.  It reads the runs the digest
tests already made, so no case is simulated twice.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/test_engine_conformance.py --refresh

and review the goldens diff like any other code change.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, FrozenSet, NamedTuple

import pytest

from repro.config import (
    AmbPrefetchConfig,
    PagePolicy,
    PrefetchLocation,
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.experiments import (
    ablations,
    fig04_smt_speedup,
    fig05_bw_latency,
    fig06_bandwidth_impact,
    fig07_amb_speedup,
    fig08_coverage,
    fig09_decomposition,
    fig10_bw_latency_ap,
    fig11_sensitivity,
    fig12_sw_prefetch,
    fig13_power,
    hw_prefetch,
    prefetch_location,
)
from repro.experiments.runner import ExperimentContext
from repro.cpu.core import CoreStats
from repro.serialize import canonical_dumps
from repro.stats.collector import COUNTERS
from repro.system import run_system
from repro.timeline.records import WindowRecord
from repro.workloads.multiprog import workload_programs

GOLDEN_PATH = Path(__file__).parent / "goldens" / "engine_conformance.json"

#: Budgets are small — a conformance case pins behaviour, not statistics —
#: but large enough that prefetch fills, write drains, faults and windows
#: all actually happen.
BENCH_INSTS = 2000
PLAN_INSTS = 1500
SEED = 12345

_BENCH_PROGRAMS = ("wupwise", "swim", "mgrid", "applu")

_FIGURE_PLANS = [
    ("fig04", fig04_smt_speedup.plan),
    ("fig05", fig05_bw_latency.plan),
    ("fig06", fig06_bandwidth_impact.plan),
    ("fig07", fig07_amb_speedup.plan),
    ("fig08", fig08_coverage.plan),
    ("fig09", fig09_decomposition.plan),
    ("fig10", fig10_bw_latency_ap.plan),
    ("fig11", fig11_sensitivity.plan),
    ("fig12", fig12_sw_prefetch.plan),
    ("fig13", fig13_power.plan),
    ("ablations", ablations.plan),
    ("location", prefetch_location.plan),
    ("hwprefetch", hw_prefetch.plan),
]


def _budget(config: SystemConfig, instructions: int = BENCH_INSTS) -> SystemConfig:
    return dataclasses.replace(
        config, instructions_per_core=instructions, seed=SEED
    )


def _sweep_pairs() -> "list[tuple]":
    """A small prefetch-degree sweep, the shape every figure module has."""
    return [
        (_budget(fbdimm_amb_prefetch(num_cores=2).with_prefetch(
            region_cachelines=k)), ("wupwise", "swim"))
        for k in (1, 2, 4, 8)
    ]


def _bench_cases() -> "dict[str, list]":
    """The retired bench scenarios' configurations as (config, programs)
    pairs."""
    two = ("wupwise", "swim")
    return {
        "bench:ddr2-1ch": [
            (_budget(ddr2_baseline(num_cores=2, logic_channels=1)), two)
        ],
        "bench:fbd-4ch": [
            (_budget(fbdimm_baseline(num_cores=4, logic_channels=4)),
             _BENCH_PROGRAMS)
        ],
        "bench:fbd-4ch-ap": [
            (_budget(fbdimm_amb_prefetch(num_cores=4, logic_channels=4)),
             _BENCH_PROGRAMS)
        ],
        "bench:fbd-4ch-ap-timeline": [
            (_budget(
                fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
                .with_timeline(window_ns=1000.0)
            ), _BENCH_PROGRAMS)
        ],
        "bench:fbd-4ch-ap-faults": [
            (_budget(
                fbdimm_amb_prefetch(num_cores=4, logic_channels=4)
                .with_faults(error_rate=1e-2)
            ), _BENCH_PROGRAMS)
        ],
        "bench:sweep": _sweep_pairs(),
    }


def _variant_cases() -> "dict[str, list]":
    """Off-by-default hot-path variants: faulted, timeline, checked, and
    the prefetch-buffer paths of :func:`_buffer_variants`."""
    faulted = fbdimm_amb_prefetch(num_cores=2, logic_channels=2).with_faults(
        error_rate=5e-2, max_retries=3
    )
    timeline = ddr2_baseline(num_cores=2, logic_channels=1).with_timeline(
        window_ns=500.0
    )
    checked = dataclasses.replace(
        fbdimm_amb_prefetch(num_cores=2, logic_channels=2),
        check_protocol=True,
    )
    two = ("wupwise", "swim")
    return {
        "variant:faulted": [(_budget(faulted), two)],
        "variant:timeline": [(_budget(timeline), two)],
        "variant:checked": [(_budget(checked), two)],
        **{name: [(_budget(config), programs)]
           for name, (config, programs) in _buffer_variants().items()},
    }


def _buffer_variants() -> "dict[str, tuple]":
    """Prefetch-buffer paths no other case reaches: AMB-cache parity flips
    with lifecycle accounting, the controller-side buffer with lifecycle
    and faults, and K=1 groups (a fetch with no companion lines)."""
    parity = fbdimm_amb_prefetch(
        num_cores=2, logic_channels=2,
        prefetch=AmbPrefetchConfig(lifecycle=True, cache_entries=16),
    ).with_faults(error_rate=1e-2, amb_bitflip_rate=0.25)
    controller = fbdimm_amb_prefetch(
        num_cores=2, logic_channels=2,
        prefetch=AmbPrefetchConfig(location=PrefetchLocation.CONTROLLER,
                                   cache_entries=4, lifecycle=True),
    ).with_faults(error_rate=1e-2)
    k1 = fbdimm_amb_prefetch(
        num_cores=2, logic_channels=2,
        prefetch=AmbPrefetchConfig(region_cachelines=1),
    )
    return {
        "variant:lifecycle-amb-parity": (parity, ("wupwise", "swim")),
        "variant:lifecycle-controller": (controller, ("swim", "mgrid")),
        "variant:amb-k1": (k1, ("wupwise", "swim")),
    }


#: Non-DDR2 generations get digests of their own; ``ddr2-667`` is
#: deliberately absent (it must reproduce the pre-refactor digests, which
#: the identity test below proves without duplicating the runs).
_DEVICE_GENERATIONS = ("ddr3-1333", "ddr4-2400", "lpddr4-2400")


def _device_cases() -> "dict[str, list]":
    """Every bench case and the fig05 plan, per device generation."""
    cases = {}
    bench = _bench_cases()
    for device in _DEVICE_GENERATIONS:
        pairs = []
        for name in sorted(bench):
            pairs.extend(
                (config.with_device(device), programs)
                for config, programs in bench[name]
            )
        cases[f"device:{device}:bench"] = pairs
        ctx = ExperimentContext(instructions=PLAN_INSTS, seed=SEED, quick=True)
        unique = {
            (ctx._normalize(config).with_device(device), tuple(programs))
            for config, programs in fig05_bw_latency.plan(ctx)
        }
        cases[f"device:{device}:fig05"] = sorted(
            unique,
            key=lambda pair: (canonical_dumps(pair[0].to_dict()), pair[1]),
        )
    return cases


def _figure_cases() -> "dict[str, list]":
    """Every unique run in every figure module's quick-mode plan."""
    cases = {}
    for name, plan in _FIGURE_PLANS:
        ctx = ExperimentContext(instructions=PLAN_INSTS, seed=SEED, quick=True)
        unique = {
            (ctx._normalize(config), tuple(programs))
            for config, programs in plan(ctx)
        }
        cases[f"figure:{name}"] = sorted(
            unique,
            key=lambda pair: (canonical_dumps(pair[0].to_dict()), pair[1]),
        )
    return cases


#: The retired golden-number harness's budget: its six scenarios run at
#: 6,000 instructions per core with each config's own seed (not
#: :func:`_budget`'s).
GOLDEN_INSTS = 6000


def _golden_cases() -> "dict[str, list]":
    """The six scenarios of the retired golden-number harness."""

    def small(config: SystemConfig) -> SystemConfig:
        return dataclasses.replace(config, instructions_per_core=GOLDEN_INSTS)

    k8 = fbdimm_amb_prefetch(1, prefetch=AmbPrefetchConfig(region_cachelines=8))
    nosp = dataclasses.replace(fbdimm_amb_prefetch(2), software_prefetch=False)
    return {
        "golden:ddr2-swim": [(small(ddr2_baseline(1)), ("swim",))],
        "golden:fbd-swim": [(small(fbdimm_baseline(1)), ("swim",))],
        "golden:ap-swim": [(small(fbdimm_amb_prefetch(1)), ("swim",))],
        "golden:ap-k8-vpr": [(small(k8), ("vpr",))],
        "golden:fbd-2core": [(small(fbdimm_baseline(2)), ("gap", "vortex"))],
        "golden:ap-2core-nosp": [(small(nosp), ("wupwise", "equake"))],
    }


def _reach_cases() -> "dict[str, list]":
    """One short run per path no other case reaches."""
    two = ("wupwise", "swim")
    # A 4-core DDR2-path run long enough to pass LPDDR4's tREFI.
    refresh = ddr2_baseline(num_cores=4, logic_channels=1).with_device(
        "lpddr4-2400").with_timeline(window_ns=2000.0)
    # One sparse core leaves idle gaps past powerdown_entry_ns.
    powerdown = fbdimm_baseline(num_cores=1).with_timeline(window_ns=500.0)
    # Half of all transfers corrupt: replays exhaust max_retries and the
    # channels cross degraded_threshold.
    drops = fbdimm_amb_prefetch(num_cores=2, logic_channels=2).with_faults(
        error_rate=0.5, max_retries=1, degraded_threshold=4)
    parity, _ = _buffer_variants()["variant:lifecycle-amb-parity"]
    open_page = ddr2_baseline(num_cores=2, logic_channels=1).with_memory(
        page_policy=PagePolicy.OPEN_PAGE).with_timeline(window_ns=500.0)
    # Eight cores share two L2 MSHRs and have two data-cache MSHRs each,
    # so reads block on both pools and releases hand slots on.
    eight = fbdimm_amb_prefetch(num_cores=8)
    mshr = dataclasses.replace(eight, cpu=dataclasses.replace(
        eight.cpu, data_mshr_entries=2, l2_mshr_entries=2))
    return {
        "reach:refresh": [(_budget(refresh, 20_000), _BENCH_PROGRAMS)],
        "reach:powerdown": [(_budget(powerdown, 3000), ("gap",))],
        "reach:fault-drops": [(_budget(drops), two)],
        "reach:lifecycle-windows": [
            (_budget(parity.with_timeline(window_ns=500.0)), two)
        ],
        "reach:open-page-windows": [(_budget(open_page), two)],
        "reach:mshr": [(_budget(mshr), tuple(workload_programs("8C-1")))],
    }


def conformance_cases() -> "dict[str, list]":
    cases = {}
    cases.update(_bench_cases())
    cases.update(_variant_cases())
    cases.update(_device_cases())
    cases.update(_figure_cases())
    cases.update(_golden_cases())
    cases.update(_reach_cases())
    return cases


#: Case names are static (they do not depend on running anything), so the
#: parametrized test ids stay stable for -k selection and the goldens file.
CASE_NAMES = (
    [name for name in _bench_cases()]
    + [name for name in _variant_cases()]
    + [f"device:{device}:{part}"
       for device in _DEVICE_GENERATIONS for part in ("bench", "fig05")]
    + [f"figure:{name}" for name, _ in _FIGURE_PLANS]
    + [name for name in _golden_cases()]
    + [name for name in _reach_cases()]
)

_COUNTER_NAMES = tuple(f.name for f in COUNTERS)
_CORE_STATS = tuple(f.name for f in dataclasses.fields(CoreStats))
_WINDOW_FIELDS = tuple(f.name for f in dataclasses.fields(WindowRecord))

#: Counters (``MemSystemStats.<name>``, ``CoreStats.<name>``) and window
#: fields (``WindowRecord.<name>``) that no case moves, each with the
#: reason.
#: The reach gate fails on any other zero, and on an entry here that some
#: case does move, so the map cannot go stale.
UNREACHED = {
    "MemSystemStats.faw_stalls": (
        "Bank.probe applies the tFAW gate before the scheduler issues, so "
        "Bank._row_phase never finds an ACT to delay (pinned at bank level "
        "by tests/test_bank.py::TestFourActivateWindow)"
    ),
    "MemSystemStats.faw_stall_ps": "the delay of faw_stalls; zero for the same reason",
    "CoreStats.store_stalls": (
        "no SPEC profile keeps 32 writes (the default store buffer) in "
        "flight on one core; pinned at core level by "
        "tests/test_core.py::TestWrites::test_store_buffer_fills_and_stalls"
    ),
    "CoreStats.sw_prefetches_squashed": (
        "a SPEC trace prefetches only the line its own read takes "
        "sw_prefetch_distance later, in a private address slice, so no "
        "case prefetches a line twice; pinned at core level by "
        "tests/test_core.py::TestSoftwarePrefetch::"
        "test_duplicate_prefetch_squashed"
    ),
}


class CaseRun(NamedTuple):
    """One case's digest, and the counters and window fields it moved."""

    digest: Dict[str, object]
    reached: FrozenSet[str]


def digest_case(pairs) -> CaseRun:
    """Run every (config, programs) pair serially, fold the digests, and
    note every counter and window field that ended nonzero."""
    run_digests = []
    reached = set()
    for config, programs in pairs:
        result = run_system(config, programs)
        text = result.canonical_json()
        run_digests.append(hashlib.sha256(text.encode()).hexdigest())
        reached.update(f"MemSystemStats.{name}" for name in _COUNTER_NAMES
                       if getattr(result.mem, name))
        reached.update(f"CoreStats.{name}" for name in _CORE_STATS
                       if any(getattr(core, name) for core in result.core_stats))
        windows = result.timeline.windows if result.timeline else ()
        for window in windows:
            reached.update(f"WindowRecord.{name}" for name in _WINDOW_FIELDS
                           if getattr(window, name))
    combined = hashlib.sha256("\n".join(run_digests).encode()).hexdigest()
    return CaseRun({"digest": combined, "runs": len(run_digests)},
                   frozenset(reached))


def load_goldens() -> "dict[str, dict]":
    if not GOLDEN_PATH.exists():
        raise FileNotFoundError(
            f"{GOLDEN_PATH} missing; regenerate with "
            "PYTHONPATH=src python tests/test_engine_conformance.py --refresh"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def goldens():
    return load_goldens()


@pytest.fixture(scope="module")
def cases():
    return conformance_cases()


@pytest.fixture(scope="module")
def case_run(cases):
    """``case_run(name)`` simulates a case once per module; the digest
    tests and the reach checks share the result."""
    memo: Dict[str, CaseRun] = {}

    def run(name: str) -> CaseRun:
        if name not in memo:
            memo[name] = digest_case(cases[name])
        return memo[name]

    return run


class TestConformance:
    def test_goldens_cover_every_case(self, goldens, cases):
        assert set(goldens) == set(cases)
        assert set(cases) == set(CASE_NAMES)

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_digest_matches_golden(self, name, goldens, case_run):
        golden = goldens[name]
        actual = case_run(name).digest
        assert actual["runs"] == golden["runs"], (
            f"{name}: planned run count changed "
            f"({golden['runs']} -> {actual['runs']})"
        )
        assert actual["digest"] == golden["digest"], (
            f"{name}: simulated behaviour drifted from the pre-rewrite "
            "golden; if intentional, refresh the goldens and review the diff"
        )

    def test_every_counter_and_window_field_is_reached(self, case_run):
        """A digest proves behaviour unchanged only on paths that run: every
        counter and window field is nonzero in some case, or is listed in
        UNREACHED with its reason."""
        reached = set()
        for name in CASE_NAMES:
            reached |= case_run(name).reached
        every = ({f"MemSystemStats.{name}" for name in _COUNTER_NAMES}
                 | {f"CoreStats.{name}" for name in _CORE_STATS}
                 | {f"WindowRecord.{name}" for name in _WINDOW_FIELDS})
        unreached = sorted(every - reached - set(UNREACHED))
        assert not unreached, (
            f"no conformance case moves {unreached}: add a reach:* case "
            "that does, or list it in UNREACHED with the reason"
        )
        stale = sorted(set(UNREACHED) & reached)
        assert not stale, f"UNREACHED lists {stale}, which a case now moves"
        assert set(UNREACHED) <= every, sorted(set(UNREACHED) - every)
        assert all(UNREACHED.values())

    def test_buffer_variants_reach_their_paths(self, case_run):
        """Each buffer variant keeps exercising the path it pins: a digest
        of a run that never takes the path would prove nothing."""
        def moved(case):
            return {name.split(".", 1)[1] for name in case_run(case).reached
                    if name.startswith("MemSystemStats.")}

        assert {"amb_parity_errors", "pf_invalidated", "pf_evicted_unused"} \
            <= moved("variant:lifecycle-amb-parity")
        assert {"pf_late_unused", "pf_evicted_unused"} \
            <= moved("variant:lifecycle-controller")
        k1 = moved("variant:amb-k1")
        assert "demand_reads" in k1 and "prefetched_lines" not in k1

    def test_ddr2_preset_reproduces_pre_refactor_digests(self, goldens):
        """The ddr2-667 preset is the identity on every bench config.

        Config level: applying the preset must not change the canonical
        encoding of any bench-case configuration, which (with the digest
        tests above green) proves every pre-refactor digest is reproduced
        bit-identically without re-running the simulations.  Run level:
        the cheapest scenario is additionally simulated through the
        mapped config and checked against its committed golden.
        """
        bench = _bench_cases()
        for name, pairs in bench.items():
            for config, programs in pairs:
                mapped = config.with_device("ddr2-667")
                assert canonical_dumps(mapped.to_dict()) == canonical_dumps(
                    config.to_dict()
                ), f"{name}: ddr2-667 preset changed the canonical config"
        config, programs = bench["bench:ddr2-1ch"][0]
        actual = digest_case([(config.with_device("ddr2-667"), programs)])
        assert actual.digest["digest"] == goldens["bench:ddr2-1ch"]["digest"]


def refresh() -> None:
    goldens = {}
    for name, pairs in sorted(conformance_cases().items()):
        goldens[name] = digest_case(pairs).digest
        print(f"{name}: {goldens[name]['runs']} runs "
              f"-> {goldens[name]['digest'][:16]}…")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--refresh" not in sys.argv:
        sys.exit("usage: python tests/test_engine_conformance.py --refresh")
    refresh()
