"""Exact per-layer Python call counts: a cost gate with no noise.

For a fixed tree, interpreter and input, the number of Python ``call``
events a run makes is exact, so a change to it is a change to the code,
never to the host.  This test pins, per workload, the calls each
top-level ``src/repro`` entry (``controller``, ``engine``,
``system.py``, ...) makes during one run; stdlib and builtins are not
counted.  Three workloads are the single-run workloads of
``perfbench/`` at a small size: ``fbd-ap-8c``, ``ddr2-4c`` and
``fbd-ap-observed`` at 20 000 insts/core, seed 12345, each one
``run_system``.  ``fbd-ap-traced`` is ``fbd-ap-8c`` with a request
``Tracer`` attached and ``tracer.traces()`` built inside the counted
window, so it pins the tracer's on-cost.  ``stream-8c`` is the saturated
shape of the validation experiment: eight ``stream`` cores on
``fbdimm_baseline`` with a 12-instruction gap, through
``repro.experiments.validation._run_streams``, where cores queue on the
shared L2 MSHRs.

Counting procedure, per workload: one untraced run first (a cold run
adds the calls of first-use caches and lazy imports), then
``gc.collect()`` (so the previous run's cyclic garbage, such as closed
workload generators, does not finalize inside the counted window), then
one counted run.

Any difference fails.  A layer that went **up** is a regression; one
that went **down** is a saving to re-pin with::

    PYTHONPATH=src python tests/test_call_budget.py --refresh

and to name in the change description.  The golden is pinned on
CPython 3.11: 3.12 inlines comprehensions (PEP 709), so its counts
differ, and the test skips on any other minor version.
"""

import dataclasses
import gc
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import pytest

import repro
from repro import config as presets
from repro.experiments.validation import _run_streams
from repro.system import run_system
from repro.telemetry.spans import Tracer
from repro.workloads.multiprog import workload_programs

GOLDEN_PATH = Path(__file__).parent / "goldens" / "call_budget.json"
PINNED_PYTHON = (3, 11)
INSTS = 20_000
SEED = 12345

#: name -> (preset builder in repro.config, Table 3 mix, every observer
#: on, request tracer attached); a mix of None runs STREAM_CORES stream
#: cores instead (see the module docstring).
WORKLOADS: Dict[str, Tuple[str, Optional[str], bool, bool]] = {
    "fbd-ap-8c": ("fbdimm_amb_prefetch", "8C-1", False, False),
    "ddr2-4c": ("ddr2_baseline", "4C-1", False, False),
    "fbd-ap-observed": ("fbdimm_amb_prefetch", "8C-1", True, False),
    "fbd-ap-traced": ("fbdimm_amb_prefetch", "8C-1", False, True),
    "stream-8c": ("fbdimm_baseline", None, False, False),
}
STREAM_CORES = 8
STREAM_GAP = 12

REPRO_ROOT = Path(repro.__file__).resolve().parent


def build(name: str):
    """The workload's config and programs, as ``perfbench`` builds them."""
    preset, mix, observed, _ = WORKLOADS[name]
    assert mix is not None, f"{name} runs stream cores, not a mix"
    programs = workload_programs(mix)
    config = getattr(presets, preset)(num_cores=len(programs))
    if observed:
        config = (
            config.with_timeline(window_ns=1000.0)
            .with_prefetch(lifecycle=True)
            .with_faults(error_rate=1e-2)
        )
    config = dataclasses.replace(
        config, instructions_per_core=INSTS, seed=SEED,
        check_protocol=observed,
    )
    return config, programs


def count_calls(fn: Callable[[], object]) -> Dict[str, int]:
    """Python ``call`` events of ``fn()`` per top-level ``src/repro`` entry."""
    counts: Counter = Counter()
    entry_of: Dict[str, str] = {}

    def profile(frame, event, _arg):
        if event != "call":
            return
        filename = frame.f_code.co_filename
        entry = entry_of.get(filename)
        if entry is None:
            try:
                entry = Path(filename).resolve().relative_to(REPRO_ROOT).parts[0]
            except ValueError:
                entry = ""
            entry_of[filename] = entry
        if entry:
            counts[entry] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return dict(sorted(counts.items()))


def workload_run(name: str) -> Callable[[], object]:
    """One run of the workload: ``run_system(config, programs)``, with a
    ``Tracer`` attached and its traces built when the workload is traced,
    or the stream cores."""
    preset, mix, _, traced = WORKLOADS[name]
    if mix is None:
        base = getattr(presets, preset)()
        return lambda: _run_streams(base, STREAM_CORES, STREAM_GAP, INSTS)
    config, programs = build(name)

    def run() -> None:
        tracer = Tracer() if traced else None
        run_system(config, programs, tracer=tracer)
        if tracer is not None:
            tracer.traces()

    return run


def measure(run: Callable[[], object]) -> Dict[str, int]:
    """Warm, collect, then count one ``run()``."""
    run()
    gc.collect()
    return count_calls(run)


def drift(golden: Dict[str, int], actual: Dict[str, int]) -> List[str]:
    """One line per entry whose count changed, naming the direction."""
    lines = []
    for entry in sorted(set(golden) | set(actual)):
        before, after = golden.get(entry, 0), actual.get(entry, 0)
        if before != after:
            direction = "up" if after > before else "down"
            lines.append(f"{entry}: {before} -> {after} ({direction})")
    return lines


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


needs_pinned_python = pytest.mark.skipif(
    sys.implementation.name != "cpython"
    or sys.version_info[:2] != PINNED_PYTHON,
    reason="call counts are pinned on CPython 3.11; 3.12 inlines "
           "comprehensions (PEP 709), so its counts differ",
)


@needs_pinned_python
class TestCallBudget:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_calls_match_golden(self, name):
        golden = load_golden()["workloads"][name]
        lines = drift(golden, measure(workload_run(name)))
        assert not lines, (
            f"{name}: Python calls per layer changed. 'up' is a regression; "
            "'down' is a saving to re-pin with "
            "'python tests/test_call_budget.py --refresh':\n  "
            + "\n  ".join(lines)
        )

    def test_planted_controller_call_reads_as_up(self, monkeypatch):
        """The gate is live: one extra controller-layer call per submitted
        request shows as ``controller`` going up, and nothing else moves."""
        from repro.controller.channel_controller import ChannelControllerBase

        original = ChannelControllerBase.submit

        def planted(self, req):
            self.queue_len()  # the planted call, attributed to controller
            return original(self, req)

        monkeypatch.setattr(ChannelControllerBase, "submit", planted)
        golden = load_golden()["workloads"]["ddr2-4c"]
        lines = drift(golden, measure(workload_run("ddr2-4c")))
        assert len(lines) == 1 and lines[0].startswith("controller: ")
        assert lines[0].endswith("(up)")


def refresh() -> None:
    if sys.version_info[:2] != PINNED_PYTHON:
        sys.exit(f"refresh on CPython {PINNED_PYTHON[0]}.{PINNED_PYTHON[1]}")
    golden = {
        "python": f"{PINNED_PYTHON[0]}.{PINNED_PYTHON[1]}",
        "insts_per_core": INSTS,
        "seed": SEED,
        "workloads": {},
    }
    for name in WORKLOADS:
        counts = measure(workload_run(name))
        golden["workloads"][name] = counts
        print(f"{name}: {sum(counts.values())} calls")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--refresh" not in sys.argv:
        sys.exit("usage: python tests/test_call_budget.py --refresh")
    refresh()
