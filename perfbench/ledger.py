"""What the benchmark measures: workloads, layers and the statistics it reports.

Shared by the parent (``run.py``, ``suite.py``) and the per-trial child
(``child.py``).  It imports nothing from ``repro``, so the parent never
loads the simulator it is timing.

Metric names and units are declared once, in ``BENCHMARK.json`` at the
repository root; :func:`load_spec` reads them and ``run.py`` refuses to
print a metric set that differs from the declaration.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: The benchmark directory and the checkout it sits in.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Default seed; the digests in ``digests.json`` are pinned for it.
DEFAULT_SEED = 12345

#: Worker processes for the figures workloads: the 2-CPU machine the
#: benchmark was sized on.  The single-run workloads never fan out.
FIGURES_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """How one named workload runs.  Why it exists is in BENCHMARK.json."""

    name: str
    #: "single" runs one simulated system; "figures" regenerates every
    #: paper table through ExperimentContext.
    kind: str
    #: Instructions per core of every simulated run.
    insts: int
    #: Preset builder in ``repro.config`` and multiprogrammed mix (single).
    preset: str = ""
    mix: str = ""
    #: Every observer on: timeline, prefetch lifecycle, protocol checker,
    #: link faults (single).
    observed: bool = False
    #: Fill the run cache before timing (figures).
    warm: bool = False
    #: How much of the host-speed probe's slowdown this workload's timed
    #: region sees (``child.probing``): as other tenants slowed the host,
    #: log(region time) moved this many times as far as log(probe CPU
    #: time) -- the least-squares slope over about 40 interleaved trials
    #: of each workload on the reference host (0.80-0.85 for the single
    #: runs, 0.9 figures-warm, 0.6 figures-cold, whose workers run on
    #: both CPUs while the probe runs on one).
    host_sensitivity: float = 0.8


#: Sized so a 25 s run holds at least five trials on a 2-CPU x86_64 host
#: that other tenants slow by 1.5x (one trial takes 2-5 s), and no
#: smaller: the simulated work of a single run varies from seed to seed
#: by ~4% (IQR) at 200 000 insts/core and ~1.7% at 500 000, and that
#: variation is in every host time.  figures-warm's run also fills its
#: run cache, which takes as long as a figures-cold trial of its size.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("figures-cold", "figures", insts=5_000, host_sensitivity=0.6),
        Workload("figures-warm", "figures", insts=10_000, warm=True,
                 host_sensitivity=0.9),
        Workload("fbd-ap-8c", "single", insts=500_000,
                 preset="fbdimm_amb_prefetch", mix="8C-1"),
        Workload("ddr2-4c", "single", insts=1_000_000,
                 preset="ddr2_baseline", mix="4C-1"),
        Workload("fbd-ap-observed", "single", insts=250_000,
                 preset="fbdimm_amb_prefetch", mix="8C-1", observed=True),
    )
}

#: Top-level entries of ``src/repro`` -> layer.  Packages are their own
#: layer; the loose top-level modules are named explicitly.  Anything not
#: listed (a package added later) is reported as ``other`` with a warning,
#: and ``test_perfbench.py`` fails until it is named here.
LAYER_OF: Dict[str, str] = {
    **{pkg: pkg for pkg in (
        "channel", "check", "controller", "cpu", "dram", "engine",
        "experiments", "faults", "power", "prefetch", "stats", "telemetry",
        "timeline", "workloads",
    )},
    "analysis": "stats",  # reports derived from the stats counters
    "bench": "other",  # the old scenario harness; no workload imports it
    "serialize.py": "serialize",
    "system.py": "system",
    "config.py": "system",
    "__init__.py": "system",
    "__main__.py": "system",
    "trace.py": "telemetry",
}

#: Profile layers in report order: the simulator's packages, then stdlib
#: and builtins as ``other``.
LAYERS: Tuple[str, ...] = tuple(
    sorted(set(LAYER_OF.values()) - {"other"})
) + ("other",)


def layer_of(filename: str, repro_root: Path) -> Tuple[str, str]:
    """(layer, unmapped top-level entry or '') of a profiled code location."""
    try:
        parts = Path(filename).resolve().relative_to(repro_root).parts
    except (ValueError, OSError):
        return "other", ""
    layer = LAYER_OF.get(parts[0])
    return (layer, "") if layer else ("other", parts[0])


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------


def load_spec(root: Path = ROOT) -> dict:
    """The parsed ``BENCHMARK.json``; raises OSError/ValueError if absent
    or malformed."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not isinstance(spec, dict):
        raise ValueError("BENCHMARK.json is not an object")
    return spec


def declared(spec: dict, section: str) -> Dict[str, dict]:
    """Metric name -> declaration for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m for m in spec[section]}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles, samples and n: the v2 document's metric entry."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3,
            "samples": list(values), "n": len(values)}


def worse_by(better: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when better)."""
    if base == 0:
        change = 0.0 if new == 0 else float("inf") if new > 0 else float("-inf")
    else:
        change = (new - base) / abs(base)
    return change if better == "lower" else -change


def paired_wins(better: str, base: List[float], new: List[float]) -> Tuple[int, int]:
    """(pairs the new side won, pairs compared); ties win for neither."""
    wins = sum(
        1 for b, n in zip(base, new)
        if (n < b if better == "lower" else n > b)
    )
    return wins, min(len(base), len(new))
