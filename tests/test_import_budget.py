"""What a run loads: the run path and the post-run metrics import only
the code they use.

Each check runs in a fresh interpreter, so modules an earlier test
imported cannot hide an import.  NumPy is not a runtime dependency (the
latency percentiles are pure Python), and the timeline's collector,
diff, export, phases and report code, the fault sweep and the
``repro.experiments`` package load only in the commands that use them.
A run under the protocol check loads the checker and its journal model,
not the lint engine or the self-test suite.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules neither a plain run nor its metric pass may load.
NOT_LOADED = (
    "numpy",
    "repro.timeline.collector",
    "repro.timeline.diff",
    "repro.timeline.export",
    "repro.timeline.phases",
    "repro.timeline.report",
    "repro.faults.sweep",
    "repro.experiments",
)

_RUN_AND_MEASURE = """
import dataclasses
import sys

from repro.config import fbdimm_amb_prefetch
from repro.system import System
from repro.workloads.multiprog import workload_programs

programs = workload_programs("8C-1")
config = dataclasses.replace(fbdimm_amb_prefetch(num_cores=len(programs)),
                             instructions_per_core=2000)
result = System(config, programs).run()

from repro.analysis.utilisation import utilisation_summary
from repro.power.energy import CommandEnergyModel

utilisation_summary(result.mem)
CommandEnergyModel().energy_of(result.mem)
print(" ".join(sorted(sys.modules)))
"""

_CHECKED_RUN = """
import dataclasses
import sys

from repro.config import fbdimm_amb_prefetch
from repro.system import System

config = dataclasses.replace(fbdimm_amb_prefetch(num_cores=2),
                             instructions_per_core=2000, check_protocol=True)
assert System(config, ["swim", "wupwise"]).run().protocol_violations == []
print(" ".join(sorted(sys.modules)))
"""

#: ``python -m repro`` with every NumPy import made to fail.
_CLI_WITHOUT_NUMPY = """
import runpy
import sys

sys.modules["numpy"] = None
sys.argv = ["repro"] + sys.argv[1:]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _python(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": ""}, timeout=300,
    )


def test_run_and_metric_pass_load_only_what_they_use():
    proc = _python(_RUN_AND_MEASURE)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "repro.system" in loaded
    assert sorted(loaded.intersection(NOT_LOADED)) == []


def test_run_latency_needs_no_numpy():
    proc = _python(_CLI_WITHOUT_NUMPY, "run", "--workload", "4C-1",
                   "--insts", "2000", "--latency")
    assert proc.returncode == 0, proc.stderr
    assert "latency distribution: n=" in proc.stdout


def test_checked_run_loads_only_the_protocol_check():
    proc = _python(_CHECKED_RUN)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "repro.check.protocol" in loaded
    assert sorted(
        name for name in loaded
        if name.startswith("repro.check.lint")
        or name == "repro.check.selftest"
    ) == []
