"""Golden fixtures: the lint engine's own regression suite.

Mirrors :mod:`repro.check.selftest` (the protocol checker's seeded-trace
suite): every rule has at least one deliberately-broken fixture it must
flag and one clean fixture it must pass, run with *all* rules enabled so
a fixture that trips an unrelated rule fails loudly.  A refactor that
quietly blinds a rule is caught in CI the same way a scheduler bug would
be (``python -m repro.check --self-test``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.check.lint.core import LintEngine


@dataclass(frozen=True)
class LintSelfTestCase:
    """One in-memory project and the rule(s) it must (or must not) trip."""

    name: str
    files: Tuple[Tuple[str, str], ...]  # (module_rel, source)
    expect_rules: Tuple[str, ...]  # empty = must be clean


def _one(name: str, rel: str, source: str,
         *expect: str) -> LintSelfTestCase:
    return LintSelfTestCase(name, ((rel, source),), tuple(expect))


def cases() -> List[LintSelfTestCase]:
    """All fixture projects (deterministic order)."""
    out: List[LintSelfTestCase] = []

    # -- determinism: wall-clock ----------------------------------------
    out.append(_one(
        "bad-wall-clock", "engine/mod.py",
        "import time\nx = time.time()\n", "wall-clock",
    ))
    out.append(_one(
        "good-wall-clock-new-suppression", "engine/mod.py",
        "import time\nx = time.time()  # repro: ignore[wall-clock]\n",
    ))

    # -- determinism: unseeded-random -----------------------------------
    out.append(_one(
        "bad-unseeded-random", "controller/mod.py",
        "import random\nx = random.random()\n", "unseeded-random",
    ))
    out.append(_one(
        "good-random-workloads-exempt", "workloads/gen.py",
        "import random\nx = random.shuffle([1])\n",
    ))
    out.append(_one(
        "good-random-instance", "controller/mod.py",
        "import random\nrng = random.Random(7)\nx = rng.random()\n",
    ))

    # -- determinism: set-iteration -------------------------------------
    out.append(_one(
        "bad-set-iteration", "analysis/mod.py",
        "for x in {1, 2}:\n    y = x\n", "set-iteration",
    ))
    out.append(_one(
        "good-sorted-set", "analysis/mod.py",
        "for x in sorted({1, 2}):\n    y = x\n",
    ))

    # -- determinism: float-time ----------------------------------------
    out.append(_one(
        "bad-float-time", "dram/mod.py",
        "y = delay_ps / 2\n", "float-time",
    ))
    out.append(_one(
        "good-float-time-cold-path", "experiments/mod.py",
        "y = delay_ps / 2\n",
    ))

    # -- unit-flow: unit-mix --------------------------------------------
    out.append(_one(
        "bad-unit-mix-arithmetic", "engine/mod.py",
        "total_ps = delay_ps + gap_ns\n", "unit-mix",
    ))
    out.append(_one(
        "bad-unit-mix-comparison", "channel/mod.py",
        "late = busy_ps > limit_ns\n", "unit-mix",
    ))
    out.append(_one(
        "bad-unit-mix-assignment", "channel/mod.py",
        "hop_ps = amb_hop_ns\n", "unit-mix",
    ))
    out.append(_one(
        "bad-unit-mix-cycles", "dram/mod.py",
        "wait_cycles = burst_clocks + settle_ps\n", "unit-mix",
    ))
    out.append(_one(
        "good-unit-mix-same-unit", "engine/mod.py",
        "total_ps = delay_ps + gap_ps\n",
    ))
    out.append(_one(
        "good-unit-mix-converted", "channel/mod.py",
        "hop_ps = ns(amb_hop_ns)\n",
    ))
    out.append(_one(
        "good-unit-mix-timing-table", "dram/mod.py",
        "window_ps = timing.tRCD + timing.tCL\n",
    ))
    out.append(_one(
        "bad-unit-mix-config-timings", "dram/mod.py",
        "window_ps = timings.tRCD + clock_ps\n", "unit-mix",
    ))
    out.append(_one(
        "good-unit-mix-cold-path", "experiments/mod.py",
        "total_ps = delay_ps + gap_ns\n",
    ))

    # -- unit-flow: unit-return -----------------------------------------
    out.append(_one(
        "bad-unit-return-wrong-suffix", "engine/mod.py",
        "def frame_gap_ps(delay_ns: int) -> int:\n    return delay_ns\n",
        "unit-return",
    ))
    out.append(_one(
        "bad-unit-return-unitless-name", "channel/mod.py",
        "def gap(delay_ps: int) -> int:\n    return delay_ps\n",
        "unit-return",
    ))
    out.append(_one(
        "good-unit-return", "engine/mod.py",
        "def frame_gap_ps(delay_ps: int) -> int:\n    return delay_ps\n",
    ))

    # -- worker-shared-state --------------------------------------------
    shared_bad_system = (
        "_CACHE: dict = {}\n"
        "\n"
        "def run_system(x: int) -> int:\n"
        "    _CACHE[x] = x\n"
        "    return x\n"
    )
    out.append(LintSelfTestCase(
        "bad-worker-shared-state",
        (
            ("experiments/parallel.py", "import repro.system\n"),
            ("system.py", shared_bad_system),
        ),
        ("worker-shared-state",),
    ))
    out.append(LintSelfTestCase(
        "bad-worker-shared-state-method-call",
        (
            ("experiments/parallel.py", "from repro.dram import bank\n"),
            ("dram/__init__.py", ""),
            ("dram/bank.py",
             "_SEEN: list = []\n"
             "\n"
             "def observe(x: int) -> None:\n"
             "    _SEEN.append(x)\n"),
        ),
        ("worker-shared-state",),
    ))
    out.append(LintSelfTestCase(
        "good-worker-shared-state-unreachable",
        (
            ("experiments/parallel.py", "import json\n"),
            ("system.py", shared_bad_system),
        ),
        (),
    ))
    out.append(LintSelfTestCase(
        "good-worker-module-level-init",
        (
            ("experiments/parallel.py", "import repro.system\n"),
            ("system.py",
             "_TABLE: dict = {}\n"
             "for index in range(4):\n"
             "    _TABLE[index] = index\n"),
        ),
        (),
    ))
    out.append(LintSelfTestCase(
        "good-worker-type-checking-import-no-edge",
        (
            ("experiments/parallel.py",
             "from typing import TYPE_CHECKING\n"
             "if TYPE_CHECKING:\n"
             "    import repro.system\n"),
            ("system.py", shared_bad_system),
        ),
        (),
    ))

    # -- untyped-def -----------------------------------------------------
    out.append(_one(
        "bad-untyped-def", "power/mod.py",
        "def scale(x):\n    return x\n", "untyped-def",
    ))
    out.append(_one(
        "good-typed-def", "power/mod.py",
        "def scale(x: float) -> float:\n    return x\n",
    ))
    out.append(_one(
        "good-untyped-def-tests-exempt", "tests/test_mod.py",
        "def helper(x):\n    return x\n",
    ))

    # -- engine plumbing -------------------------------------------------
    out.append(_one(
        "bad-syntax-error", "engine/broken.py",
        "def f(:\n", "syntax-error",
    ))
    return out


def run_self_test() -> Tuple[int, List[str]]:
    """Run every fixture; returns (cases run, failure descriptions)."""
    failures: List[str] = []
    all_cases = cases()
    for case in all_cases:
        findings = LintEngine().lint_sources(list(case.files))
        rules = {f.rule for f in findings}
        if not case.expect_rules:
            if findings:
                failures.append(
                    f"{case.name}: clean fixture flagged: "
                    + "; ".join(f.format() for f in findings)
                )
            continue
        missing = [rule for rule in case.expect_rules if rule not in rules]
        if missing:
            failures.append(
                f"{case.name}: seeded {missing} not flagged "
                f"(got {sorted(rules) or 'nothing'})"
            )
        unexpected = rules - set(case.expect_rules)
        if unexpected:
            failures.append(
                f"{case.name}: unexpected extra rules {sorted(unexpected)}"
            )
    return len(all_cases), failures
