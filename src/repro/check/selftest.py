"""Golden known-bad traces: the checker's own regression suite.

Each case is a small hand-built trace with exactly one seeded defect and
the rule id the checker must report for it — plus known-good traces that
must pass untouched.  ``python -m repro.check --self-test`` (run in CI)
fails if any seeded defect goes unflagged or any clean trace is flagged,
by the replay or by the journal audit (``journals_clean``), which guards
the guard: a refactor that quietly blinds a rule is caught the same way
a scheduler bug would be.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.check.protocol import ProtocolChecker, Violation, journals_clean
from repro.check.trace import (
    CheckEvent,
    TraceParams,
    default_params,
    event_journals,
)
from repro.dram.timing import TimingPs


@dataclass(frozen=True)
class SelfTestCase:
    """One seeded trace and the rule(s) it must (or must not) trigger."""

    name: str
    params: TraceParams
    events: List[CheckEvent]
    expect_rules: Tuple[str, ...]  # empty = must be clean


def _ddr2() -> TraceParams:
    return default_params("ddr2")


def _fbd() -> TraceParams:
    return default_params("fbdimm")


def _legal_read(t0: int, timing: TimingPs,
                bank: int = 0, row: int = 5) -> List[CheckEvent]:
    """A protocol-legal close-page read burst starting at ``t0``."""
    act = t0
    rd = act + timing.tRCD
    pre = max(act + timing.tRAS, rd + timing.tRPD)
    return [
        CheckEvent(act, "ACT", dimm=0, rank=0, bank=bank, row=row),
        CheckEvent(rd, "RD", dimm=0, rank=0, bank=bank, row=row),
        CheckEvent(pre, "PRE", dimm=0, rank=0, bank=bank, row=row),
    ]


def cases() -> List[SelfTestCase]:
    """All self-test traces (deterministic order)."""
    out: List[SelfTestCase] = []
    fbd = _fbd()
    ddr2 = _ddr2()
    t = fbd.timing

    # -- known-good ------------------------------------------------------
    out.append(SelfTestCase(
        "good-close-page-read", fbd, _legal_read(0, t), ()
    ))
    good_two_banks = sorted(
        _legal_read(0, t, bank=0)
        # tRRD apart on the rank; bursts serialised by tCL pipelining.
        + _legal_read(t.tRRD + t.burst, t, bank=1, row=9),
        key=lambda e: e.time_ps,
    )
    out.append(SelfTestCase("good-two-banks", fbd, good_two_banks, ()))
    out.append(SelfTestCase(
        "good-frames", fbd,
        [
            CheckEvent(0, "SB_CMD"),
            CheckEvent(0, "SB_CMD"),
            CheckEvent(0, "SB_CMD"),
            CheckEvent(fbd.frame_ps, "SB_CMD"),
            CheckEvent(fbd.frame_ps, "SB_DATA"),
            CheckEvent(fbd.nb_phase_ps + 4 * fbd.frame_ps, "NB_LINE", frames=2),
            CheckEvent(fbd.nb_phase_ps + 6 * fbd.frame_ps, "NB_LINE", frames=2),
        ],
        (),
    ))

    # -- seeded timing defects ------------------------------------------
    out.append(SelfTestCase(
        "bad-trcd", fbd,
        [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            # One clock too early: violates ACT -> RD >= tRCD.
            CheckEvent(t.tRCD - t.clock, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRAS, "PRE", dimm=0, rank=0, bank=0, row=5),
        ],
        ("tRCD",),
    ))
    out.append(SelfTestCase(
        "bad-tras", fbd,
        [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRCD, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRAS - 1, "PRE", dimm=0, rank=0, bank=0, row=5),
        ],
        ("tRAS",),
    ))
    # An early re-ACT: one picosecond inside tRP after a precharge held a
    # clock past tRAS (so tRC still holds) ...
    pre = max(t.tRAS, t.tRCD + t.tRPD) + t.clock
    out.append(SelfTestCase(
        "bad-trp", fbd,
        _legal_read(0, t)[:2]
        + [CheckEvent(pre, "PRE", dimm=0, rank=0, bank=0, row=5),
           CheckEvent(pre + t.tRP - 1, "ACT", dimm=0, rank=0, bank=0, row=6)],
        ("tRP",),
    ))
    # ... and exactly tRP after the precharge, under a row cycle one clock
    # longer than tRAS + tRP.
    long_rc = replace(fbd, timing=replace(t, tRC=t.tRAS + t.tRP + t.clock))
    pre = max(t.tRAS, t.tRCD + t.tRPD)
    out.append(SelfTestCase(
        "bad-trc", long_rc,
        _legal_read(0, t)
        + [CheckEvent(pre + t.tRP, "ACT", dimm=0, rank=0, bank=0, row=6)],
        ("tRC",),
    ))
    # ACT to bank 1 one picosecond inside the tRRD window; its column
    # access and precharge are pushed late enough to keep the data bus
    # and every same-bank constraint legal, isolating the tRRD defect.
    rd2 = t.tRCD + t.tCL + t.burst  # second burst starts after the first ends
    out.append(SelfTestCase(
        "bad-trrd", fbd,
        sorted(
            _legal_read(0, t, bank=0)
            + [
                CheckEvent(t.tRRD - 1, "ACT", dimm=0, rank=0, bank=1, row=9),
                CheckEvent(rd2, "RD", dimm=0, rank=0, bank=1, row=9),
                CheckEvent(
                    max(t.tRRD - 1 + t.tRAS, rd2 + t.tRPD), "PRE",
                    dimm=0, rank=0, bank=1, row=9,
                ),
            ],
            key=lambda e: e.time_ps,
        ),
        ("tRRD",),
    ))
    # A read command issued before the write burst has drained plus tWTR
    # (same bank keeps tRRD out of the picture; the read's burst starts
    # after the write's, so the bus stays legal).
    wr_data_end = t.tRCD + t.tWL + t.burst
    rd_early = wr_data_end - 2 * t.clock  # inside the tWTR window
    out.append(SelfTestCase(
        "bad-twtr", fbd,
        [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRCD, "WR", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(rd_early, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(
                max(t.tRAS, rd_early + t.tRPD, t.tRCD + t.tWPD), "PRE",
                dimm=0, rank=0, bank=0, row=5,
            ),
        ],
        ("tWTR",),
    ))

    # A precharge one picosecond inside the read's (write's) recovery
    # window; the column command is late enough to keep tRAS legal.
    out.append(SelfTestCase(
        "bad-trpd", fbd,
        [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRAS, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRAS + t.tRPD - 1, "PRE", dimm=0, rank=0, bank=0, row=5),
        ],
        ("tRPD",),
    ))
    out.append(SelfTestCase(
        "bad-twpd", fbd,
        [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRAS, "WR", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRAS + t.tWPD - 1, "PRE", dimm=0, rank=0, bank=0, row=5),
        ],
        ("tWPD",),
    ))
    # Five ACTs to five banks of one rank, tRRD apart, under a window one
    # clock longer than the four gaps they span.
    faw = replace(fbd, banks_per_dimm=8,
                  timing=replace(t, tFAW=4 * t.tRRD + t.clock))
    out.append(SelfTestCase(
        "bad-tfaw", faw,
        sorted(
            [CheckEvent(b * t.tRRD, "ACT", dimm=0, rank=0, bank=b, row=5)
             for b in range(5)]
            + [CheckEvent(b * t.tRRD + t.tRAS, "PRE", dimm=0, rank=0, bank=b,
                          row=5)
               for b in range(5)],
            key=lambda e: e.time_ps,
        ),
        ("tFAW",),
    ))

    # -- seeded structural defects --------------------------------------
    overlap = [
        CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
        CheckEvent(0, "ACT", dimm=0, rank=1, bank=0, row=7),
        CheckEvent(t.tRCD, "RD", dimm=0, rank=0, bank=0, row=5),
        # Same DIMM bus, burst starts mid-way through the first burst.
        CheckEvent(t.tRCD + t.burst // 2, "RD", dimm=0, rank=1, bank=0, row=7),
        CheckEvent(t.tRAS, "PRE", dimm=0, rank=0, bank=0, row=5),
        CheckEvent(t.tRAS + t.burst, "PRE", dimm=0, rank=1, bank=0, row=7),
    ]
    out.append(SelfTestCase(
        "bad-burst-overlap", fbd, overlap, ("burst-overlap",)
    ))
    out.append(SelfTestCase(
        "bad-column-to-closed-bank", fbd,
        [CheckEvent(1000, "RD", dimm=0, rank=0, bank=0, row=5)],
        ("row-state",),
    ))
    out.append(SelfTestCase(
        "bad-precharge-closed-bank", fbd,
        [CheckEvent(1000, "PRE", dimm=0, rank=0, bank=0, row=5)],
        ("row-state",),
    ))
    out.append(SelfTestCase(
        "bad-double-act", fbd,
        [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(t.tRC, "ACT", dimm=0, rank=0, bank=0, row=6),
            CheckEvent(t.tRC + t.tRAS, "PRE", dimm=0, rank=0, bank=0, row=6),
        ],
        ("row-state",),
    ))
    # DDR2: two reads of one rank whose bursts overlap; the same
    # direction and rank, so only the overlap rule applies.
    dt = ddr2.timing
    rd = dt.tRRD + dt.tRCD
    out.append(SelfTestCase(
        "bad-ddr2-burst-overlap", ddr2,
        [
            CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(dt.tRRD, "ACT", dimm=0, rank=0, bank=1, row=7),
            CheckEvent(rd, "RD", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(rd + dt.burst // 2, "RD", dimm=0, rank=0, bank=1, row=7),
            CheckEvent(dt.tRAS + dt.burst, "PRE", dimm=0, rank=0, bank=0, row=5),
            CheckEvent(dt.tRRD + dt.tRAS + dt.burst, "PRE",
                       dimm=0, rank=0, bank=1, row=7),
        ],
        ("burst-overlap",),
    ))
    # DDR2: rank-to-rank switch without the turnaround bubble.  The two
    # bursts butt up against each other, which same-tag streaming allows
    # but a rank switch does not.
    ddr2_turnaround = [
        CheckEvent(0, "ACT", dimm=0, rank=0, bank=0, row=5),
        CheckEvent(0, "ACT", dimm=1, rank=0, bank=0, row=7),
        CheckEvent(ddr2.timing.tRCD, "RD", dimm=0, rank=0, bank=0, row=5),
        CheckEvent(ddr2.timing.tRCD + ddr2.timing.burst, "RD",
                   dimm=1, rank=0, bank=0, row=7),
        CheckEvent(ddr2.timing.tRAS, "PRE", dimm=0, rank=0, bank=0, row=5),
        CheckEvent(ddr2.timing.tRAS + ddr2.timing.burst, "PRE",
                   dimm=1, rank=0, bank=0, row=7),
    ]
    out.append(SelfTestCase(
        "bad-ddr2-turnaround", ddr2, ddr2_turnaround, ("bus-turnaround",)
    ))

    # -- seeded frame defects -------------------------------------------
    out.append(SelfTestCase(
        "bad-frame-offgrid", fbd,
        [CheckEvent(fbd.nb_phase_ps + 1, "NB_LINE", frames=2)],
        ("frame-align",),
    ))
    out.append(SelfTestCase(
        "bad-frame-offgrid-south", fbd,
        [CheckEvent(fbd.frame_ps + 1, "SB_CMD")],
        ("frame-align",),
    ))
    out.append(SelfTestCase(
        "bad-frame-reuse", fbd,
        [
            CheckEvent(fbd.nb_phase_ps, "NB_LINE", frames=2),
            CheckEvent(fbd.nb_phase_ps + fbd.frame_ps, "NB_LINE", frames=2),
        ],
        ("frame-reuse",),
    ))
    out.append(SelfTestCase(
        "bad-frame-overcommit", fbd,
        [
            CheckEvent(0, "SB_CMD"),
            CheckEvent(0, "SB_CMD"),
            CheckEvent(0, "SB_DATA"),
        ],
        ("frame-overcommit",),
    ))
    # A fourth replay under a budget of one retry (+1 recovery replay).
    out.append(SelfTestCase(
        "bad-retry-budget", replace(fbd, max_retries=1),
        [CheckEvent(0, "SB_CMD", retry=3)],
        ("retry-budget",),
    ))
    return out


def run_self_test() -> Tuple[int, List[str]]:
    """Run every case; returns (cases run, failure descriptions)."""
    failures: List[str] = []
    all_cases = cases()
    for case in all_cases:
        events = sorted(case.events, key=lambda e: e.time_ps)
        violations: List[Violation] = ProtocolChecker(case.params).check(events)
        if journals_clean(case.params, *event_journals(events)) == bool(
            case.expect_rules
        ):
            failures.append(
                f"{case.name}: journal audit "
                + ("passed a seeded defect" if case.expect_rules
                   else "flagged a clean trace")
            )
        rules = {v.rule for v in violations}
        if not case.expect_rules:
            if violations:
                failures.append(
                    f"{case.name}: clean trace flagged: "
                    + "; ".join(v.format() for v in violations)
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
