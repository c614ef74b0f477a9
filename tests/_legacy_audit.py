"""Frozen copy of ``repro.check.protocol.journals_clean`` before the audit
went one channel at a time — a test-only oracle.

This is the audit that built Python-int lists for every rank and bus of
every channel at once and counted southbound slots in a ``Counter``.
``test_protocol_differential.py`` runs real and mutated journals, and
the self-test cases, through both audits and asserts the same True/False.
Do not modernise this file: its value is being exactly the old code.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import sub
from typing import Dict, Iterable, List, Tuple

from repro.check.trace import MEMORY_KINDS, BankJournal, LinkJournal, TraceParams
from repro.dram.commands import ACT, PRE, RD, SB_CMD

_NEVER = float("-inf")


def journals_clean(
    params: TraceParams,
    banks: Iterable[BankJournal],
    links: Iterable[LinkJournal],
) -> bool:
    """True only when :class:`ProtocolChecker` would report nothing for
    these journals (one entry per bank and per channel).

    False means replay to find out: a rule is broken, or the run is one of
    the two cases the audit leaves to the replay (module docstring).
    """
    if params.kind not in MEMORY_KINDS:
        return False
    t = params.timing
    tRC, tRP, tRAS, tRCD = t.tRC, t.tRP, t.tRAS, t.tRCD
    tRPD, tWPD = t.tRPD, t.tWPD
    # rank -> (ACT, RD, WR command times)
    ranks: Dict[Tuple[int, int, int], Tuple[List[int], List[int], List[int]]] = {}
    for (channel, dimm, rank, _), log in banks:
        acts, rds, wrs = ranks.setdefault((channel, dimm, rank), ([], [], []))
        last_act = last_pre = last_rd = last_wr = previous = _NEVER
        open_row = False
        it = iter(log)
        for code, time_ps, _ in zip(it, it, it):
            if time_ps < previous:
                return False
            previous = time_ps
            if code == ACT:
                if (open_row or time_ps - last_act < tRC
                        or time_ps - last_pre < tRP):
                    return False
                open_row = True
                last_act = time_ps
                last_rd = last_wr = _NEVER
                acts.append(time_ps)
            elif code == PRE:
                if (not open_row or time_ps - last_act < tRAS
                        or time_ps - last_rd < tRPD
                        or time_ps - last_wr < tWPD):
                    return False
                open_row = False
                last_pre = time_ps
            elif not open_row or time_ps - last_act < tRCD:
                return False
            elif code == RD:
                last_rd = time_ps
                rds.append(time_ps)
            else:
                last_wr = time_ps
                wrs.append(time_ps)

    ddr2 = params.kind == "ddr2"
    wr_reach = t.tWL + t.burst + t.tWTR  # WR command to its tWTR window end
    # bus -> burst starts (FB-DIMM) or (start, tag) pairs (DDR2)
    buses: Dict[Tuple[int, ...], list] = {}
    for (channel, dimm, rank), (acts, rds, wrs) in ranks.items():
        acts.sort()
        if len(acts) > 1 and min(map(sub, acts[1:], acts)) < t.tRRD:
            return False
        if t.tFAW and len(acts) > 4 and min(map(sub, acts[4:], acts)) < t.tFAW:
            return False
        rds.sort()
        for wr in wrs:
            i = bisect_left(rds, wr)
            if i < len(rds) and rds[i] - wr < wr_reach:
                return False
        if ddr2:
            bus = buses.setdefault((channel,), [])
            bus += [(rd + t.tCL, (dimm, rank, "RD")) for rd in rds]
            bus += [(wr + t.tWL, (dimm, rank, "WR")) for wr in wrs]
        else:
            bus = buses.setdefault((channel, dimm), [])
            bus += [rd + t.tCL for rd in rds]
            bus += [wr + t.tWL for wr in wrs]
    burst = t.burst
    for bus in buses.values():
        bus.sort()
        if not ddr2:
            if len(bus) > 1 and min(map(sub, bus[1:], bus)) < burst:
                return False
            continue
        # Equal starts count as suspect whatever the burst length: the
        # replay's tie order would decide which burst comes first.
        overlap, turnaround = max(burst, 1), burst + params.switch_gap_ps
        for (start1, tag1), (start2, tag2) in zip(bus, bus[1:]):
            gap = start2 - start1
            if gap < overlap or (tag1 != tag2 and gap < turnaround):
                return False

    frame_ps = params.frame_ps
    phase = params.nb_phase_ps
    budget = params.max_retries
    for _, south, north in links:
        if not south and not north:
            continue
        if ddr2 or frame_ps <= 0:
            return False
        # Slots of the flat triples: south (code, start, retry), north
        # (start, frames, retry).
        if budget and max(
            max(south[2::3], default=0), max(north[2::3], default=0)
        ) > budget + 1:
            return False
        # A southbound frame holds three commands, or one command plus
        # data: with each data booking weighing two slots, at most three.
        starts = south[1::3]
        weights = Counter(starts)
        weights.update([start for code, start in zip(south[0::3], starts)
                        if code != SB_CMD])
        if (any([start % frame_ps for start in weights])
                or max(weights.values(), default=0) > 3):
            return False
        # Northbound lines by start (a stable sort, so lines that start
        # together keep journal order): each must begin at or after the
        # end of the one before it.
        starts, frames = north[0::3], north[1::3]
        order = sorted(range(len(starts)), key=starts.__getitem__)
        offsets = [starts[i] - phase for i in order]
        if any([offset % frame_ps for offset in offsets]):
            return False
        firsts = [offset // frame_ps for offset in offsets]
        ends = [first + max(1, frames[i]) for first, i in zip(firsts, order)]
        if min(map(sub, firsts[1:], ends), default=0) < 0:
            return False
    return True
