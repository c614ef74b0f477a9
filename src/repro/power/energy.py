"""Per-command DRAM energy accounting (Section 5.5, Figure 13).

The paper reduces a whole run to one number, ``4 x activates +
column_accesses``; that is enough for Figure 13's end-of-run ratio but
cannot say *when* the energy was spent or what the background
(standby / power-down) share is.  This module splits the same accounting
by command class:

* **dynamic** energy per ACT/PRE pair, column read, column write and
  refresh — in column-access *units* (:class:`CommandEnergyModel`, the
  paper's calibrated weights) or in datasheet nanojoules
  (:class:`EnergyAccountant`, via :class:`MicronPowerCalculator`);
* **background** energy from wall time split into awake standby and
  power-down residency, which the idle-gap tracker in the memory
  controller measures when the timeline is enabled.

Compatibility contract (pinned by ``tests/test_timeline.py`` against a
frozen copy of the aggregate model): with the default weights,
:func:`relative_dynamic_power_from_commands` reproduces the paper's
``4 x ACT + column_accesses`` ratio exactly on any refresh-free run,
because ``read_units == write_units == 1.0`` makes
``act_pre_units x ACT + RD + WR`` equal ``4 x ACT + column_accesses``.
Figure 13 is computed through this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.ddr2_power import MicronPowerCalculator
from repro.stats.collector import MemSystemStats


@dataclass(frozen=True)
class CommandEnergyModel:
    """Dynamic energy weights per command class, in column-access units.

    ``act_pre_units`` keeps the paper's calibrated 4:1; the read/write
    split is free (both are one column access in the paper's accounting);
    ``refresh_units`` is the Micron calculator's refresh energy divided by
    one column-read energy (the paper does not model refresh, so this
    weight only matters for refresh-enabled runs).
    """

    act_pre_units: float = 4.0
    read_units: float = 1.0
    write_units: float = 1.0
    refresh_units: float = 39.35

    @classmethod
    def from_calculator(cls, calc: MicronPowerCalculator) -> "CommandEnergyModel":
        """Derive weights from datasheet IDD values, in column-read units.

        Used by the non-DDR2 device presets: their weights come straight
        from their own calculator instead of the paper's DDR2 calibration
        (which rounds the ACT/PRE ratio to 4:1 — the paper's published
        number — where the calculator alone would give ~3.81).
        """
        col = calc.column_energy_nj(is_write=False)
        return cls(
            act_pre_units=calc.act_pre_energy_nj() / col,
            read_units=1.0,
            write_units=calc.column_energy_nj(is_write=True) / col,
            refresh_units=calc.refresh_energy_nj() / col,
        )

    def dynamic_energy_units(
        self,
        activates: int,
        column_reads: int,
        column_writes: int,
        refreshes: int = 0,
    ) -> float:
        """Total dynamic energy of a command mix, in column-access units."""
        counts = (activates, column_reads, column_writes, refreshes)
        if any(count < 0 for count in counts):
            raise ValueError("command counts must be non-negative")
        return (
            self.act_pre_units * activates
            + self.read_units * column_reads
            + self.write_units * column_writes
            + self.refresh_units * refreshes
        )

    def energy_of(self, stats: MemSystemStats) -> float:
        """Dynamic energy of one run from its per-command counters."""
        return self.dynamic_energy_units(
            stats.activates, stats.column_reads, stats.column_writes,
            stats.refreshes,
        )


def relative_dynamic_power_from_commands(
    stats: MemSystemStats,
    baseline: MemSystemStats,
    model: CommandEnergyModel = CommandEnergyModel(),
) -> float:
    """Figure 13's normalised dynamic power, from per-command counts.

    Identical to the paper's aggregate ``4 x ACT + column_accesses``
    ratio for the default weights on refresh-free runs (the compatibility
    contract above), but built on the split ACT/RD/WR/refresh accounting
    so timeline windows and figures share one energy model.  Values below
    1.0 are savings.
    """
    base_energy = model.energy_of(baseline)
    if base_energy <= 0:
        raise ValueError("baseline run performed no DRAM operations")
    return model.energy_of(stats) / base_energy


@dataclass(frozen=True)
class EnergyBreakdown:
    """Nanojoules spent in one accounting interval, split by source."""

    act_nj: float = 0.0
    rd_nj: float = 0.0
    wr_nj: float = 0.0
    refresh_nj: float = 0.0
    background_nj: float = 0.0

    @property
    def dynamic_nj(self) -> float:
        return self.act_nj + self.rd_nj + self.wr_nj + self.refresh_nj

    @property
    def total_nj(self) -> float:
        return self.dynamic_nj + self.background_nj


@dataclass(frozen=True)
class EnergyAccountant:
    """Datasheet-nanojoule accounting for command deltas plus wall time.

    ``ranks`` scales the background power: every rank in the system pays
    precharge-standby power while awake and power-down power during the
    measured power-down residency.  The residency comes from the memory
    controller's idle-gap tracker (whole-subsystem idle, so all ranks
    enter power-down together — the upper bound on the saving the paper's
    Section 5.5 argues for).
    """

    calculator: MicronPowerCalculator = MicronPowerCalculator()
    ranks: int = 1

    def interval_energy(
        self,
        activates: int,
        column_reads: int,
        column_writes: int,
        refreshes: int,
        interval_ps: int,
        powerdown_ps: int = 0,
    ) -> EnergyBreakdown:
        """Energy of one interval from its command deltas and residency."""
        if interval_ps < 0 or powerdown_ps < 0:
            raise ValueError("interval and residency must be non-negative")
        calc = self.calculator
        awake_ns = max(interval_ps - powerdown_ps, 0) / 1000.0
        down_ns = min(powerdown_ps, interval_ps) / 1000.0
        background = self.ranks * (
            calc.standby_power_w() * awake_ns
            + calc.powerdown_power_w() * down_ns
        )
        return EnergyBreakdown(
            act_nj=activates * calc.act_pre_energy_nj(),
            rd_nj=column_reads * calc.column_energy_nj(is_write=False),
            wr_nj=column_writes * calc.column_energy_nj(is_write=True),
            refresh_nj=refreshes * calc.refresh_energy_nj(),
            background_nj=background,
        )
