"""Frozen copy of the aggregate Figure 13 power model — a test-only oracle.

``PowerModel`` and ``relative_dynamic_power`` were ``repro.power``'s first
Section 5.5 model: ``4 x activates + column_accesses`` over a whole run.
Figure 13 moved to the per-command :mod:`repro.power.energy` model, which
must reproduce this formula exactly on every refresh-free run;
``test_timeline.py`` compares the two.  Do not modernise this file: its
value is being exactly the old code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.collector import MemSystemStats


@dataclass(frozen=True)
class PowerModel:
    """Relative dynamic DRAM power from operation counts.

    ``act_pre_weight`` is the energy of one activate/precharge pair in
    units of one column access (the paper's 4:1).
    """

    act_pre_weight: float = 4.0
    static_fraction: float = 0.175  # of total power, per the calculator

    def dynamic_energy_units(self, activates: int, column_accesses: int) -> float:
        """Total dynamic energy in column-access units."""
        if activates < 0 or column_accesses < 0:
            raise ValueError("operation counts must be non-negative")
        return self.act_pre_weight * activates + column_accesses

    def energy_of(self, stats: MemSystemStats) -> float:
        """Dynamic energy of one run, from its device-operation counters."""
        return self.dynamic_energy_units(stats.activates, stats.column_accesses)


def relative_dynamic_power(
    stats: MemSystemStats,
    baseline: MemSystemStats,
    model: PowerModel = PowerModel(),
) -> float:
    """Dynamic DRAM power of ``stats`` relative to ``baseline`` (Figure 13).

    Both runs execute the same instruction work, so the ratio of dynamic
    energies is the paper's normalised power-consumption metric.  Values
    below 1.0 are savings.
    """
    base_energy = model.energy_of(baseline)
    if base_energy <= 0:
        raise ValueError("baseline run performed no DRAM operations")
    return model.energy_of(stats) / base_energy
