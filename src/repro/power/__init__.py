"""DRAM power estimation (Section 5.5)."""

from repro.power.ddr2_power import MicronPowerCalculator
from repro.power.energy import (
    CommandEnergyModel,
    EnergyAccountant,
    EnergyBreakdown,
    relative_dynamic_power_from_commands,
)

__all__ = [
    "MicronPowerCalculator",
    "CommandEnergyModel",
    "EnergyAccountant",
    "EnergyBreakdown",
    "relative_dynamic_power_from_commands",
]
