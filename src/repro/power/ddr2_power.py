"""DDR2 device power estimation, after the Micron system-power calculator.

The paper does not run the full calculator inside the simulator; it uses it
once to calibrate the ratio of energy per activate/precharge *pair* to
energy per column access — "roughly 4:1" for DDR2-667 at 70 % bandwidth
utilisation under close-page — and then scales by the simulator's ACT/PRE
and column-access counts.  We do both: :class:`MicronPowerCalculator`
re-derives the ratio from typical DDR2-667 IDD datasheet values, and
:class:`~repro.power.energy.CommandEnergyModel` applies it to the
per-command counts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MicronPowerCalculator:
    """Energy per DRAM operation from datasheet IDD values.

    Default values are typical of a 1 Gb DDR2-667 x8 device (Micron
    MT47H128M8 class).  Currents in mA, voltage in V, times in ns.
    """

    vdd: float = 1.8
    idd0: float = 85.0  # active-precharge current over one tRC
    idd3n: float = 45.0  # active standby (baseline during tRC)
    idd4r: float = 180.0  # burst read current
    idd4w: float = 185.0  # burst write current
    idd2n: float = 40.0  # precharge standby (baseline during bursts)
    idd2p: float = 7.0  # precharge power-down (CKE low)
    idd5: float = 215.0  # burst auto-refresh current over tRFC
    t_rc_ns: float = 54.0
    t_rfc_ns: float = 127.5  # refresh cycle time, 1 Gb device
    burst_ns: float = 12.0  # 8 beats at DDR2-667
    chips_per_rank: int = 8
    #: Share of the burst current spent in the output drivers and on-die
    #: termination.  The paper's accounting excludes "terminal power", so
    #: only the remaining array-access share counts as column energy.
    io_exclusion_fraction: float = 0.65

    def act_pre_energy_nj(self) -> float:
        """Energy of one activate + precharge pair for a whole rank.

        The calculator charges (IDD0 - IDD3N) x VDD over tRC per chip.
        """
        per_chip = (self.idd0 - self.idd3n) * self.vdd * self.t_rc_ns / 1000.0
        return per_chip * self.chips_per_rank

    def column_energy_nj(self, is_write: bool = False) -> float:
        """Array energy of one cacheline burst (read by default) for a rank,
        with the I/O / termination share excluded per the paper."""
        idd4 = self.idd4w if is_write else self.idd4r
        array_share = 1.0 - self.io_exclusion_fraction
        per_chip = (
            (idd4 - self.idd3n) * array_share * self.vdd * self.burst_ns / 1000.0
        )
        return per_chip * self.chips_per_rank

    def act_to_column_ratio(self) -> float:
        """The paper's calibrated ratio (roughly 4:1 for these defaults)."""
        return self.act_pre_energy_nj() / self.column_energy_nj()

    def refresh_energy_nj(self) -> float:
        """Energy of one all-bank auto-refresh for a whole rank.

        (IDD5 - IDD2N) x VDD over tRFC per chip; the precharge-standby
        baseline is subtracted because background power is accounted
        separately (see :meth:`standby_power_w`).
        """
        per_chip = (self.idd5 - self.idd2n) * self.vdd * self.t_rfc_ns / 1000.0
        return per_chip * self.chips_per_rank

    def standby_power_w(self) -> float:
        """Background power of one idle (precharge standby, CKE high) rank."""
        return self.idd2n * self.vdd * self.chips_per_rank / 1000.0

    def powerdown_power_w(self) -> float:
        """Background power of one rank in precharge power-down (CKE low)."""
        return self.idd2p * self.vdd * self.chips_per_rank / 1000.0
