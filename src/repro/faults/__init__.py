"""Seeded fault injection for the FB-DIMM link layer (Issue 4).

Public surface:

* :class:`~repro.faults.injector.FaultInjector` — one deterministic
  decision stream per channel;
* :class:`~repro.faults.retry.ChannelFaults` — the controller-side CRC
  retry/replay state machine with degraded-mode tracking.

:func:`repro.faults.sweep.fault_sweep`, the error-rate sweep behind
the ``repro faults`` CLI subcommand, runs whole systems, so it is
imported from its module rather than from here.

Everything here is inert unless ``SystemConfig.faults.enabled`` is set;
a disabled config is pinned bit-identical to the fault-free simulator by
``tests/test_faults.py``.
"""

from repro.faults.injector import FaultInjector
from repro.faults.retry import NB_LINE, SB_CMD, SB_DATA, ChannelFaults

__all__ = [
    "FaultInjector",
    "ChannelFaults",
    "SB_CMD",
    "SB_DATA",
    "NB_LINE",
]
