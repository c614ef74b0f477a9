"""Discrete-event simulation kernel.

The whole simulator runs on a single :class:`~repro.engine.simulator.Simulator`
instance whose clock advances in integer picoseconds.  Components never poll;
they schedule callbacks for the instant at which something can change.
"""

from repro.engine.event_queue import Event, EventQueue
from repro.engine.simulator import Simulator, gc_paused

__all__ = ["Event", "EventQueue", "Simulator", "gc_paused"]
