"""Controller-side CRC retry/replay engine for one FB-DIMM channel.

Real FB-DIMM controllers detect corrupted frames by CRC and replay the
transfer; persistent failures trigger a fast link reset.  This module is
the timing model of that state machine:

* every transfer attempt (southbound command, southbound write-data
  stream, northbound line) draws one corruption decision from the
  channel's :class:`~repro.faults.injector.FaultInjector`;
* a corrupted attempt is replayed after an exponential backoff measured
  in frame slots (``backoff_frames * 2**(attempt-1)``), booking real
  frames on the link — retries consume bandwidth exactly like first
  transmissions;
* after ``max_retries`` corrupted replays the transfer is counted as
  *dropped* and one final recovery replay (modelling the post-reset
  retransmission, attempt ``max_retries + 1``) completes it — no request
  is ever lost silently, which is the accounting identity the fault
  tests pin: ``faults_corrupted == faults_retried_ok + faults_dropped``;
* ``degraded_threshold`` consecutive corrupted transfers put the channel
  in degraded mode: the issue engine stops AMB prefetching (hits in a
  flaky AMB cache are not trustworthy) until the end of the run.

All counters land directly in the shared
:class:`~repro.stats.collector.MemSystemStats`, so warm-up discard and
a telemetry capture's metrics block see fault activity like any other
completion-side counter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.config import FaultConfig
from repro.faults.injector import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stats.collector import MemSystemStats

#: Transfer kinds, matching the checker's frame-event vocabulary.
SB_CMD = "SB_CMD"
SB_DATA = "SB_DATA"
NB_LINE = "NB_LINE"

#: ``reserve(earliest, attempt) -> (slot_start, slot_end)`` — books the
#: replay's frames on the link and journals the attempt number.
ReserveFn = Callable[[int, int], Tuple[int, int]]


class ChannelFaults:
    """Fault-injection state of one physical channel.

    The channel controller owns one instance (when ``FaultConfig.enabled``)
    and shares it with its :class:`~repro.channel.fbdimm_link.FbdimmLinks`
    (link CRC retries) and its AMBs (cache parity).  ``on_retry`` is an
    optional hook ``(kind, time_ps, attempt)`` the controller wires to the
    telemetry tracer so retry episodes show up as request phases.
    """

    def __init__(
        self,
        config: FaultConfig,
        frame_ps: int,
        channel_id: int,
        stats: "MemSystemStats",
    ) -> None:
        self.config = config
        self.frame_ps = frame_ps
        self.channel_id = channel_id
        self.stats = stats
        self.injector = FaultInjector(config, channel_id)
        self.degraded = False
        self._streak = 0  # consecutive corrupted transfers
        self.on_retry: Optional[Callable[[str, int, int], None]] = None

    # -- retry state machine ------------------------------------------------

    def backoff_ps(self, attempt: int) -> int:
        """Replay backoff before attempt ``attempt`` (1-based), in ps."""
        if attempt < 1:
            raise ValueError("replay attempts are 1-based")
        return self.config.backoff_frames * self.frame_ps * (1 << (attempt - 1))

    def transfer(
        self, kind: str, first: Tuple[int, int], reserve: ReserveFn
    ) -> Tuple[int, int]:
        """Run one transfer through the CRC/retry state machine.

        ``first`` is the already-booked ``(start, end)`` of attempt 0;
        ``reserve`` books one replay.  Returns the ``(start, end)`` of the
        attempt that finally delivered the data.
        """
        if not self.injector.transfer_corrupted():
            self._streak = 0
            return first
        start, end = first
        first_end = end
        corrupt_attempts = 1
        attempt = 1
        dropped = False
        while True:
            if attempt > self.config.max_retries:
                # Retry budget exhausted: count the drop, then complete via
                # the post-reset recovery replay so no request is lost.
                dropped = True
                start, end = reserve(end + self.backoff_ps(attempt), attempt)
                self._note_retry(kind, start, attempt)
                break
            start, end = reserve(end + self.backoff_ps(attempt), attempt)
            self._note_retry(kind, start, attempt)
            if not self.injector.transfer_corrupted():
                break
            corrupt_attempts += 1
            attempt += 1
        stats = self.stats
        stats.faults_injected += corrupt_attempts
        stats.faults_corrupted += 1
        if dropped:
            stats.faults_dropped += 1
        else:
            stats.faults_retried_ok += 1
        stats.fault_retry_latency_ps += end - first_end
        self._note_episode()
        return start, end

    def _note_retry(self, kind: str, time_ps: int, attempt: int) -> None:
        if self.on_retry is not None:
            self.on_retry(kind, time_ps, attempt)

    def _note_episode(self) -> None:
        self._streak += 1
        threshold = self.config.degraded_threshold
        if threshold and not self.degraded and self._streak >= threshold:
            self.degraded = True
            self.stats.fault_degraded_entries += 1

    # -- AMB cache parity ---------------------------------------------------

    def cached_line_flipped(self) -> bool:
        """Parity probe for one AMB-cache hit; counts detected flips."""
        if not self.injector.cached_line_flipped():
            return False
        self.stats.amb_parity_errors += 1
        return True
