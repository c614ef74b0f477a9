"""The FB-DIMM channel: two unidirectional, independently scheduled links.

Frame-accurate model (see :mod:`repro.channel.frames`).  Per memory frame —
two DRAM clocks, 6 ns at 667 MT/s:

* the **southbound** link carries three commands, or one command plus 16 B
  of write data (so a 64 B write needs four data frames);
* the **northbound** link carries 32 B of read data (two frames per line),
  which makes its peak bandwidth equal to one DDR2 channel's.

The AMBs form a daisy chain at ``amb_hop_ns`` per hop.  With Variable Read
Latency (VRL) disabled — the paper's default — every DIMM presents the
latency of the farthest DIMM, so the hop penalty is ``n_dimms * hop``
regardless of which DIMM answered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.channel.frames import NorthboundLink, SouthboundLink
from repro.config import MemoryConfig
from repro.engine.simulator import ns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.retry import ChannelFaults


class ReadReturn:
    """Timing of one cacheline travelling north.

    Built once per read on the hot path, hence a plain ``__slots__``
    class rather than a dataclass.

    Attributes:
        link_start: When the first frame enters the northbound link.
        critical_at_mc: First 32 B frame (critical word) at the controller.
        full_at_mc: Entire line at the controller.
    """

    __slots__ = ("link_start", "critical_at_mc", "full_at_mc")

    def __init__(
        self, link_start: int, critical_at_mc: int, full_at_mc: int
    ) -> None:
        self.link_start = link_start
        self.critical_at_mc = critical_at_mc
        self.full_at_mc = full_at_mc

    def __repr__(self) -> str:
        return (
            f"ReadReturn(link_start={self.link_start},"
            f" critical_at_mc={self.critical_at_mc},"
            f" full_at_mc={self.full_at_mc})"
        )


class FbdimmLinks:
    """South/northbound links of one physical FB-DIMM channel."""

    __slots__ = (
        "frame_ps", "command_delay_ps", "hop_penalty",
        "write_frames", "read_frames", "south", "north", "faults",
    )

    def __init__(self, config: MemoryConfig, channel_id: int) -> None:
        self.frame_ps = config.frame_ps
        self.command_delay_ps = ns(config.command_delay_ns)
        hop_ps = ns(config.amb_hop_ns)
        dimms = config.dimms_per_channel
        #: Daisy-chain forwarding delay charged on the read-return (and
        #: write) path, per DIMM: its own hop count under VRL, the
        #: farthest DIMM's otherwise.
        self.hop_penalty = tuple(
            ((dimm + 1) if config.variable_read_latency else dimms) * hop_ps
            for dimm in range(dimms)
        )
        self.write_frames = max(
            1, config.cacheline_bytes // 16
        )  # 16 B write data per southbound frame
        self.read_frames = max(1, config.cacheline_bytes // 32)
        self.south = SouthboundLink(f"ch{channel_id}.south", self.frame_ps)
        self.north = NorthboundLink(
            f"ch{channel_id}.north",
            self.frame_ps,
            phase_ps=self.command_delay_ps % self.frame_ps,
        )
        #: Optional CRC retry engine (repro.faults); the channel controller
        #: assigns it when fault injection is enabled.  None keeps every
        #: transfer on the seed fast path.
        self.faults: "Optional[ChannelFaults]" = None

    def send_command_ps(self, earliest: int) -> int:
        """Send one command south; return its arrival at the AMB.

        Under fault injection a CRC-corrupted command frame is replayed
        (the AMB NACKs it) until it decodes; the arrival is then the last
        replay's frame plus the decode delay.
        """
        frame_start = self.south.reserve_command(earliest)
        if self.faults is not None:
            first = (frame_start, frame_start + self.frame_ps)
            frame_start, _ = self.faults.transfer(
                "SB_CMD",
                first,
                lambda at, attempt: self._reserve_command_slot(at, attempt),
            )
        return frame_start + self.command_delay_ps

    def _reserve_command_slot(self, earliest: int, retry: int) -> "tuple[int, int]":
        start = self.south.reserve_command(earliest, retry=retry)
        return start, start + self.frame_ps

    def send_write_ps(self, earliest: int, dimm: int) -> int:
        """Stream a command + a cacheline of write data south.

        The command rides in the first data frame (1 command + 16 B per
        frame).  Returns when the full write has arrived at the target AMB;
        the DRAM write can begin then.  A corrupted write stream is
        replayed whole — write data is not committed from a frame whose
        CRC failed.
        """
        first_start, data_end = self.south.reserve_write_data(
            earliest, self.write_frames
        )
        if self.faults is not None:
            _, data_end = self.faults.transfer(
                "SB_DATA",
                (first_start, data_end),
                lambda at, attempt: self.south.reserve_write_data(
                    at, self.write_frames, retry=attempt
                ),
            )
        return data_end + self.command_delay_ps + self.hop_penalty[dimm]

    def return_read(self, data_ready: int, dimm: int) -> ReadReturn:
        """Carry one cacheline north once the AMB has (or is streaming) it.

        ``data_ready`` is when the first beats are available at the AMB
        (cut-through from the DIMM's DDR2 bus, or immediately for an
        AMB-cache hit).  A line whose CRC fails at the controller is
        replayed from the AMB's retransmission buffer after the backoff
        (which covers the southbound NACK round trip).
        """
        start, end = self.north.reserve_line(data_ready, self.read_frames)
        if self.faults is not None:
            start, end = self.faults.transfer(
                "NB_LINE",
                (start, end),
                lambda at, attempt: self.north.reserve_line(
                    at, self.read_frames, retry=attempt
                ),
            )
        penalty = self.hop_penalty[dimm]
        return ReadReturn(
            link_start=start,
            critical_at_mc=start + self.frame_ps + penalty,
            full_at_mc=end + penalty,
        )
