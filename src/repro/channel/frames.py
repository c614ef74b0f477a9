"""Frame-accurate FB-DIMM link schedulers.

The FB-DIMM channel moves data in fixed *frames* aligned to the frame
clock (two DRAM clocks; 6 ns at 667 MT/s).  Per Section 2:

* a **southbound** frame carries three commands, or one command plus 16 B
  of write data;
* a **northbound** frame carries 32 B of read data, so one 64 B cacheline
  occupies two consecutive frames.

These schedulers allocate whole frame slots on that aligned grid — the
precise counterpart of the continuous-time :class:`BusResource`
approximation, exposing the same ``busy_ps`` / ``prune_before`` surface so
the channel controller can treat either uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.dram.commands import MID_SHIFT, SB_CMD, SB_DATA, TIME_SHIFT

if TYPE_CHECKING:
    from array import array

#: Each southbound slot's journal tag: its code in the record's middle field.
_CMD_TAG, _DATA_TAG = SB_CMD << MID_SHIFT, SB_DATA << MID_SHIFT

#: Southbound frame capacity per Section 2.
COMMANDS_PER_FRAME = 3
COMMANDS_WITH_DATA = 1

#: Wire-image geometry of the frame codec below.  The timing schedulers
#: never pack bytes on the hot path; the codec defines the CRC-protected
#: frame layout that :mod:`repro.faults` corruption probabilities abstract,
#: and gives the fault tests a concrete image to flip bits in.
WRITE_DATA_BYTES = 16  # southbound payload per frame (Section 2)
READ_DATA_BYTES = 32  # northbound payload per frame (Section 2)
COMMAND_BYTES = 3  # one command slot (24-bit encoded command)
_SOUTH_HEADER = 1  # [n_commands:2][has_data:1] packed in one byte
_CRC_BYTES = 2
SOUTH_FRAME_BYTES = (
    _SOUTH_HEADER + COMMANDS_PER_FRAME * COMMAND_BYTES + WRITE_DATA_BYTES + _CRC_BYTES
)
NORTH_FRAME_BYTES = READ_DATA_BYTES + _CRC_BYTES


class FrameError(ValueError):
    """A frame failed to decode: bad length, malformed header, or CRC."""


def frame_crc(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over ``data``.

    Real FB-DIMM frames carry CRC on both links (22-bit southbound,
    12-bit northbound); a 16-bit CRC keeps the wire image simple while
    preserving the property the fault model relies on: every single-bit
    corruption of a frame is detected.
    """
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else (crc << 1)
            crc &= 0xFFFF
    return crc


def pack_southbound_frame(commands: Sequence[int], data: bytes = b"") -> bytes:
    """Pack one southbound frame: up to three commands, or one + 16 B data.

    Each command is a 24-bit opaque encoding (the checker cares about slot
    occupancy, not command semantics).  Raises :class:`FrameError` on a
    payload that no legal frame can carry.
    """
    commands = tuple(commands)
    if data and len(data) != WRITE_DATA_BYTES:
        raise FrameError(
            f"southbound data payload must be {WRITE_DATA_BYTES} B, "
            f"got {len(data)}"
        )
    if not commands and not data:
        raise FrameError("an empty frame is never transmitted")
    limit = COMMANDS_WITH_DATA if data else COMMANDS_PER_FRAME
    if len(commands) > limit:
        raise FrameError(
            f"{len(commands)} command(s) with{' ' if data else 'out '}data: "
            f"a frame carries {COMMANDS_PER_FRAME} commands, or "
            f"{COMMANDS_WITH_DATA} command plus {WRITE_DATA_BYTES} B of data"
        )
    for command in commands:
        if not 0 <= command < 1 << (8 * COMMAND_BYTES):
            raise FrameError(f"command {command:#x} exceeds 24 bits")
    header = (len(commands) << 1) | (1 if data else 0)
    body = bytearray([header])
    for slot in range(COMMANDS_PER_FRAME):
        value = commands[slot] if slot < len(commands) else 0
        body += value.to_bytes(COMMAND_BYTES, "big")
    body += data if data else bytes(WRITE_DATA_BYTES)
    return bytes(body) + frame_crc(bytes(body)).to_bytes(_CRC_BYTES, "big")


def unpack_southbound_frame(raw: bytes) -> Tuple[Tuple[int, ...], bytes]:
    """Decode a southbound frame back to ``(commands, data)``.

    Raises :class:`FrameError` on anything a real AMB would reject: wrong
    length, CRC mismatch (corruption), a header describing an impossible
    frame, or non-zero bits in unused command slots.
    """
    if len(raw) != SOUTH_FRAME_BYTES:
        raise FrameError(
            f"southbound frame is {SOUTH_FRAME_BYTES} B, got {len(raw)}"
        )
    body, crc = raw[:-_CRC_BYTES], int.from_bytes(raw[-_CRC_BYTES:], "big")
    if frame_crc(body) != crc:
        raise FrameError("southbound frame CRC mismatch")
    n_commands, has_data = body[0] >> 1, bool(body[0] & 1)
    limit = COMMANDS_WITH_DATA if has_data else COMMANDS_PER_FRAME
    if n_commands > limit or (not has_data and n_commands == 0):
        raise FrameError(
            f"malformed header: {n_commands} command(s), data={has_data}"
        )
    commands = []
    for slot in range(COMMANDS_PER_FRAME):
        start = _SOUTH_HEADER + slot * COMMAND_BYTES
        value = int.from_bytes(body[start:start + COMMAND_BYTES], "big")
        if slot < n_commands:
            commands.append(value)
        elif value:
            raise FrameError(f"unused command slot {slot} is not zeroed")
    payload = body[-WRITE_DATA_BYTES:]
    if not has_data and any(payload):
        raise FrameError("command-only frame carries data bits")
    return tuple(commands), bytes(payload) if has_data else b""


def pack_northbound_frame(payload: bytes) -> bytes:
    """Pack one northbound frame: exactly 32 B of read data plus CRC."""
    if len(payload) != READ_DATA_BYTES:
        raise FrameError(
            f"northbound payload must be {READ_DATA_BYTES} B, got {len(payload)}"
        )
    return payload + frame_crc(payload).to_bytes(_CRC_BYTES, "big")


def unpack_northbound_frame(raw: bytes) -> bytes:
    """Decode a northbound frame; raises :class:`FrameError` on corruption."""
    if len(raw) != NORTH_FRAME_BYTES:
        raise FrameError(
            f"northbound frame is {NORTH_FRAME_BYTES} B, got {len(raw)}"
        )
    payload, crc = raw[:-_CRC_BYTES], int.from_bytes(raw[-_CRC_BYTES:], "big")
    if frame_crc(payload) != crc:
        raise FrameError("northbound frame CRC mismatch")
    return payload


class SouthboundLink:
    """Frame allocator for the command/write-data link."""

    __slots__ = ("name", "frame_ps", "_frames", "frames_used", "journal")

    def __init__(self, name: str, frame_ps: int) -> None:
        if frame_ps <= 0:
            raise ValueError("frame period must be positive")
        self.name = name
        self.frame_ps = frame_ps
        #: frame index -> [command_count, carries_data]
        self._frames: Dict[int, List] = {}
        self.frames_used = 0
        #: Optional booking journal for the protocol checker: an
        #: ``array('q')`` of one packed ``(frame_start_ps, slot code,
        #: retry_attempt)`` int per slot, the code ``SB_CMD`` or
        #: ``SB_DATA`` (``repro.dram.commands``).  Attempt 0 is the
        #: original transfer; retries of a CRC-corrupted transfer book real frames too and
        #: carry their attempt number so the checker can audit the retry
        #: budget.  None keeps the hot path lean.
        self.journal: Optional[array] = None

    def enable_journal(self) -> None:
        """Record every frame booking (protocol-checker support)."""
        if self.journal is None:
            from array import array  # loaded only by runs that journal

            self.journal = array("q")

    # -- grid helpers -----------------------------------------------------

    def _first_index_at(self, earliest: int) -> int:
        return -(-earliest // self.frame_ps)  # ceil division

    def frame_start_ps(self, index: int) -> int:
        return index * self.frame_ps

    # -- allocation ---------------------------------------------------------

    def reserve_command(self, earliest: int, retry: int = 0) -> int:
        """Place one command in the first frame with a free command slot.

        Returns the frame's start time (the command is on the wire from
        then; decode latency is the caller's command-delay constant).
        ``retry`` is the replay attempt number journalled for the checker.
        """
        frame_ps = self.frame_ps
        frames = self._frames
        get = frames.get
        index = -(-earliest // frame_ps)  # ceil division
        while True:
            state = get(index)
            if state is None:
                frames[index] = [1, False]
                self.frames_used += 1
                break
            commands, has_data = state
            limit = COMMANDS_WITH_DATA if has_data else COMMANDS_PER_FRAME
            if commands < limit:
                state[0] += 1
                break
            index += 1
        start = index * frame_ps
        if self.journal is not None:
            self.journal.append(start << TIME_SHIFT | _CMD_TAG | retry)
        return start

    def reserve_write_data(
        self, earliest: int, frames_needed: int, retry: int = 0
    ) -> Tuple[int, int]:
        """Stream write data over ``frames_needed`` data-capable frames.

        Frames need not be contiguous (real channels interleave commands
        between write-data frames).  Returns (first_frame_start, end_time
        of the last frame).
        """
        if frames_needed < 1:
            raise ValueError("need at least one data frame")
        frame_ps = self.frame_ps
        frames = self._frames
        get = frames.get
        journal = self.journal
        index = -(-earliest // frame_ps)  # ceil division
        first_start = None
        placed = 0
        while placed < frames_needed:
            state = get(index)
            if state is None:
                frames[index] = [0, True]
                self.frames_used += 1
            elif not state[1] and state[0] <= COMMANDS_WITH_DATA:
                state[1] = True
            else:
                index += 1
                continue
            start = index * frame_ps
            if first_start is None:
                first_start = start
            if journal is not None:
                journal.append(start << TIME_SHIFT | _DATA_TAG | retry)
            placed += 1
            last_end = start + frame_ps
            index += 1
        assert first_start is not None
        return first_start, last_end

    # -- bookkeeping ----------------------------------------------------------

    @property
    def busy_ps(self) -> int:
        """Occupied wire time (frames that carry anything)."""
        return self.frames_used * self.frame_ps

    def prune_before(self, time_ps: int) -> None:
        """Forget frames that ended at or before ``time_ps``."""
        frames = self._frames
        if not frames:
            return
        frame_ps = self.frame_ps
        stale = [idx for idx in frames if (idx + 1) * frame_ps <= time_ps]
        for idx in stale:
            del frames[idx]


class NorthboundLink:
    """Frame allocator for the read-return link.

    A cacheline's frames are allocated contiguously (the AMB streams the
    burst); different cachelines backfill earlier holes freely.

    ``phase_ps`` shifts the frame grid.  The links run phase-locked to the
    command path: DRAM data becomes available ``command_delay`` after a
    southbound frame boundary plus whole DRAM clocks, so anchoring the
    northbound grid at that phase lets a just-ready burst catch a frame
    immediately — which is how the paper's 63/33 ns budgets count.
    """

    __slots__ = ("name", "frame_ps", "phase_ps", "_taken", "frames_used", "journal")

    def __init__(self, name: str, frame_ps: int, phase_ps: int = 0) -> None:
        if frame_ps <= 0:
            raise ValueError("frame period must be positive")
        if not 0 <= phase_ps < frame_ps:
            raise ValueError("phase must be within one frame")
        self.name = name
        self.frame_ps = frame_ps
        self.phase_ps = phase_ps
        self._taken: Dict[int, bool] = {}
        self.frames_used = 0
        #: Optional booking journal for the protocol checker: an
        #: ``array('q')`` of one packed ``(first_frame_start_ps, frames,
        #: retry_attempt)`` int per line (``repro.dram.commands``).
        self.journal: Optional[array] = None

    def enable_journal(self) -> None:
        """Record every line booking (protocol-checker support)."""
        if self.journal is None:
            from array import array  # loaded only by runs that journal

            self.journal = array("q")

    def _first_index_at(self, earliest: int) -> int:
        return max(0, -(-(earliest - self.phase_ps) // self.frame_ps))

    def frame_start_ps(self, index: int) -> int:
        return index * self.frame_ps + self.phase_ps

    def reserve_line(
        self, earliest: int, frames_needed: int, retry: int = 0
    ) -> Tuple[int, int]:
        """Allocate ``frames_needed`` contiguous frames at/after ``earliest``.

        Returns (first_frame_start, last_frame_end).  ``retry`` is the
        replay attempt number journalled for the checker.
        """
        if frames_needed < 1:
            raise ValueError("need at least one frame")
        frame_ps = self.frame_ps
        phase_ps = self.phase_ps
        taken = self._taken
        index = -(-(earliest - phase_ps) // frame_ps)  # ceil division
        if index < 0:
            index = 0
        if frames_needed == 2:
            # One 64 B cacheline = two frames: the overwhelmingly common
            # call, special-cased to two dict probes per candidate slot.
            while index in taken or index + 1 in taken:
                index += 1
            taken[index] = True
            taken[index + 1] = True
        else:
            while not all(index + k not in taken for k in range(frames_needed)):
                index += 1
            for k in range(frames_needed):
                taken[index + k] = True
        self.frames_used += frames_needed
        start = index * frame_ps + phase_ps
        if self.journal is not None:
            self.journal.append(
                start << TIME_SHIFT | frames_needed << MID_SHIFT | retry)
        return start, start + frames_needed * frame_ps

    @property
    def busy_ps(self) -> int:
        return self.frames_used * self.frame_ps

    def prune_before(self, time_ps: int) -> None:
        taken = self._taken
        if not taken:
            return
        frame_ps = self.frame_ps
        horizon = time_ps - self.phase_ps - frame_ps
        stale = [idx for idx in taken if idx * frame_ps <= horizon]
        for idx in stale:
            del taken[idx]
