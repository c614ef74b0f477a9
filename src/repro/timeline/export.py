"""Timeline persistence: JSONL, CSV, and structural validation.

The JSONL format is one header object followed by one ``window`` record
per line, encoded with the same canonical serializer the run cache uses,
so a timeline round-trips bit-identically:

    {"format": "repro-timeline", "version": 1, "window_ps": ..., ...}
    {"type": "window", "index": 0, ...}
    {"type": "window", "index": 1, ...}

CSV export flattens the same records (plus the derived rates) for
spreadsheet / pandas consumption.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.serialize import canonical_dumps, decode_value, encode_value, unknown_fields
from repro.timeline.records import TimelineResult, WindowRecord

FORMAT_NAME = "repro-timeline"
FORMAT_VERSION = 1

#: Serialised WindowRecord columns, in CSV column order.
WINDOW_FIELDS = tuple(f.name for f in fields(WindowRecord))

#: Derived per-window rates appended to the CSV after the raw columns.
DERIVED_FIELDS = (
    "duration_ps", "bandwidth_gbs", "avg_latency_ns", "row_hit_rate",
    "amb_hit_rate", "energy_total_nj", "avg_power_w", "powerdown_fraction",
)


def write_timeline_jsonl(
    timeline: TimelineResult,
    path: Union[str, Path],
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write header + one line per window (canonical JSON)."""
    header: Dict[str, object] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "window_ps": timeline.window_ps,
        "resets": timeline.resets,
        "truncated": timeline.truncated,
        "num_windows": len(timeline.windows),
    }
    if meta:
        header["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(header) + "\n")
        for window in timeline.windows:
            record = {"type": "window"}
            record.update(encode_value(window))
            fh.write(canonical_dumps(record) + "\n")


def _parse_json(line: str) -> object:
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc.msg})") from exc


#: WindowRecord field -> the JSON value types it accepts (an integral
#: energy like ``0`` is a valid float; a bool is never a count).
_WINDOW_VALUE_TYPES: Dict[str, Tuple[type, ...]] = {
    f.name: (int, float) if f.type == "float" else (int,)
    for f in fields(WindowRecord)
}


def _window_record(raw: object) -> WindowRecord:
    """Validate one decoded window line and build its record."""
    if not isinstance(raw, dict):
        raise ValueError(f"record must be a JSON object, got {raw!r}")
    values = dict(raw)
    kind = values.pop("type", None)
    if kind != "window":
        raise ValueError(f"unknown record type {kind!r}")
    unknown = set(values) - set(_WINDOW_VALUE_TYPES)
    if unknown:
        raise ValueError(unknown_fields(unknown))
    for name, value in values.items():
        accepted = _WINDOW_VALUE_TYPES[name]
        if type(value) not in accepted:
            expected = "a number" if float in accepted else "an integer"
            raise ValueError(f"{name} must be {expected}, got {value!r}")
    return decode_value(values, WindowRecord)


def read_timeline_jsonl(
    path: Union[str, Path],
) -> Tuple[TimelineResult, Dict[str, object]]:
    """Inverse of :func:`write_timeline_jsonl`; returns (timeline, header).

    Raises OSError when the file cannot be read, and ValueError prefixed
    ``path:line:`` for a malformed header or window record.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty timeline file")
    try:
        header = _parse_json(lines[0])
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        found = header.get("format") if isinstance(header, dict) else header
        raise ValueError(f"{path}: not a {FORMAT_NAME} file (format={found!r})")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported version {header.get('version')!r}"
        )
    windows: List[WindowRecord] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            windows.append(_window_record(_parse_json(line)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    timeline = TimelineResult(
        window_ps=int(header.get("window_ps", 0)),
        windows=windows,
        resets=int(header.get("resets", 0)),
        truncated=bool(header.get("truncated", False)),
    )
    return timeline, header


def validate_timeline(timeline: TimelineResult) -> List[str]:
    """Structural checks; returns human-readable issues ([] when clean).

    Checked: contiguous indices, positive-duration non-overlapping
    windows, interior windows exactly ``window_ps`` long, and
    non-negative counters.
    """
    issues: List[str] = []
    prev_end: Optional[int] = None
    last = len(timeline.windows) - 1
    for i, w in enumerate(timeline.windows):
        where = f"window {i}"
        if w.index != i:
            issues.append(f"{where}: index {w.index}, expected {i}")
        if w.end_ps <= w.start_ps:
            issues.append(
                f"{where}: non-positive duration [{w.start_ps}, {w.end_ps})"
            )
        if prev_end is not None and w.start_ps != prev_end:
            issues.append(
                f"{where}: starts at {w.start_ps}, previous ended {prev_end}"
            )
        if i < last and timeline.window_ps and w.duration_ps > timeline.window_ps:
            issues.append(
                f"{where}: duration {w.duration_ps} exceeds the"
                f" {timeline.window_ps} ps window"
            )
        for name in WINDOW_FIELDS:
            value = getattr(w, name)
            if isinstance(value, (int, float)) and value < 0:
                issues.append(f"{where}: negative {name} ({value})")
        prev_end = w.end_ps
    return issues


def timeline_csv_lines(timeline: TimelineResult) -> List[str]:
    """CSV text lines (header + one row per window)."""
    columns = WINDOW_FIELDS + DERIVED_FIELDS
    lines = [",".join(columns)]
    for w in timeline.windows:
        cells = []
        for name in columns:
            value = getattr(w, name)
            cells.append(f"{value:.6g}" if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return lines


def write_timeline_csv(timeline: TimelineResult, path: Union[str, Path]) -> None:
    """Write the CSV flattening of the timeline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(timeline_csv_lines(timeline)) + "\n")
