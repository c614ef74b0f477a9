"""Trace persistence: JSON-lines save/load for recorded traces.

Lets a workload be generated once, inspected or edited offline, and
replayed deterministically — useful for regression pinning and for feeding
the simulator traces produced by external tools.

Format: one JSON object per line, ``{"i": inst, "k": kind, "a": line}``,
with a single header line carrying the format version and metadata.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.workloads.trace import TraceEvent, TraceKind

FORMAT_VERSION = 1

_KIND_CODES = {TraceKind.READ: "r", TraceKind.WRITE: "w", TraceKind.PREFETCH: "p"}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def save_trace(
    path: Union[str, Path],
    events: Iterable[TraceEvent],
    metadata: Optional[Dict[str, object]] = None,
) -> int:
    """Write events to a JSONL file; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        header = {"version": FORMAT_VERSION, "meta": metadata or {}}
        handle.write(json.dumps(header) + "\n")
        for event in events:
            record = {
                "i": event.inst,
                "k": _KIND_CODES[event.kind],
                "a": event.line_addr,
            }
            handle.write(json.dumps(record) + "\n")
            count += 1
    return count


def _parse_json(line: str, what: str) -> dict:
    """One JSONL line as a JSON object; ValueError naming ``what`` otherwise."""
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON ({exc.msg})") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _parse_header(line: str) -> Dict[str, object]:
    """The header's metadata, after checking the format version."""
    header = _parse_json(line, "header")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {header.get('version')!r}"
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"header meta must be a JSON object, got {meta!r}")
    return dict(meta)


def _parse_record(line: str) -> TraceEvent:
    record = _parse_json(line, "record")
    kind = _CODE_KINDS.get(record.get("k"))
    if kind is None:
        raise ValueError(f"unknown kind {record.get('k')!r}")
    for code in ("i", "a"):
        if type(record.get(code)) is not int:
            raise ValueError(
                f"{code!r} must be an integer, got {record.get(code)!r}"
            )
    return TraceEvent(inst=record["i"], kind=kind, line_addr=record["a"])


def load_trace_metadata(path: Union[str, Path]) -> Dict[str, object]:
    """Read only the header metadata of a saved trace.

    Raises ValueError prefixed ``path:1:`` for a malformed header.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        line = handle.readline()
    try:
        return _parse_header(line)
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from exc


def load_trace(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Lazily yield events from a saved trace, validating order.

    Raises ValueError prefixed ``path:line:`` for a malformed header or
    record; blank lines are skipped.
    """
    path = Path(path)
    line_no = 1
    with path.open("r", encoding="utf-8") as handle:
        try:
            _parse_header(handle.readline())
            last_inst = 0
            for line_no, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                event = _parse_record(line)
                if event.inst <= last_inst:
                    raise ValueError(
                        "instruction order violated "
                        f"({event.inst} after {last_inst})"
                    )
                last_inst = event.inst
                yield event
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc


def load_trace_list(path: Union[str, Path]) -> List[TraceEvent]:
    """Eagerly load a full saved trace."""
    return list(load_trace(path))
