"""Frozen generic-dispatch copy of ``repro.serialize`` — a test-only oracle.

This is the codec that re-resolved every dataclass's type hints on each
decode and walked ``isinstance`` checks on each encode; per-type plans
replaced it.  The hypothesis suite in ``test_serialize_differential.py``
drives configs, results, window records and synthetic types through both
and asserts byte-identical canonical text and equal, same-typed decoded
values.  Do not modernise this file: its value is being exactly the old
code.

Typed JSON round-tripping for the configuration/result dataclass tree.

The run cache and the parallel executor need :class:`~repro.config.SystemConfig`
and :class:`~repro.system.SimulationResult` to survive a trip through JSON with
*no* loss: the differential tests compare serialisations byte-for-byte, so the
encoding must be canonical (sorted keys, no whitespace) and the decoding must
restore exactly the values that went in.

The codec is driven entirely by the dataclass field types, so it needs no
per-class registration:

* dataclasses    -> JSON objects keyed by field name; a class may name
  late-added fields in an ``ENCODE_OPTIONAL_FIELDS`` class attribute and
  those are *elided while at their defaults*, so growing a config dataclass
  does not reshuffle the canonical text (and hence cache keys / conformance
  digests) of every value encoded before the field existed;
* enums          -> their ``name`` (values may collide, names cannot);
* lists/tuples   -> JSON arrays (restored to the hinted container type);
* dicts          -> JSON objects (non-string keys are restored from the hinted
  key type — JSON forces string keys);
* primitives     -> themselves (Python's float repr round-trips exactly).

Anything else is a hard :class:`TypeError` at encode time rather than a silent
lossy best-effort — a cache that stores an approximation poisons every later
read.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import typing
from typing import Any, Dict, Optional

__all__ = ["encode_value", "decode_value", "canonical_dumps"]


def encode_value(value: Any) -> Any:
    """Reduce ``value`` to JSON-compatible types, recursively."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        optional = getattr(type(value), "ENCODE_OPTIONAL_FIELDS", ())
        return {
            f.name: encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in optional or not _is_default(value, f)
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    raise TypeError(
        f"cannot encode {type(value).__name__} value {value!r} for the cache"
    )


def decode_value(raw: Any, hint: Any) -> Any:
    """Rebuild a value of declared type ``hint`` from its encoded form."""
    if hint is Any or hint is None:
        return raw
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return _decode_union(raw, hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint[raw]
    if dataclasses.is_dataclass(hint):
        return _decode_dataclass(raw, hint)
    if origin in (list, tuple) or hint in (list, tuple):
        return _decode_sequence(raw, hint, origin)
    if origin is dict or hint is dict:
        return _decode_mapping(raw, hint, origin)
    if hint is float and isinstance(raw, int) and not isinstance(raw, bool):
        return float(raw)
    return raw


def canonical_dumps(encoded: Any) -> str:
    """One canonical JSON text per value: sorted keys, no whitespace."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------


def _is_default(value: Any, f: "dataclasses.Field[Any]") -> bool:
    """True when field ``f`` of ``value`` still holds its declared default.

    Only fields with a default (or default factory) can ever be elided;
    ``_decode_dataclass`` restores the very same default for a missing key,
    so the round trip stays lossless.
    """
    current = getattr(value, f.name)
    if f.default is not dataclasses.MISSING:
        return bool(current == f.default)
    if f.default_factory is not dataclasses.MISSING:
        return bool(current == f.default_factory())
    return False


def _decode_union(raw: Any, hint: Any) -> Any:
    arms = [a for a in typing.get_args(hint) if a is not type(None)]
    if raw is None:
        return None
    if len(arms) == 1:
        return decode_value(raw, arms[0])
    # Heterogeneous unions don't occur in the config/result tree; passing
    # the raw value through keeps the codec total if one ever appears.
    return raw


def _decode_dataclass(raw: Any, hint: Any) -> Any:
    if not isinstance(raw, dict):
        raise TypeError(f"expected object for {hint.__name__}, got {raw!r}")
    hints = _field_hints(hint)
    kwargs = {
        f.name: decode_value(raw[f.name], hints.get(f.name, Any))
        for f in dataclasses.fields(hint)
        if f.name in raw
    }
    return hint(**kwargs)


def _decode_sequence(raw: Any, hint: Any, origin: Optional[type]) -> Any:
    container = origin or hint
    args = typing.get_args(hint)
    if container is tuple:
        if args and args[-1] is not Ellipsis and len(args) == len(raw):
            return tuple(
                decode_value(item, arg) for item, arg in zip(raw, args)
            )
        item_hint = args[0] if args else Any
        return tuple(decode_value(item, item_hint) for item in raw)
    item_hint = args[0] if args else Any
    return [decode_value(item, item_hint) for item in raw]


def _decode_mapping(raw: Any, hint: Any, origin: Optional[type]) -> Any:
    args = typing.get_args(hint)
    key_hint = args[0] if args else Any
    value_hint = args[1] if len(args) > 1 else Any
    return {
        _decode_key(key, key_hint): decode_value(item, value_hint)
        for key, item in raw.items()
    }


def _decode_key(key: str, hint: Any) -> Any:
    if hint is int:
        return int(key)
    if hint is float:
        return float(key)
    return key


def _field_hints(cls: type) -> Dict[str, Any]:
    """Resolved type hints of a dataclass (PEP 563 strings included)."""
    return typing.get_type_hints(cls)
