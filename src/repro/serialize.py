"""Typed JSON round-tripping for the configuration/result dataclass tree.

The run cache and the parallel executor need :class:`~repro.config.SystemConfig`
and :class:`~repro.system.SimulationResult` to survive a trip through JSON with
*no* loss: the differential tests compare serialisations byte-for-byte, so the
encoding must be canonical (sorted keys, no whitespace) and the decoding must
restore exactly the values that went in.

The codec is driven entirely by the dataclass field types, so it needs no
per-class registration:

* dataclasses    -> JSON objects keyed by field name (a key that names no
  field is a :class:`ValueError` at decode time); a class may name
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

Plans, not per-value dispatch.  Each type is inspected once per process and
its plan memoised here (``functools.lru_cache`` keyed by the class or hint),
so a warm run-cache load never re-enters ``typing`` or ``dataclasses``.  A
plan is a pure function of its type, so every worker process builds the
same one and no result depends on which process decoded it:

* an *encoder* per value class (``type(value)``): a dataclass's field names,
  with the ``dataclasses.Field`` kept only for its ``ENCODE_OPTIONAL_FIELDS``
  (a class without that attribute skips the elision test entirely), or the
  enum/primitive/container/error rule its first value selected;
* a *decoder* per type hint: a dataclass's ``(field name, field decoder)``
  list, resolved from ``typing.get_type_hints`` on its first decode (so a
  self-referencing dataclass needs no special casing), or the item/key/value
  decoders of an ``Optional``, ``list``, ``tuple`` or ``dict`` hint.  An
  unhashable hint gets a fresh, uncached decoder.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import typing
from typing import Any, Callable, Iterable, List, Optional, Tuple

__all__ = ["encode_value", "decode_value", "canonical_dumps", "unknown_fields"]

Codec = Callable[[Any], Any]


def encode_value(value: Any) -> Any:
    """Reduce ``value`` to JSON-compatible types, recursively."""
    return _encoder(type(value))(value)


def decode_value(raw: Any, hint: Any) -> Any:
    """Rebuild a value of declared type ``hint`` from its encoded form."""
    return _decoder(hint)(raw)


def unknown_fields(names: Iterable[str], owner: str = "") -> str:
    """The message for JSON keys that name no field (of ``owner``): each
    key by ``repr()``, sorted, so an empty key or one containing ``", "``
    reads unambiguously."""
    listed = ", ".join(map(repr, sorted(names)))
    if owner:
        return f"unknown field(s) for {owner}: {listed}"
    return f"unknown field(s) {listed}"


def canonical_dumps(encoded: Any) -> str:
    """One canonical JSON text per value: sorted keys, no whitespace."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


# -- encode plans -------------------------------------------------------


def _identity(value: Any) -> Any:
    return value


@functools.lru_cache(maxsize=None)
def _encoder(cls: type) -> Codec:
    """The encoder for every value of class ``cls``; the checks run in the
    order that decides overlaps (dataclass first, Enum before int)."""
    if dataclasses.is_dataclass(cls):
        return _dataclass_encoder(cls)
    if issubclass(cls, enum.Enum):
        return lambda value: value.name
    if issubclass(cls, (bool, int, float, str, type(None))):
        return _identity
    if issubclass(cls, (list, tuple)):
        return lambda value: [encode_value(item) for item in value]
    if issubclass(cls, dict):
        return lambda value: {
            str(key): encode_value(item) for key, item in value.items()
        }

    def unencodable(value: Any) -> Any:
        raise TypeError(
            f"cannot encode {type(value).__name__} value {value!r} for the cache"
        )

    return unencodable


def _dataclass_encoder(cls: Any) -> Codec:
    optional = getattr(cls, "ENCODE_OPTIONAL_FIELDS", ())
    fields = dataclasses.fields(cls)
    if not any(f.name in optional for f in fields):
        names = tuple(f.name for f in fields)
        return lambda value: {
            name: encode_value(getattr(value, name)) for name in names
        }
    plan = tuple((f.name, f if f.name in optional else None) for f in fields)
    return lambda value: {
        name: encode_value(getattr(value, name))
        for name, f in plan
        if f is None or not _is_default(value, f)
    }


def _is_default(value: Any, f: "dataclasses.Field[Any]") -> bool:
    """True when field ``f`` of ``value`` still holds its declared default.

    Only fields with a default (or default factory) can ever be elided;
    the dataclass decoder restores the very same default for a missing key,
    so the round trip stays lossless.
    """
    current = getattr(value, f.name)
    if f.default is not dataclasses.MISSING:
        return bool(current == f.default)
    if f.default_factory is not dataclasses.MISSING:
        return bool(current == f.default_factory())
    return False


# -- decode plans -------------------------------------------------------


def _decoder(hint: Any) -> Codec:
    """The memoised decoder for ``hint``."""
    try:
        return _cached_decoder(hint)
    except TypeError:  # unhashable hint: build afresh, never cache
        return _build_decoder(hint)


def _build_decoder(hint: Any) -> Codec:
    if hint is Any or hint is None:
        return _identity
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:
        arms = [a for a in args if a is not type(None)]
        if len(arms) != 1:
            # Heterogeneous unions don't occur in the config/result tree;
            # passing the raw value through keeps the codec total if one
            # ever appears.
            return _identity
        arm = _decoder(arms[0])
        return lambda raw: None if raw is None else arm(raw)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return lambda raw: hint[raw]
    if dataclasses.is_dataclass(hint):
        return _dataclass_decoder(hint)
    if origin in (list, tuple) or hint in (list, tuple):
        return _sequence_decoder(origin or hint, args)
    if origin is dict or hint is dict:
        return _mapping_decoder(args)
    if hint is float:
        return lambda raw: (
            float(raw) if isinstance(raw, int) and not isinstance(raw, bool) else raw
        )
    return _identity


def _dataclass_decoder(cls: Any) -> Codec:
    plan: Optional[List[Tuple[str, Codec]]] = None

    def decode(raw: Any) -> Any:
        nonlocal plan
        if not isinstance(raw, dict):
            raise TypeError(f"expected object for {cls.__name__}, got {raw!r}")
        if plan is None:
            hints = typing.get_type_hints(cls)
            plan = [
                (f.name, _decoder(hints.get(f.name, Any)))
                for f in dataclasses.fields(cls)
            ]
        kwargs = {name: field(raw[name]) for name, field in plan if name in raw}
        if len(kwargs) != len(raw):
            unknown = set(raw) - {name for name, _ in plan}
            raise ValueError(unknown_fields(unknown, cls.__name__))
        return cls(**kwargs)

    return decode


def _sequence_decoder(container: Any, args: Tuple[Any, ...]) -> Codec:
    item = _decoder(args[0] if args else Any)
    if container is not tuple:
        return lambda raw: [item(value) for value in raw]
    if args and args[-1] is not Ellipsis:
        slots = [_decoder(arg) for arg in args]

        def fixed(raw: Any) -> Any:
            if len(raw) == len(slots):
                return tuple(slot(value) for slot, value in zip(slots, raw))
            return tuple(item(value) for value in raw)

        return fixed
    return lambda raw: tuple(item(value) for value in raw)


def _mapping_decoder(args: Tuple[Any, ...]) -> Codec:
    # JSON forces string keys; int and float keys are restored.
    key_hint = args[0] if args else Any
    key = key_hint if key_hint is int or key_hint is float else _identity
    value = _decoder(args[1] if len(args) > 1 else Any)
    return lambda raw: {key(k): value(item) for k, item in raw.items()}


_cached_decoder = functools.lru_cache(maxsize=None)(_build_decoder)
