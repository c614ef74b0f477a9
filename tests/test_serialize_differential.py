"""Differential property suite: per-type codec plans vs the legacy oracle.

``repro.serialize`` builds one encoder per value class and one decoder
per type hint and memoises them; ``tests/_legacy_serialize.py`` is the
frozen generic codec it replaced, which re-dispatched (and re-resolved
type hints) on every value.  Hypothesis drives both with:

* every preset config (each system x each device generation, plus the
  prefetch-placement and lifecycle variants), with random scalar
  replacements — ``ENCODE_OPTIONAL_FIELDS`` fields included, at and off
  their defaults;
* real ``SimulationResult``\\ s from short runs (plain, timeline +
  lifecycle, link faults, protocol checker), also with random
  replacements, and their ``WindowRecord``\\ s;
* synthetic types: ``Optional``, ``Dict[int, List[int]]``, fixed and
  variadic ``Tuple``, bare ``list``/``dict``, ``Any``, heterogeneous
  ``Union`` and a self-referencing dataclass;
* raw JSON that does not match its hint, and unencodable values.

Both codecs must produce the same canonical text, decode to equal values
of the same types (tuple vs list, float vs int, enum identity), and raise
the same exception type with the same message.
"""

import collections
import dataclasses
import enum
import functools
import json
import typing
from typing import Any, Dict, List, Optional, Tuple, Union

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tests._legacy_serialize as legacy
from repro import serialize
from repro.config import (
    AmbPrefetchConfig,
    PrefetchLocation,
    SystemConfig,
    ddr2_baseline,
    fbdimm_amb_prefetch,
    fbdimm_baseline,
)
from repro.dram.devices import DEVICE_PRESETS
from repro.system import SimulationResult, run_system
from repro.timeline.records import WindowRecord

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Containers below this nesting depth are generated empty (or None).
MAX_DEPTH = 5


# -- outcome comparison --------------------------------------------------


def _outcome(fn, *args):
    """``("ok", value)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the datum
        return ("raised", type(exc), str(exc))


def _assert_same(a, b):
    """Equal values of identical types, all the way down."""
    assert type(a) is type(b), (a, b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, dict):
        assert len(a) == len(b)
        for (ka, va), (kb, vb) in zip(a.items(), b.items()):
            _assert_same(ka, kb)
            _assert_same(va, vb)
    elif isinstance(a, enum.Enum):
        assert a is b
    elif isinstance(a, float) and a != a:
        assert b != b
    else:
        assert a == b


def _assert_same_outcome(new, old):
    assert new[0] == old[0], (new, old)
    if new[0] == "ok":
        _assert_same(new[1], old[1])
    else:
        assert new[1:] == old[1:]


def _check_round_trip(value, hint):
    """Same canonical text from both encoders, then the same decode of the
    JSON text by both decoders."""
    encoded = _outcome(serialize.encode_value, value)
    _assert_same_outcome(encoded, _outcome(legacy.encode_value, value))
    if encoded[0] != "ok":
        return
    text = serialize.canonical_dumps(encoded[1])
    assert text == legacy.canonical_dumps(legacy.encode_value(value))
    raw = json.loads(text)
    _assert_same_outcome(
        _outcome(serialize.decode_value, raw, hint),
        _outcome(legacy.decode_value, raw, hint),
    )


def _check_every_node(value):
    """Round-trip ``value`` and every dataclass nested in it, each against
    its own class: a validation error high in the tree must not hide a
    difference in a leaf."""
    _check_round_trip(value, type(value))
    for f in dataclasses.fields(value):
        child = getattr(value, f.name)
        if dataclasses.is_dataclass(child):
            _check_every_node(child)


# -- value strategies ----------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _unchecked(cls, values):
    """A dataclass instance built without ``__init__``/``__post_init__``,
    so random field values need not pass config validation."""
    obj = object.__new__(cls)
    for name, item in values.items():
        object.__setattr__(obj, name, item)
    return obj


def values_for(hint, depth=0):
    """Random Python values of declared type ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    deep = depth >= MAX_DEPTH
    if hint is Any or hint is list or hint is dict:
        return JSON
    if origin is Union:
        if deep:
            return st.none()
        arms = [values_for(a, depth + 1) for a in args if a is not type(None)]
        return st.none() | st.one_of(arms)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return st.sampled_from(list(hint))
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = {
            f.name: values_for(hints[f.name], depth + 1)
            for f in dataclasses.fields(hint)
        }
        return st.fixed_dictionaries(fields).map(
            functools.partial(_unchecked, hint)
        )
    if hint is bool:
        return st.booleans()
    if hint is int:
        return st.integers(-3, 2**40)
    if hint is float:
        # ints and bools exercise the float decoder's int -> float restore
        # and its bool exclusion
        return st.floats() | st.integers(-5, 5) | st.booleans()
    if hint is str:
        return st.text(max_size=6)
    if origin is list:
        return st.just([]) if deep else st.lists(values_for(args[0], depth + 1), max_size=3)
    if origin is tuple:
        if not args:
            return st.just(())
        if args[-1] is not Ellipsis:
            return st.tuples(*(values_for(a, depth + 1) for a in args))
        return st.lists(values_for(args[0], depth + 1), max_size=3).map(tuple)
    if origin is dict:
        if deep:
            return st.just({})
        return st.dictionaries(
            values_for(args[0], depth + 1), values_for(args[1], depth + 1), max_size=3
        )
    raise AssertionError(f"no strategy for {hint!r}")


@st.composite
def mutated(draw, value, donors=()):
    """``value`` with a random subset of its fields replaced: by random
    values of their declared types, or by the same field of a donor of
    the same class (a valid value, so more mutants pass validation).
    Nested dataclasses are mutated the same way rather than replaced, so
    most of the original survives."""
    hints = typing.get_type_hints(type(value))
    changed = {}
    for f in dataclasses.fields(value):
        current = getattr(value, f.name)
        peers = [getattr(d, f.name) for d in donors]
        choice = draw(st.integers(0, 7))
        if dataclasses.is_dataclass(current):
            peers = [p for p in peers if type(p) is type(current)]
            changed[f.name] = draw(mutated(current, peers))
        elif choice == 0:
            changed[f.name] = draw(values_for(hints[f.name]))
        elif choice <= 2 and peers:
            changed[f.name] = draw(st.sampled_from(peers))
        else:
            changed[f.name] = current
    return _unchecked(type(value), changed)


# -- inputs --------------------------------------------------------------


def _presets():
    bases = [
        ddr2_baseline(num_cores=2),
        fbdimm_baseline(num_cores=4),
        fbdimm_amb_prefetch(num_cores=1),
        fbdimm_amb_prefetch(
            num_cores=2,
            prefetch=AmbPrefetchConfig(
                location=PrefetchLocation.CONTROLLER, lifecycle=True
            ),
        ),
    ]
    return [base.with_device(device) for base in bases for device in DEVICE_PRESETS]


PRESETS = _presets()


@functools.lru_cache(maxsize=None)
def _results():
    """Short real runs covering every optional part of a result."""
    fbd_ap = dataclasses.replace(fbdimm_amb_prefetch(num_cores=2), instructions_per_core=1500)
    observed = fbdimm_amb_prefetch(
        num_cores=2, prefetch=AmbPrefetchConfig(lifecycle=True)
    ).with_timeline(window_ns=500.0)
    configs = [
        fbd_ap,
        dataclasses.replace(observed, instructions_per_core=1500),
        dataclasses.replace(fbd_ap.with_faults(error_rate=0.05), instructions_per_core=1500),
        dataclasses.replace(fbd_ap, check_protocol=True),
    ]
    return tuple(run_system(config, ("swim", "applu")) for config in configs)


# -- synthetic types -----------------------------------------------------


class Colour(enum.Enum):
    RED = 1
    GREEN = 2


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


@dataclasses.dataclass
class Node:
    """Self-referencing: its plan must be reachable while it is built."""

    value: int
    children: List["Node"] = dataclasses.field(default_factory=list)
    parent: Optional["Node"] = None


@dataclasses.dataclass
class Synthetic:
    maybe: Optional[float]
    per_core: Dict[int, List[int]]
    pair: Tuple[int, str]
    floats: Tuple[float, ...]
    bare_list: list
    bare_dict: dict
    anything: Any
    either: Union[int, str]
    by_float: Dict[float, Colour]
    level: Level
    empty: Tuple[()] = ()
    tail: List[Tuple[float, Colour]] = dataclasses.field(default_factory=list)

    ENCODE_OPTIONAL_FIELDS = frozenset({"empty", "tail"})


HINTS = [
    Synthetic,
    Node,
    Optional[Synthetic],
    List[Node],
    Dict[int, List[int]],
    Dict[float, float],
    Dict[str, Colour],
    Tuple[int, str],
    Tuple[float, ...],
    Tuple[()],
    Optional[List[int]],
    Optional[list],
    Union[int, str, None],
    list,
    tuple,
    dict,
    float,
    int,
    Colour,
    Level,
    Any,
    None,
    type(None),
    SystemConfig,
    WindowRecord,
]


# -- properties ----------------------------------------------------------


@SETTINGS
@given(data=st.data(), preset=st.sampled_from(PRESETS))
def test_preset_configs_match_legacy(data, preset):
    _check_every_node(data.draw(mutated(preset, PRESETS)))


@pytest.mark.parametrize("preset", PRESETS, ids=range(len(PRESETS)))
def test_unmodified_presets_match_legacy(preset):
    _check_every_node(preset)
    assert serialize.decode_value(json.loads(serialize.canonical_dumps(
        serialize.encode_value(preset))), SystemConfig) == preset


@pytest.mark.parametrize("index", range(4), ids=["plain", "timeline", "faults", "checked"])
def test_real_results_match_legacy(index):
    result = _results()[index]
    _check_every_node(result)
    text = result.canonical_json()
    assert text == legacy.canonical_dumps(legacy.encode_value(result))
    _assert_same(
        SimulationResult.from_dict(json.loads(text)),
        legacy.decode_value(json.loads(text), SimulationResult),
    )


def test_real_window_records_match_legacy():
    windows = _results()[1].timeline.windows
    assert windows
    for window in windows:
        _check_round_trip(window, WindowRecord)


@SETTINGS
@given(data=st.data(), index=st.integers(0, 3))
def test_mutated_results_match_legacy(data, index):
    _check_every_node(data.draw(mutated(_results()[index], _results())))


@SETTINGS
@given(data=st.data(), hint=st.sampled_from([Synthetic, Node, WindowRecord]))
def test_synthetic_values_match_legacy(data, hint):
    _check_round_trip(data.draw(values_for(hint)), hint)


@pytest.mark.parametrize("hint", HINTS, ids=repr)
@settings(max_examples=80, deadline=None)
@given(raw=JSON)
def test_mismatched_raw_decodes_the_same(hint, raw):
    """Raw JSON that need not fit its hint: both decoders return the same
    value or raise the same error (non-object dataclass payloads, fixed
    tuples of the wrong length, non-numeric int/float keys, ...).  The one
    deliberate difference: where the legacy decoder dropped an object key
    that names no field of its dataclass, the new one raises."""
    new = _outcome(serialize.decode_value, raw, hint)
    if new[0] == "raised" and new[1] is ValueError \
            and new[2].startswith("unknown field(s) for "):
        owner, names = new[2][len("unknown field(s) for "):].split(": ", 1)
        fields = {f.name for f in dataclasses.fields(_dataclasses_in(hint)[owner])}
        for name in names.split(", "):
            assert name not in fields and name in _object_keys(raw), name
        return
    _assert_same_outcome(new, _outcome(legacy.decode_value, raw, hint))


def _dataclasses_in(hint, found=None):
    """Name -> class of every dataclass ``hint`` can decode, nested ones
    included."""
    found = {} if found is None else found
    for arg in typing.get_args(hint):
        _dataclasses_in(arg, found)
    if dataclasses.is_dataclass(hint) and hint.__name__ not in found:
        found[hint.__name__] = hint
        for nested in typing.get_type_hints(hint).values():
            _dataclasses_in(nested, found)
    return found


def _object_keys(raw):
    """Every key of every JSON object inside ``raw``."""
    if isinstance(raw, dict):
        keys = set(raw)
        for value in raw.values():
            keys |= _object_keys(value)
        return keys
    if isinstance(raw, list):
        return set().union(*map(_object_keys, raw)) if raw else set()
    return set()


class Opaque:
    def __repr__(self):
        return "Opaque()"


Pair = collections.namedtuple("Pair", "left right")


class Name(str):
    pass


ODD_VALUES = st.recursive(
    JSON
    | st.sampled_from(
        [Opaque(), {1, 2}, b"bytes", 1j, Colour.RED, Level.HIGH, Name("n"),
         Pair(1, 2), SystemConfig, Colour, (1, "x")]
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.integers() | st.text(max_size=2), inner, max_size=3).map(
        collections.OrderedDict
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(value=ODD_VALUES)
def test_odd_values_encode_the_same(value):
    """Enum-before-int, str/tuple/dict subclasses, classes as values and
    unencodable leaves: same encoding or the same ``TypeError``."""
    _assert_same_outcome(
        _outcome(serialize.encode_value, value),
        _outcome(legacy.encode_value, value),
    )


@pytest.mark.parametrize("raw", [[], "x", 3, None, [["config", {}]]])
@pytest.mark.parametrize("hint", [SimulationResult, SystemConfig, Node])
def test_non_object_dataclass_payload_raises_the_same(raw, hint):
    new = _outcome(serialize.decode_value, raw, hint)
    assert new[0] == "raised" and new[1] is TypeError
    _assert_same_outcome(new, _outcome(legacy.decode_value, raw, hint))


def test_self_referencing_dataclass_round_trips():
    root = Node(0)
    root.children = [Node(1, parent=Node(9)), Node(2, children=[Node(3)])]
    _check_round_trip(root, Node)
    raw = json.loads(serialize.canonical_dumps(serialize.encode_value(root)))
    assert serialize.decode_value(raw, Node) == root


def test_unhashable_hint_decodes_without_caching():
    hint = typing.Annotated[List[int], []]  # [] metadata: unhashable
    with pytest.raises(TypeError):
        hash(hint)
    before = serialize._cached_decoder.cache_info().currsize
    assert serialize.decode_value([1, 2], hint) == legacy.decode_value([1, 2], hint)
    assert serialize._cached_decoder.cache_info().currsize == before
