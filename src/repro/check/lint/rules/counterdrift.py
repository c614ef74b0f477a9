"""Counter-drift analysis: every counter field must be fed.

The simulator has four counter classes that feed the paper's reported
quantities: :class:`repro.stats.collector.MemSystemStats` (whole-run
totals), :class:`repro.timeline.records.WindowRecord` (the windowed
timeline's per-window deltas), :class:`repro.dram.bank.BankStats`
(per-bank device counters) and
:class:`repro.controller.prefetch_table.TableStats` (prefetch tag-store
counters).  A field is *orphaned* when nothing feeds it any more (a
refactor moved the accounting and the field silently reads its default
forever).

One rule, ``stat-no-increment``, anchored at the field's declaration line
and applied to every counter spec: no write site anywhere in the project
updates the field with a non-constant value (reset-to-zero assignments do
not count; constructor keyword arguments do).  Two feeds are declared
rather than written, and are credited from their declarations:

* a ``MemSystemStats`` counter declared ``scope="device"`` is fed by the
  controller's generic device fold, so it counts as fed when a
  ``controller/`` module names it as a fold source — a string key of a
  dict literal (``BANK_FOLD``, ``TABLE_FOLD``) or of a subscript store
  (``counters["column_accesses"] = ...``).  The BankStats/TableStats
  specs check that the sources those folds read are themselves fed;
* a ``WindowRecord`` field named by a counter's ``window=`` declaration
  is fed by the timeline's generic per-window delta.

Export is not checked here: the telemetry registry, the timeline deltas
and the timeline export columns are all derived from the declarations,
so a declared counter cannot be left out of them.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

from repro.check.lint.core import (
    Finding,
    ModuleContext,
    ProjectRule,
    register,
)

#: Where the counter schema lives and which class declares it.
COLLECTOR_REL = "stats/collector.py"
COLLECTOR_CLASS = "MemSystemStats"

#: Package whose modules declare the device fold sources.
FOLD_PREFIX = "controller/"

#: Method calls that count as feeding a container-typed field.
_FEEDING_METHODS = {"append", "setdefault", "add", "update", "__setitem__"}


class CounterSpec(NamedTuple):
    """One counter class and the module declaring it."""

    collector_rel: str
    collector_class: str


_SPECS = (
    CounterSpec(COLLECTOR_REL, COLLECTOR_CLASS),
    CounterSpec("timeline/records.py", "WindowRecord"),
    CounterSpec("dram/bank.py", "BankStats"),
    CounterSpec("controller/prefetch_table.py", "TableStats"),
)


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _is_classvar(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return (isinstance(annotation, ast.Name) and annotation.id == "ClassVar") or (
        isinstance(annotation, ast.Attribute) and annotation.attr == "ClassVar"
    )


def _stat_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """Dataclass field name -> declaration line (class variables excluded)."""
    fields: Dict[str, int] = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and not _is_classvar(node.annotation):
            fields[node.target.id] = node.lineno
    return fields


def _declared_keywords(cls: ast.ClassDef) -> Dict[str, Dict[str, str]]:
    """Field -> string-constant keyword arguments of its declaring call
    (``scope``/``window`` of a ``counter(...)`` declaration)."""
    declared: Dict[str, Dict[str, str]] = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and isinstance(node.value, ast.Call):
            declared[node.target.id] = {
                kw.arg: kw.value.value for kw in node.value.keywords
                if kw.arg is not None and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            }
    return declared


def _fold_keys(tree: ast.Module) -> Set[str]:
    """String keys of dict literals and of subscript stores in a module."""
    keys: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            candidates: List[Optional[ast.expr]] = list(node.keys)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            candidates = [node.slice]
        else:
            continue
        keys.update(
            key.value for key in candidates
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        )
    return keys


def _is_reset_value(value: ast.AST) -> bool:
    """Constant zero/None/-1 or an empty container literal (reset, not feed)."""
    if isinstance(value, ast.Constant):
        return value.value in (0, -1, None)
    if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub):
        return isinstance(value.operand, ast.Constant)
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return not getattr(value, "keys", None) and not getattr(
            value, "elts", None
        )
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else ""
        return name in ("list", "dict", "set") and not value.args
    return False


def _attribute_stores(tree: ast.Module, fields: Dict[str, int]) -> Set[str]:
    """Fields written with a non-reset value anywhere in a module."""
    fed: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Attribute) and target.attr in fields:
                fed.add(target.attr)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr in fields \
                        and not _is_reset_value(node.value):
                    fed.add(target.attr)
                if isinstance(target, ast.Subscript):
                    inner = target.value
                    if isinstance(inner, ast.Attribute) \
                            and inner.attr in fields:
                        fed.add(inner.attr)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _FEEDING_METHODS:
                receiver = func.value
                if isinstance(receiver, ast.Attribute) \
                        and receiver.attr in fields:
                    fed.add(receiver.attr)
    return fed


def _ctor_feeds(tree: ast.Module, class_name: str,
                fields: Dict[str, int]) -> Set[str]:
    """Fields passed as keyword arguments to ``class_name(...)`` calls.

    Frozen dataclasses (WindowRecord) are fed at construction, not by
    attribute stores; a keyword in any constructor call counts.
    """
    fed: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name != class_name:
            continue
        for keyword in node.keywords:
            if keyword.arg in fields:
                fed.add(keyword.arg)
    return fed


def _declared_feeds(ctxs: Sequence[ModuleContext]) -> Dict[str, Set[str]]:
    """Class name -> fields fed through a declaration, not a write site."""
    collector = next((ctx for ctx in ctxs if ctx.rel == COLLECTOR_REL), None)
    if collector is None or collector.tree is None:
        return {}
    cls = _find_class(collector.tree, COLLECTOR_CLASS)
    if cls is None:
        return {}
    declared = _declared_keywords(cls)
    folded: Set[str] = set()
    for ctx in ctxs:
        if ctx.tree is not None and ctx.rel.startswith(FOLD_PREFIX):
            folded |= _fold_keys(ctx.tree)
    return {
        COLLECTOR_CLASS: {
            name for name, kw in declared.items()
            if kw.get("scope") == "device" and name in folded
        },
        "WindowRecord": {kw["window"] for kw in declared.values() if "window" in kw},
    }


@register
class CounterDriftRule(ProjectRule):
    """``stat-no-increment``, run once per :data:`CounterSpec`."""

    id = "stat-no-increment"
    severity = "error"
    description = (
        "a counter field (MemSystemStats, WindowRecord, BankStats, "
        "TableStats) with no non-reset write site and no declared feed "
        "anywhere in the project (the counter silently reads zero forever)"
    )

    def check_project(
        self, ctxs: Sequence[ModuleContext]
    ) -> Iterable[Finding]:
        declared = _declared_feeds(ctxs)
        findings: List[Finding] = []
        for spec in _SPECS:
            findings.extend(self._check_spec(
                spec, ctxs, declared.get(spec.collector_class, set())
            ))
        return findings

    def _check_spec(
        self, spec: CounterSpec, ctxs: Sequence[ModuleContext], fed: Set[str]
    ) -> Iterable[Finding]:
        collector = next(
            (ctx for ctx in ctxs if ctx.rel == spec.collector_rel), None
        )
        if collector is None or collector.tree is None:
            return ()
        cls = _find_class(collector.tree, spec.collector_class)
        if cls is None:
            return ()
        fields = _stat_fields(cls)
        fed = set(fed)
        for ctx in ctxs:
            if ctx.tree is not None and not ctx.is_test_code:
                fed |= _attribute_stores(ctx.tree, fields)
                fed |= _ctor_feeds(ctx.tree, spec.collector_class, fields)
        return [
            self.finding(
                collector, line,
                f"{spec.collector_class}.{name} has no increment/write site: "
                "the counter can only ever read its default",
            )
            for name, line in sorted(fields.items()) if name not in fed
        ]
