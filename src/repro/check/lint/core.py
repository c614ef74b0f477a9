"""The lint engine: rule registry, module contexts, suppression, ordering.

The engine is deliberately small: a *rule* is an object with an ``id``, a
``severity`` and a ``check_module`` (or, for cross-file analyses, a
``check_project``) method; the engine parses every file exactly once into a
:class:`ModuleContext`, hands the contexts to each registered rule, filters
findings whose source line carries a suppression comment, and returns them
in deterministic ``(path, line, rule)`` order.

Suppressions: a finding is dropped when its line contains
``# repro: ignore[rule-id]`` (several ids may be comma-separated, and the
bare form ``# repro: ignore`` silences every rule on that line).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

#: Severity levels, in increasing order of importance.
SEVERITIES = ("warning", "error")

#: ``# repro: ignore`` / ``# repro: ignore[rule-a, rule-b]``.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([A-Za-z0-9_, \t-]+)\])?")

#: Directory names the tree walker skips: deliberately-broken lint
#: fixtures live under ``tests/lint_fixtures`` and must not pollute the
#: repo gate (they are linted explicitly by the self-tests instead).
SKIP_DIR_NAMES = frozenset({"lint_fixtures", "__pycache__"})


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding at a source location."""

    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"

    def format(self) -> str:
        """``path:line: [rule] message`` (the human output line)."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: line numbers shift under refactors, so a
        baseline entry matches on (path, rule, message) only."""
        return (self.path, self.rule, self.message)

    def to_record(self) -> Dict[str, object]:
        """JSON-ready flat dict (schema pinned by the tests)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


class ModuleContext:
    """One parsed source file, shared by every rule.

    ``rel`` locates the module inside the ``repro`` package (e.g.
    ``engine/simulator.py``) or the test tree (``tests/test_x.py``); rules
    use it for package scoping.  Parsing happens once, here; a file that
    does not parse gets ``tree = None`` and a ``syntax-error`` finding from
    the engine itself (an unparseable file cannot be vouched for).
    """

    def __init__(self, path: str, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.syntax_error = exc

    @property
    def parts(self) -> Tuple[str, ...]:
        return Path(self.rel).parts

    def in_packages(self, *names: str) -> bool:
        """Whether the module lives inside any of the named packages."""
        return any(name in self.parts for name in names)

    @property
    def is_test_code(self) -> bool:
        """Test-tree modules: linted, but exempt from src-only rules."""
        return bool(self.parts) and self.parts[0] in ("tests", "benchmarks")

    @property
    def module_name(self) -> Optional[str]:
        """Dotted ``repro.x.y`` import name, or None for non-package files."""
        if self.is_test_code:
            return None
        parts = list(self.parts)
        if not parts or not parts[-1].endswith(".py"):
            return None
        leaf = parts[-1][:-3]
        if leaf == "__init__":
            parts = parts[:-1]
        else:
            parts[-1] = leaf
        return ".".join(["repro", *parts]) if parts else "repro"

    def suppressed(self, line: int, rule: "Rule") -> bool:
        """Whether the given 1-based line silences ``rule``."""
        if not 1 <= line <= len(self.lines):
            return False
        text = self.lines[line - 1]
        match = _SUPPRESS_RE.search(text)
        if not match:
            return False
        ids = match.group(1)
        return ids is None or rule.id in {part.strip() for part in ids.split(",")}


class Rule:
    """Base class for per-module rules.

    Subclasses set ``id`` / ``severity`` / ``description`` and implement
    :meth:`check_module`; register them with the :func:`register`
    decorator.  Findings should be emitted through :meth:`finding` so the
    severity and rule id stay consistent.
    """

    id: str = ""
    severity: str = "error"
    description: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def finding(self, ctx: ModuleContext, node_or_line: Union[ast.AST, int],
                message: str) -> Finding:
        line = (node_or_line if isinstance(node_or_line, int)
                else getattr(node_or_line, "lineno", 0))
        return Finding(
            path=ctx.path, line=line, rule=self.id,
            message=message, severity=self.severity,
        )


class ProjectRule(Rule):
    """A rule that needs every module at once (cross-file analyses)."""

    def check_project(self, ctxs: Sequence[ModuleContext]) -> Iterable[Finding]:
        return ()


@dataclass
class _Registry:
    rules: Dict[str, Rule] = field(default_factory=dict)

    def add(self, rule: Rule) -> None:
        if not rule.id:
            raise ValueError(f"{type(rule).__name__} has no rule id")
        if rule.severity not in SEVERITIES:
            raise ValueError(
                f"rule {rule.id}: unknown severity {rule.severity!r}"
            )
        if rule.id in self.rules:
            raise ValueError(f"duplicate rule id {rule.id!r}")
        self.rules[rule.id] = rule


_REGISTRY = _Registry()


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add to the global registry."""
    _REGISTRY.add(rule_cls())
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (deterministic reports)."""
    _load_builtin_rules()
    return [_REGISTRY.rules[rule_id] for rule_id in sorted(_REGISTRY.rules)]


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    try:
        return _REGISTRY.rules[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY.rules)}"
        ) from None


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (registration is import-driven)."""
    from repro.check.lint import rules  # noqa: F401  (side-effect import)


def module_rel_for(path: Path) -> str:
    """Best-effort module-relative path for a file on disk.

    Files under a ``repro`` package directory are located relative to it
    (``.../src/repro/engine/simulator.py`` -> ``engine/simulator.py``);
    files under ``tests``/``benchmarks`` keep that prefix; anything else
    falls back to its bare name.
    """
    parts = path.parts
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            tail = parts[index + 1:] if anchor == "repro" else parts[index:]
            if tail:
                return str(Path(*tail))
    return path.name


def repro_source_root() -> Path:
    """The installed location of the ``repro`` package sources."""
    import repro

    return Path(repro.__file__).resolve().parent


def _collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if SKIP_DIR_NAMES.isdisjoint(candidate.parts[:-1]):
                    files.append(candidate)
        else:
            files.append(path)
    return files


class LintEngine:
    """Runs a set of rules over files, sources, or directory trees."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()

    # -- entry points ----------------------------------------------------

    def lint_paths(self, paths: Sequence[Union[str, Path]]) -> List[Finding]:
        """Lint files and/or directory trees on disk."""
        ctxs = []
        for path in _collect_files(paths):
            source = path.read_text(encoding="utf-8")
            ctxs.append(ModuleContext(str(path), module_rel_for(path), source))
        return self.run(ctxs)

    def lint_sources(
        self, files: Sequence[Tuple[str, str]]
    ) -> List[Finding]:
        """Lint in-memory ``(module_rel, source)`` pairs (self-tests)."""
        ctxs = [ModuleContext(rel, rel, source) for rel, source in files]
        return self.run(ctxs)

    # -- plumbing --------------------------------------------------------

    def run(self, ctxs: Sequence[ModuleContext]) -> List[Finding]:
        findings: List[Finding] = []
        for ctx in ctxs:
            if ctx.syntax_error is not None:
                findings.append(Finding(
                    path=ctx.path, line=ctx.syntax_error.lineno or 0,
                    rule="syntax-error",
                    message=f"file does not parse: {ctx.syntax_error.msg}",
                ))
        parsed = [ctx for ctx in ctxs if ctx.tree is not None]
        by_path = {ctx.path: ctx for ctx in ctxs}
        for rule in self.rules:
            raw: List[Finding] = []
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(parsed))
            else:
                for ctx in parsed:
                    raw.extend(rule.check_module(ctx))
            for item in raw:
                ctx = by_path.get(item.path)
                if ctx is not None and ctx.suppressed(item.line, rule):
                    continue
                findings.append(item)
        findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
        return findings


def errors_only(findings: Iterable[Finding]) -> List[Finding]:
    """The subset of findings that gate the exit code."""
    return [f for f in findings if f.severity == "error"]
