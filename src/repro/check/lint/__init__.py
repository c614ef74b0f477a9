"""Simulator-domain static analysis engine (``python -m repro.check lint``).

A plugin registry of AST rules over the repo's own source: the four
determinism rules from PR 1 plus unit-flow (``unit-mix``/``unit-return``),
worker shared-state and strict-typing (``untyped-def``) analyses.  See ``docs/STATIC_ANALYSIS.md`` for the rule
catalogue, suppression syntax and the baseline workflow.
"""

from repro.check.lint.baseline import (
    diff_against_baseline,
    load_baseline,
    report_payload,
    save_baseline,
)
from repro.check.lint.core import (
    Finding,
    LintEngine,
    ModuleContext,
    ProjectRule,
    Rule,
    all_rules,
    errors_only,
    get_rule,
    register,
    repro_source_root,
)

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "diff_against_baseline",
    "errors_only",
    "get_rule",
    "load_baseline",
    "register",
    "report_payload",
    "repro_source_root",
    "save_baseline",
]
