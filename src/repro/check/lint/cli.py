"""``python -m repro.check lint`` — the static-analysis CLI.

Usage::

    python -m repro.check lint [PATH ...] [options]

With no paths, lints the installed ``repro`` sources.  Options:

* ``--baseline FILE`` — gate against a committed baseline: only findings
  absent from it fail the run, and stale (fixed) entries fail it too so
  the baseline never rots;
* ``--write-baseline FILE`` — accept the current findings as the new
  baseline and exit 0;
* ``--json-out FILE`` / ``--json`` — machine-readable report (written to
  FILE, or printed to stdout);
* ``--rules a,b`` — run only the named rules;
* ``--list-rules`` — print the rule catalogue and exit.

Exit status: 0 clean, 1 new error-severity findings (or stale baseline
entries), 2 usage or I/O error.  Warning-severity findings are reported
but do not gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.check.lint.baseline import (
    diff_against_baseline,
    load_baseline,
    report_payload,
    save_baseline,
)
from repro.check.lint.core import (
    Finding,
    LintEngine,
    ProjectRule,
    Rule,
    all_rules,
    errors_only,
    repro_source_root,
)

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _select_rules(spec: Optional[str]) -> List[Rule]:
    rules = all_rules()
    if spec is None:
        return rules
    wanted = {part.strip() for part in spec.split(",") if part.strip()}
    known = {rule.id for rule in rules}
    unknown = sorted(wanted - known)
    if unknown:
        raise ValueError(
            f"unknown rule id(s) {unknown}; known: {sorted(known)}"
        )
    return [rule for rule in rules if rule.id in wanted]


def _print_catalogue(rules: Sequence[Rule]) -> None:
    width = max(len(rule.id) for rule in rules)
    for rule in rules:
        kind = "project" if isinstance(rule, ProjectRule) else "module"
        print(f"{rule.id:<{width}}  {rule.severity:<7}  {kind:<7}  "
              f"{rule.description}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check lint",
        description="simulator-domain static analysis (rule engine)",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: repro sources)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="gate against this committed baseline file",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="accept the current findings into FILE and exit 0",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the JSON report to stdout",
    )
    parser.add_argument(
        "--json-out", metavar="FILE",
        help="write the JSON report to FILE",
    )
    parser.add_argument(
        "--rules", metavar="ID[,ID...]",
        help="run only the named rules",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    try:
        rules = _select_rules(args.rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.list_rules:
        _print_catalogue(rules)
        return EXIT_CLEAN

    engine = LintEngine(rules)
    try:
        if args.paths:
            findings = engine.lint_paths(args.paths)
        else:
            root = repro_source_root()
            print(f"linting {root}")
            findings = engine.lint_paths([root])
    except OSError as exc:
        print(f"error: cannot lint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline:
        save_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}")
        return EXIT_CLEAN

    baseline: "Counter[Tuple[str, str, str]]" = Counter()
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    new, stale = diff_against_baseline(findings, baseline)

    payload = report_payload(
        findings, new, stale,
        [(rule.id, rule.severity, rule.description) for rule in rules],
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_human(findings, new, stale, bool(args.baseline))

    gating = errors_only(new)
    if gating or stale:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _print_human(
    findings: Sequence[Finding],
    new: Sequence[Finding],
    stale: Sequence[Tuple[str, str, str]],
    baselined: bool,
) -> None:
    new_keys = {id(f) for f in new}
    for finding in findings:
        marker = "" if id(finding) in new_keys or not baselined \
            else " (baselined)"
        print(f"{finding.format()}{marker}")
    for key in stale:
        path, rule, message = key
        print(f"stale baseline entry (fixed — remove it): "
              f"{path}: [{rule}] {message}")
    errors = len(errors_only(list(new)))
    warnings = len(new) - errors
    print(
        f"lint: {len(findings)} finding(s), {errors} new error(s), "
        f"{warnings} new warning(s), {len(stale)} stale baseline entr"
        f"{'y' if len(stale) == 1 else 'ies'}"
    )


if __name__ == "__main__":
    sys.exit(main())
