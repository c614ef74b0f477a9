"""Command-line entry point: ``python -m repro.check``.

Modes (combinable; default with no flags is trace checking):

* ``python -m repro.check trace.jsonl [...]`` — protocol-check saved
  command traces (written by ``SystemConfig(check_protocol=True)`` runs
  or by hand; see :mod:`repro.check.trace` for the format);
* ``python -m repro.check lint [PATH ...]`` — the static-analysis engine
  (determinism + unit-flow + shared-state rules; see
  :mod:`repro.check.lint.cli` for its options);
* ``--self-test`` — run the golden known-bad suites (seeded protocol
  traces and seeded lint fixtures);
* ``--audit-configs`` — cross-field audit of the standard factory
  configurations.

Exit status: 0 clean, 1 findings/violations, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List

from repro.check.config_audit import audit_system, errors_only
from repro.check.lint.selftest import run_self_test as run_lint_self_test
from repro.check.protocol import check_journals
from repro.check.selftest import run_self_test
from repro.check.trace import load_journals

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _check_traces(paths: List[str]) -> int:
    status = EXIT_CLEAN
    for raw in paths:
        path = Path(raw)
        try:
            params, banks, links = load_journals(path)
        except OSError as exc:
            print(f"{path}: cannot load trace: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:  # already located as path:line:
            print(exc, file=sys.stderr)
            return EXIT_USAGE
        violations = check_journals(params, banks, links)
        if violations:
            status = EXIT_FINDINGS
            print(f"{path}: {len(violations)} violation(s)")
            for violation in violations:
                print(f"  {violation.format()}")
        else:
            records = sum(len(log) for _, log in banks) + sum(
                len(south) + len(north) for _, south, north in links)
            print(f"{path}: OK ({records} events, {params.kind})")
    return status


def _run_audit() -> int:
    # Imported here so plain trace checking never pulls in the factories.
    from repro.config import ddr2_baseline, fbdimm_amb_prefetch, fbdimm_baseline

    status = EXIT_CLEAN
    for name, factory in (
        ("ddr2_baseline", ddr2_baseline),
        ("fbdimm_baseline", fbdimm_baseline),
        ("fbdimm_amb_prefetch", fbdimm_amb_prefetch),
    ):
        issues = audit_system(factory())
        if issues:
            print(f"{name}: {len(issues)} issue(s)")
            for issue in issues:
                print(f"  {issue.format()}")
            if errors_only(issues):
                status = EXIT_FINDINGS
        else:
            print(f"{name}: OK")
    return status


def _run_self_test() -> int:
    count, failures = run_self_test()
    lint_count, lint_failures = run_lint_self_test()
    count += lint_count
    failures = list(failures) + list(lint_failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"self-test: {count} cases, {len(failures)} failure(s)")
    return EXIT_FINDINGS if failures else EXIT_CLEAN


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # The lint engine has its own CLI (baseline, JSON, rule selection).
        from repro.check.lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="DDR2/FB-DIMM protocol checker and simulator lints",
    )
    parser.add_argument(
        "traces", nargs="*", metavar="TRACE",
        help="check-trace JSONL files to validate",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the golden known-bad trace suite",
    )
    parser.add_argument(
        "--audit-configs", action="store_true",
        help="audit the standard factory configurations",
    )
    args = parser.parse_args(argv)

    selected = False
    status = EXIT_CLEAN
    if args.self_test:
        selected = True
        status = max(status, _run_self_test())
    if args.audit_configs:
        selected = True
        status = max(status, _run_audit())
    if args.traces:
        selected = True
        status = max(status, _check_traces(args.traces))
    if not selected:
        parser.print_usage(sys.stderr)
        print(
            "error: nothing to do — pass a trace file or one of "
            "--self-test/--audit-configs (or use the lint subcommand)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    return status


if __name__ == "__main__":
    sys.exit(main())
