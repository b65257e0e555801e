"""The ``repro lint`` subcommand: run the determinism linter from the CLI.

Kept in the analysis package so :mod:`repro.cli` only wires the subparser;
the linter and the exit-code contract live next to the rules they expose.

Exit codes: ``0`` clean (nothing beyond inline suppressions), ``1`` findings
surfaced, ``2`` a file failed to parse (or could not be read) or an unknown
rule code was named (``--select``/``--explain``).
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from repro.analysis.linter import LintReport, lint_paths
from repro.analysis.rules import all_rules, expand_selectors, get_rule

DEFAULT_LINT_PATHS = ["src/repro"]


def add_lint_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``lint`` subcommand on an existing subparser collection."""
    parser = subparsers.add_parser(
        "lint",
        help="run the static analyzer (DET/UNIT rule families) over simulation code",
        description=(
            "Scan Python sources, one file at a time, for constructs that "
            "break the repo's core invariants: determinism (DET) and "
            "unit/dimension discipline (UNIT). A finding is suppressed only "
            "inline, with '# detlint: ignore[CODE]' on its line."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_LINT_PATHS,
        help=f"files or directories to scan (default: {' '.join(DEFAULT_LINT_PATHS)})",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help=(
            "comma-separated rule codes or families to run — 'DET003', "
            "'UNIT', 'DET,UNIT' (default: all registered rules)"
        ),
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        default=None,
        help="print the long-form rationale and fix guidance for one rule code, then exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule catalogue and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return parser


def _print_rules() -> None:
    for rule in all_rules():
        print(f"{rule.code}  {rule.name}")
        print(f"        {rule.summary}")


def _print_explain(code: str) -> int:
    try:
        rule = get_rule(code)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"{rule.code}  {rule.name}")
    print(f"    {rule.summary}")
    if rule.explain:
        print()
        for line in rule.explain.splitlines():
            print(f"    {line}" if line else "")
    return 0


def _report_json(report: LintReport) -> str:
    return json.dumps(
        {
            "findings": [
                {
                    "path": finding.path,
                    "line": finding.line,
                    "col": finding.col,
                    "code": finding.code,
                    "message": finding.message,
                    "snippet": finding.snippet,
                }
                for finding in report.findings
            ],
            "files_scanned": report.files_scanned,
            "suppressed": report.suppressed,
            "parse_errors": report.parse_errors,
        },
        indent=2,
    )


def command_lint(args: argparse.Namespace) -> int:
    """Execute the ``lint`` subcommand; returns the process exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    if args.explain is not None:
        return _print_explain(args.explain.strip())

    codes: Optional[List[str]] = None
    if args.select:
        codes = [code.strip() for code in args.select.split(",") if code.strip()]
        try:
            expand_selectors(codes)  # fail fast on unknown selectors
        except ValueError as exc:
            print(f"error: {exc}")
            return 2

    report = lint_paths(args.paths, codes=codes)

    if args.format == "json":
        print(_report_json(report))
    else:
        for finding in report.findings:
            print(finding.render())
        for error in report.parse_errors:
            print(f"parse error: {error}")
        print(
            f"{report.files_scanned} file(s) scanned, "
            f"{len(report.findings)} finding(s), "
            f"{report.suppressed} suppressed inline"
        )

    if report.parse_errors:
        return 2
    return 0 if not report.findings else 1
