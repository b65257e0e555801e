"""The determinism linter driver: findings, suppressions and the scan loop.

The linter parses each module once, runs every registered rule
(:mod:`repro.analysis.rules`) over the tree and filters the raw findings
through the one suppression channel: ``# detlint: ignore[DET001]`` (or
``ignore[DET001,DET003]``) on the offending line suppresses those codes for
that line only.  The marker lives on the line it excuses, so editing or
deleting that line shows up in the same diff, and the verdict never depends
on the directory the linter runs from.

Everything else surfaces in the :class:`LintReport` and fails the build.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

#: inline suppression syntax: ``# detlint: ignore[DET001]`` / ``ignore[DET001, DET003]``.
_IGNORE_RE = re.compile(r"#\s*detlint:\s*ignore\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    snippet: str = ""

    def render(self) -> str:
        """One-line human-readable form (``path:line:col: CODE message``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class LintReport:
    """The outcome of one lint run over one or more paths."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing surfaced beyond inline suppressions."""
        return not self.findings and not self.parse_errors

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.files_scanned += other.files_scanned
        self.suppressed += other.suppressed
        self.parse_errors.extend(other.parse_errors)


def _inline_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map each line number carrying an ``ignore[...]`` marker to its codes."""
    per_line: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        match = _IGNORE_RE.search(text)
        if match:
            codes = {code.strip() for code in match.group(1).split(",") if code.strip()}
            per_line.setdefault(number, set()).update(codes)
    return per_line


def lint_source(
    source: str,
    path: str = "<string>",
    codes: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint one module's source text.

    ``codes`` restricts the run to a subset of rule codes or families
    (``["DET003"]``, ``["UNIT"]``, any order); by default every registered
    rule runs.  Inline suppressions are honoured.
    """
    from repro.analysis import rules as _rules  # deferred: rules imports Finding

    report = LintReport(files_scanned=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.parse_errors.append(f"{path}: {exc.msg} (line {exc.lineno})")
        return report

    lines = source.splitlines()
    per_line = _inline_suppressions(lines)

    selected = _rules.all_rules()
    if codes is not None:
        wanted = set(_rules.expand_selectors(codes))  # unknown selectors raise
        selected = [rule for rule in selected if rule.code in wanted]

    context = _rules.LintContext(
        path=path,
        module_path=path.replace("\\", "/"),
        tree=tree,
        lines=lines,
    )
    for rule in selected:
        for finding in rule.check(context):
            if finding.code in per_line.get(finding.line, set()):
                report.suppressed += 1
            else:
                report.findings.append(finding)
    report.findings.sort()
    return report


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    collected: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            collected.update(path.rglob("*.py"))
        else:
            collected.add(path)
    return sorted(collected)


def lint_paths(
    paths: Iterable[str],
    codes: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files and directories, one file at a time.

    A path that cannot be read (missing, or not UTF-8) is a parse error,
    like a file that does not parse.
    """
    from repro.analysis import rules as _rules  # deferred: rules imports Finding

    selected = None if codes is None else _rules.expand_selectors(codes)
    report = LintReport()
    for file_path in iter_python_files(paths):
        path = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            report.parse_errors.append(f"{path}: {exc.strerror}")
            continue
        except UnicodeDecodeError as exc:
            report.parse_errors.append(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})")
            continue
        report.extend(lint_source(source, path=path, codes=selected))
    return report
