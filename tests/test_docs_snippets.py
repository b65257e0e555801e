"""The documentation is executable: snippets run, the console script answers.

These tests back the CI docs job locally: every fenced Python block in
``README.md`` and ``docs/*.md`` must execute cleanly against the current
code (``scripts/check_doc_snippets.py``), and the CLI entry point must at
least present its help.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_doc_snippets.py"


def test_docs_exist():
    assert (REPO_ROOT / "README.md").is_file()
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "scheduling.md").is_file()


def test_doc_snippets_run():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ran cleanly" in proc.stdout


@pytest.mark.parametrize("args", [["--help"], ["run", "--help"], ["compare", "--help"]])
def test_cli_help_smoke(args):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro" in proc.stdout


def test_cli_advertises_event_streams():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "--help"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    for flag in ("--event-streams", "--link-bandwidth", "--block-period", "--mode"):
        assert flag in proc.stdout
