"""Golden digests: fixed seed → bit-identical results, checked in.

Every case of ``scripts/regen_goldens.py`` is re-run and its record (result
digest, event count, makespan, per-aggregator time/accuracy/loss, fabric
queueing and chain-wait totals) compared with ``tests/goldens/digests.json``.
Every baseline case is re-run the same way and its result digest and final
accuracies compared.  A mismatch lists the fields that moved; if the change was intended,
regenerate the file with the script so it is reviewed as a diff.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "regen_goldens", REPO_ROOT / "scripts" / "regen_goldens.py"
)
regen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_goldens)

GOLDENS = json.loads(regen_goldens.GOLDEN_PATH.read_text(encoding="utf-8"))
CASES = regen_goldens.golden_cases()
BASELINE_CASES = regen_goldens.baseline_cases()

pytestmark = pytest.mark.skipif(
    numpy.__version__ != GOLDENS["numpy"],
    reason=(
        f"goldens were generated under numpy {GOLDENS['numpy']}, "
        f"this is {numpy.__version__}: digests depend on the floating-point kernels"
    ),
)


def test_golden_file_covers_exactly_the_declared_cases():
    assert sorted(GOLDENS["cases"]) == sorted(CASES)
    assert sorted(GOLDENS["baselines"]) == sorted(BASELINE_CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_golden_case_reproduces(name):
    moved = regen_goldens.differing_fields(
        GOLDENS["cases"][name], regen_goldens.run_case(name, CASES[name])
    )
    assert not moved, f"{name} (golden -> this run):\n  " + "\n  ".join(moved)


@pytest.mark.parametrize("name", list(BASELINE_CASES))
def test_golden_baseline_reproduces(name):
    moved = regen_goldens.differing_fields(
        GOLDENS["baselines"][name], regen_goldens.run_baseline_case(name, BASELINE_CASES[name])
    )
    assert not moved, f"{name} (golden -> this run):\n  " + "\n  ".join(moved)
