"""A dense federation is the population of its clusters, drawn whole.

Every dense case of ``scripts/regen_goldens.py`` is run twice: as declared,
and with ``population`` and ``clients_per_round`` both set to its cluster
count.  The two result documents must be equal apart from the ``sampling``
block and the ``schema_version`` it brings, which only the second declares:
the two configurations are one federation, so any other difference is a
second code path.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.core.reporting import result_to_dict
from repro.core.runner import ExperimentRunner

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "regen_goldens", REPO_ROOT / "scripts" / "regen_goldens.py"
)
regen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_goldens)

DENSE_CASES = {
    name: overrides
    for name, overrides in regen_goldens.golden_cases().items()
    if "population" not in overrides
}

#: the keys only a configuration that declares a population carries.
SAMPLING_KEYS = ("sampling", "schema_version")


def _document(config):
    document = result_to_dict(ExperimentRunner(config).run())
    for key in SAMPLING_KEYS:
        document.pop(key, None)
    return document


@pytest.mark.parametrize("name", list(DENSE_CASES))
def test_whole_population_cohort_is_the_dense_run(name):
    dense = regen_goldens.build_config(name, **DENSE_CASES[name])
    size = len(dense.clusters)
    degenerate = dataclasses.replace(dense, population=size, clients_per_round=size)
    assert _document(degenerate) == _document(dense)


def test_the_oracle_covers_every_dense_case():
    assert len(DENSE_CASES) == 27
