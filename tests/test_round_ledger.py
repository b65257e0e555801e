"""The round records are the one ledger of a cluster's time.

Every case of ``scripts/regen_goldens.py`` — every mode, both fabrics,
clean, faulted and sampled — is run and each aggregator's result checked
against its own round records:

* ``idle_time`` is the sum of the records' ``timing.idle_time``, exactly:
  a policy books each wait on the record of the round it belongs to, and
  there is no second book to drift from it.
* For every member of round 1's cohort — every cluster of a dense run —
  the records' ``timing.total_time`` sum to the cluster's clock.  Only a
  cluster drawn after round 1 is exempt: it joins mid-run at its slot's
  time, which no round of its own spent.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.runner import ExperimentRunner

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "regen_goldens", REPO_ROOT / "scripts" / "regen_goldens.py"
)
regen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_goldens)

CASES = regen_goldens.golden_cases()


@pytest.mark.parametrize("name", list(CASES))
def test_round_records_account_for_each_clusters_time(name):
    overrides = CASES[name]
    runner = ExperimentRunner(regen_goldens.build_config(name, **overrides))
    result = runner.run()
    founders = set(runner.population.slot_keys)
    for aggregator in result.aggregators:
        history = aggregator.history
        assert aggregator.idle_time == sum(r.timing.idle_time for r in history), aggregator.name
        if aggregator.name in founders:
            recorded = sum(r.timing.total_time for r in history)
            assert recorded == pytest.approx(aggregator.total_time, abs=1e-9), aggregator.name
