"""Config fuzz built from the run-knob declarations.

Each draw sets a few run knobs of :class:`ExperimentConfig` to values taken
from their declarations: a declared closed set, both booleans, or for a
numeric knob a value inside, at and just past each declared bound (``None``
too where the knob is ``Optional``).  A draw must either be rejected at
construction by a message that names a knob it set, or run to completion
sanitized and give the same result document as a plain same-seed rerun.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Any, Dict, List, get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    BOUNDS,
    ExperimentConfig,
    cifar10_workload,
    edge_cluster_configs,
    knob_choices,
    knob_fields,
)
from repro.core.reporting import result_to_dict
from repro.core.runner import run_experiment


def _numbers(kind: type, declared: Dict[str, Any]) -> List[Any]:
    """Values at and just past each declared bound of a numeric knob, and
    values inside every bound a little and a long way in from each."""
    bounds = {key: declared[key] for key in BOUNDS if key in declared}
    edges, inside = [], []
    for key, bound in bounds.items():
        inwards = 1 if key in ("gt", "ge") else -1
        if kind is int:
            edges += [bound - inwards, bound]
            inside += [bound + inwards, bound + 2 * inwards]
        else:
            edges += [math.nextafter(bound, -inwards * math.inf), bound]
            inside += [bound + inwards * 0.5, bound + inwards * 30.0]
    within = [v for v in inside if all(getattr(operator, k)(v, b) for k, b in bounds.items())]
    return sorted(set(edges + within))


def _knob_values(knob) -> st.SearchStrategy:
    hint = get_type_hints(ExperimentConfig)[knob.name]
    kind = next(t for t in get_args(hint) or [hint] if t is not type(None))
    choices = knob_choices(knob)
    if choices is not None:
        values = st.sampled_from(choices)
    elif kind is bool:
        values = st.booleans()
    else:
        values = st.sampled_from(_numbers(kind, knob.metadata))
    return values | st.none() if type(None) in get_args(hint) else values


#: every knob but ``sanitize``, which the property sets itself.
KNOB_VALUES = {knob.name: _knob_values(knob) for knob in knob_fields() if knob.name != "sanitize"}


@st.composite
def knob_overrides(draw) -> Dict[str, Any]:
    """A few knobs, each set to a value drawn from its declaration."""
    names = draw(st.lists(st.sampled_from(sorted(KNOB_VALUES)), max_size=3, unique=True))
    return {name: draw(KNOB_VALUES[name]) for name in names}


def _build(overrides: Dict[str, Any], sanitize: bool) -> ExperimentConfig:
    """The tiny 3x1 edge shape for two rounds, with the drawn knobs set."""
    return ExperimentConfig(
        name="fuzz",
        workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
        clusters=edge_cluster_configs(num_clients=1),
        **{"rounds": 2, **overrides, "sanitize": sanitize},
    )


#: draws that broke the property before their knob declared its range or its
#: rule named it, as shrunk by the fuzz: a negative seed and a zero Dirichlet
#: alpha failed deep in the run with numpy's and the partitioner's messages,
#: and a population without clients_per_round was rejected without naming it.
COUNTER_EXAMPLES = {
    "negative-seed": {"seed": -1},
    "zero-alpha": {"dirichlet_alpha": 0.0},
    "population-alone": {"population": 2},
}


def check_rejected_by_name_or_runs(overrides: Dict[str, Any]) -> None:
    try:
        config = _build(overrides, sanitize=True)
    except ValueError as rejection:
        named = [name for name in overrides if re.search(rf"\b{name}\b", str(rejection))]
        assert named, f"{overrides} rejected without naming a knob it set: {rejection}"
        return
    document = result_to_dict(run_experiment(config))
    assert result_to_dict(run_experiment(_build(overrides, sanitize=False))) == document


class TestConfigFuzz:
    def test_numeric_draws_straddle_each_bound(self):
        churn = next(k for k in knob_fields() if k.name == "churn_rate")
        assert _numbers(float, churn.metadata) == [
            -5e-324, 0.0, 0.5, 1.0, 1.0000000000000002,
        ]
        replicas = next(k for k in knob_fields() if k.name == "storage_replicas")
        assert _numbers(int, replicas.metadata) == [0, 1, 2, 3]

    @pytest.mark.parametrize("overrides", COUNTER_EXAMPLES.values(), ids=COUNTER_EXAMPLES)
    def test_a_shrunk_counter_example(self, overrides):
        check_rejected_by_name_or_runs(overrides)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(knob_overrides())
    def test_a_draw_is_rejected_by_name_or_runs_deterministically(self, overrides):
        check_rejected_by_name_or_runs(overrides)
