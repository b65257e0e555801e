"""Tests for the run-wide evaluator (:mod:`repro.ml.evaluation`).

The memo must be invisible: whatever the order, repetition and eviction
pattern of the requests, every answer equals what a fresh clone of the model
template computes directly.  The counters must be exact: the model is run
once per distinct (weights, dataset) pair and never otherwise.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SanitizerViolation, SimulationSanitizer
from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
from repro.core.reporting import result_to_dict
from repro.core.runner import ExperimentRunner
from repro.ml import evaluation
from repro.ml.evaluation import Evaluator
from repro.ml.models import MLP, Model, SimpleCNN
from repro.ml.serialization import weights_fingerprint


def random_weights(template: Model, seed: int):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 0.3, size=w.shape).astype(w.dtype) for w in template.get_weights()]


def direct(template: Model, weights, data):
    """The oracle: a fresh clone of the template evaluating directly."""
    model = template.clone()
    model.set_weights(weights)
    return model.evaluate(data.x, data.y)


#: three distinct weight seeds; (index into the weight pool, index into the
#: datasets) per request; the LRU capacity the run is held to.
interleavings = given(
    seeds=st.lists(st.integers(0, 2**16), min_size=3, max_size=3, unique=True),
    sequence=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), min_size=1, max_size=24),
    capacity=st.sampled_from([1, 2, 3, 1024]),
)


def check_interleaving(template, datasets, seeds, sequence, capacity):
    # Pool slots 0..2 hold distinct weights, slot 3 a separate copy of slot 0:
    # equal bytes must share an entry whichever list object carries them.
    pool = [random_weights(template, seed) for seed in seeds]
    pool.append([w.copy() for w in pool[0]])
    content = [0, 1, 2, 0]
    oracle = {}
    lru: "OrderedDict[tuple, None]" = OrderedDict()
    expected_hits = 0
    with mock.patch.object(evaluation, "EVALUATION_MEMO_CAPACITY", capacity):
        evaluator = Evaluator(template)
        for slot, which in sequence:
            key = (content[slot], which)
            if key not in oracle:
                oracle[key] = direct(template, pool[slot], datasets[which])
            assert evaluator.evaluate(pool[slot], datasets[which]) == oracle[key]
            # The same LRU, replayed on (content, dataset) keys.
            if key in lru:
                expected_hits += 1
                lru.move_to_end(key)
            else:
                lru[key] = None
                if len(lru) > capacity:
                    lru.popitem(last=False)
    assert evaluator.calls == len(sequence)
    assert evaluator.hits == expected_hits
    assert len(evaluator._memo) == len(lru) <= capacity


class TestMemoIsInvisible:
    @settings(max_examples=20, deadline=None)
    @interleavings
    def test_benchmark_cnn_on_two_image_sets(self, tiny_image_dataset, seeds, sequence, capacity):
        template = SimpleCNN(image_size=8, seed=0)
        check_interleaving(template, tiny_image_dataset, seeds, sequence, capacity)

    @settings(max_examples=20, deadline=None)
    @interleavings
    def test_mlp_on_two_tabular_sets(self, tabular_dataset, seeds, sequence, capacity):
        template = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        datasets = (tabular_dataset, tabular_dataset.subset(np.arange(0, 240, 3)))
        check_interleaving(template, datasets, seeds, sequence, capacity)

    def test_equal_weights_on_different_datasets_never_share_an_entry(
        self, small_mlp, tabular_dataset
    ):
        weights = small_mlp.get_weights()
        # Same samples, two objects: identity is the key, not content.
        twin = tabular_dataset.subset(np.arange(len(tabular_dataset)))
        other = tabular_dataset.subset(np.arange(0, 240, 2))
        evaluator = Evaluator(small_mlp)
        first = evaluator.evaluate(weights, tabular_dataset)
        assert evaluator.evaluate(weights, twin) == first
        assert evaluator.evaluate(weights, other) == direct(small_mlp, weights, other)
        assert (evaluator.calls, evaluator.hits) == (3, 0)
        assert evaluator.evaluate(weights, tabular_dataset) == first
        assert (evaluator.calls, evaluator.hits) == (4, 1)

    def test_the_memo_keeps_its_datasets_alive(self, small_mlp, tabular_dataset):
        # An id is only unique among live objects; the entry holds the
        # dataset, so a later object cannot inherit a dead one's entries.
        evaluator = Evaluator(small_mlp)
        data = tabular_dataset.subset(np.arange(30))
        evaluator.evaluate(small_mlp.get_weights(), data)
        ((fingerprint, identity), (held, _)), = evaluator._memo.items()
        assert held is data and identity == id(data)
        assert fingerprint == weights_fingerprint(small_mlp.get_weights())


def sampled_config(mode: str, **overrides) -> ExperimentConfig:
    kwargs = dict(
        name=f"evaluate-once-{mode}",
        workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
        clusters=gpu_cluster_configs(num_clusters=3, num_clients=2),
        mode=mode,
        rounds=2,
        seed=0,
        storage_replicas=2,
        population=1000,
        clients_per_round=8,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def content_key(weights, buffer) -> tuple:
    """A (weights, dataset) key that shares nothing with the evaluator's."""
    digest = hashlib.sha256()
    for w in weights:
        digest.update(str((w.dtype.str, w.shape)).encode())
        digest.update(np.ascontiguousarray(w).tobytes())
    return digest.hexdigest(), buffer.__array_interface__["data"][0]


class TestExactCounters:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_the_model_runs_once_per_distinct_pair(self, mode, monkeypatch):
        computed, requested = [], []
        model_evaluate, evaluator_evaluate = Model.evaluate, Evaluator.evaluate

        def counting_model_evaluate(self, x, y, *args, **kwargs):
            computed.append(content_key(self.network.parameters(), x))
            return model_evaluate(self, x, y, *args, **kwargs)

        def recording_evaluator_evaluate(self, weights, data):
            requested.append(content_key(weights, data.x))
            return evaluator_evaluate(self, weights, data)

        monkeypatch.setattr(Model, "evaluate", counting_model_evaluate)
        monkeypatch.setattr(Evaluator, "evaluate", recording_evaluator_evaluate)
        runner = ExperimentRunner(sampled_config(mode))
        runner.run()

        evaluator = runner.evaluator
        assert evaluator.calls == len(requested)
        assert evaluator.hits > 0
        assert len(computed) == evaluator.calls - evaluator.hits
        assert sorted(computed) == sorted(set(requested))

    def test_a_virtual_cluster_builds_no_model(self, monkeypatch):
        runner = ExperimentRunner(sampled_config("sync"))
        runner.build()
        clones = []
        clone = Model.clone

        def counting_clone(self):
            clones.append(self)
            return clone(self)

        monkeypatch.setattr(Model, "clone", counting_clone)
        index = next(
            i for i in range(runner.config.population) if i not in runner.population._by_index
        )
        aggregator = runner._materialise_virtual_cluster(index)
        assert clones == []
        assert len(aggregator.clients) == aggregator.config.num_clients
        assert all(client.model is runner.training_model for client in aggregator.clients)

    def test_runners_share_no_evaluator_state(self):
        first_runner = ExperimentRunner(sampled_config("sync"))
        second_runner = ExperimentRunner(sampled_config("sync"))
        assert first_runner.evaluator is not second_runner.evaluator
        assert first_runner.evaluator._memo is not second_runner.evaluator._memo
        assert first_runner.evaluator._model is not second_runner.evaluator._model
        first = first_runner.run()
        assert (second_runner.evaluator.calls, second_runner.evaluator.hits) == (0, 0)
        second = second_runner.run()
        assert result_to_dict(first) == result_to_dict(second)
        # The rerun was served by its own memo, filled from empty.
        assert second_runner.evaluator.calls == first_runner.evaluator.calls
        assert second_runner.evaluator.hits == first_runner.evaluator.hits
        assert all(a.evaluator is second_runner.evaluator for a in second_runner.aggregators)


class TestSanitizerIsTheOracle:
    @staticmethod
    def sanitized(template):
        evaluator = Evaluator(template)
        evaluator.sanitizer = SimulationSanitizer()
        return evaluator, template.get_weights()

    def test_an_honest_hit_is_checked_and_passes(self, small_mlp, tabular_dataset):
        evaluator, weights = self.sanitized(small_mlp)
        first = evaluator.evaluate(weights, tabular_dataset)
        assert evaluator.sanitizer.checks["evaluation"] == 0
        assert evaluator.evaluate(weights, tabular_dataset) == first
        assert evaluator.sanitizer.checks["evaluation"] == 1

    def test_a_tampered_entry_raises(self, small_mlp, tabular_dataset):
        evaluator, weights = self.sanitized(small_mlp)
        loss, accuracy = evaluator.evaluate(weights, tabular_dataset)
        (key,) = evaluator._memo
        evaluator._memo[key] = (tabular_dataset, (loss, accuracy + 0.125))
        with pytest.raises(SanitizerViolation) as raised:
            evaluator.evaluate(weights, tabular_dataset)
        assert weights_fingerprint(weights) in str(raised.value)
        assert f"'{tabular_dataset.name}'" in str(raised.value)

    def test_a_repeated_nan_loss_is_not_a_violation(self):
        sanitizer = SimulationSanitizer()
        sanitizer.check_evaluation("f" * 64, "d", (float("nan"), 0.1), (float("nan"), 0.1))
        with pytest.raises(SanitizerViolation):
            sanitizer.check_evaluation("f" * 64, "d", (float("nan"), 0.1), (0.3, 0.1))
