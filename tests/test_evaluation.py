"""Tests for the run-wide evaluator (:mod:`repro.ml.evaluation`).

The memo must be invisible: whatever the order, repetition and eviction
pattern of the requests, every answer equals what a fresh clone of the model
template computes directly.  The counters must be exact: the model is run
once per distinct (weights, dataset) pair and never otherwise.  The
evaluation plan, the fused ReLU→pool forward and the value-only loss must be
invisible too: bit for bit what every layer's own forward and the loss with
its gradient give.
"""

from __future__ import annotations

import dataclasses
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
from repro.ml.layers import Conv2d, Dense, Flatten, MaxPool2d, Sequential
from repro.ml.losses import CrossEntropyLoss
from repro.ml.models import MLP, MiniVGG, Model, SimpleCNN
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


def dense_config(mode: str) -> ExperimentConfig:
    """Three clusters scoring each other's models by accuracy."""
    return sampled_config(
        mode, population=None, clients_per_round=None, scoring_algorithm="accuracy"
    )


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

        def recording_evaluator_evaluate(self, weights, data, cid=None):
            requested.append(content_key(weights, data.x))
            return evaluator_evaluate(self, weights, data, cid)

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


# ------------------------------------------------------------ planned evaluation
def conv_then_pool(seed: int) -> Model:
    """A pool straight after a convolution: no ReLU to fuse, the scanned path."""
    rng = np.random.default_rng(seed)
    network = Sequential(
        [Conv2d(3, 4, 3, padding=1, rng=rng), MaxPool2d(2), Flatten(), Dense(4 * 4 * 4, 10, rng=rng)]
    )
    return Model(network, 10, (3, 8, 8))


PLAN_MODELS = {
    "simple_cnn": lambda seed: SimpleCNN(
        image_size=8, conv_channels=(4, 8), hidden_dim=16, seed=seed
    ),
    # ReLU -> Conv -> ReLU -> Pool, and a dropout the evaluation must skip.
    "mini_vgg": lambda seed: MiniVGG(
        image_size=8, num_classes=10, base_channels=4, hidden_dim=16, dropout=0.25, seed=seed
    ),
    # The first layer is not a convolution: the plan holds no columns.
    "mlp": lambda seed: MLP(input_dim=12, hidden_dims=(16,), num_classes=10, seed=seed),
    "conv_then_pool": conv_then_pool,
}


def layer_by_layer(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits from every layer's own evaluation-mode forward: no plan, no
    ReLU→pool fusion."""
    network = model.network
    network.eval()
    for layer in network.layers:
        x = layer.forward(x)
    return x


def evaluate_reference(model: Model, x, y, batch_size: int = 256):
    """``Model.evaluate`` as it was: layer by layer, the loss from ``forward``."""
    total_loss, correct = 0.0, 0
    for start in range(0, len(x), batch_size):
        xb, yb = x[start : start + batch_size], y[start : start + batch_size]
        logits = layer_by_layer(model, xb)
        loss, _ = CrossEntropyLoss().forward(logits, yb)
        total_loss += loss * len(xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return total_loss / len(x), correct / len(x)


def bits(values) -> list:
    return [int(np.array(v, dtype=np.float64).view(np.int64)) for v in values]


class TestPlannedEvaluationIsInvisible:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(PLAN_MODELS)),
        n=st.sampled_from([1, 2, 5, 255, 256, 257, 300]),
        specials=st.lists(
            st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, -0.0]), max_size=12
        ),
        seed=st.integers(0, 2**16),
    )
    def test_equals_a_plan_free_evaluation_bit_for_bit(self, name, n, specials, seed):
        rng = np.random.default_rng(seed)
        model = PLAN_MODELS[name](seed % 7)
        model.set_weights(random_weights(model, seed))
        x = rng.normal(0.0, 1.0, size=(n,) + model.input_shape)
        x.flat[rng.integers(0, x.size, len(specials))] = specials
        y = rng.integers(0, 10, size=n)

        plan = model.evaluation_plan(x, y)
        assert (plan.geometry is None) == (name == "mlp")
        assert len(plan.batches) == -(-n // 256)
        first = model.network.layers[0]
        for start, batch in zip(range(0, n, 256), plan.batches):
            xb = x[start : start + 256]
            want = xb if plan.geometry is None else first.columns(xb)[0]
            # Layout too: BLAS sums a single image's transposed columns in
            # another order than a C-contiguous copy of them.
            assert batch.inputs.strides == want.strides
            assert np.array_equal(batch.inputs.view(np.int64), want.view(np.int64))
        with np.errstate(all="ignore"):
            planned = model.evaluate(x, y, plan=plan)
            plan_free = model.clone().evaluate(x, y)
            reference = evaluate_reference(model.clone(), x, y)
            logits = model.predict(x)
            reference_logits = layer_by_layer(model.clone(), x)
        assert bits(planned) == bits(plan_free) == bits(reference)
        assert np.array_equal(logits.view(np.int64), reference_logits.view(np.int64))
        assert model.network.training  # evaluate and predict restore the mode

    def test_a_plan_is_bound_to_its_set_batch_size_and_first_layer(self, tiny_image_dataset):
        train, _ = tiny_image_dataset
        model = SimpleCNN(image_size=8, seed=0)
        plan = model.evaluation_plan(train.x, train.y, batch_size=64)
        with pytest.raises(ValueError, match="another set or batch size"):
            model.evaluate(train.x, train.y, plan=plan)
        with pytest.raises(ValueError, match="another set or batch size"):
            model.evaluate(train.x[:10], train.y[:10], batch_size=64, plan=plan)
        with pytest.raises(ValueError, match="another first layer"):
            wider = Model(
                Sequential([Conv2d(3, 6, 5, padding=2), Flatten(), Dense(6 * 64, 10)]), 10, (3, 8, 8)
            )
            wider.evaluate(train.x, train.y, batch_size=64, plan=plan)
        with pytest.raises(ValueError, match="default cross-entropy"):
            model.evaluate(train.x, train.y, batch_size=64, loss_fn=CrossEntropyLoss(), plan=plan)

    def test_plan_rejects_what_the_loss_rejects(self, tiny_image_dataset):
        train, _ = tiny_image_dataset
        model = SimpleCNN(image_size=8, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            model.evaluation_plan(train.x, -train.y)
        too_large = model.evaluation_plan(train.x, train.y + 10)
        with pytest.raises(ValueError, match="out of range"):
            model.evaluate(train.x, train.y + 10, plan=too_large)
        with pytest.raises(ValueError):
            model.evaluation_plan(train.x, train.y[:-1])


class TestEvaluatorPlans:
    def test_plans_are_kept_for_the_two_latest_datasets(self, tiny_image_dataset):
        train, test = tiny_image_dataset
        third = test.subset(np.arange(5))
        template = SimpleCNN(image_size=8, seed=0)
        evaluator = Evaluator(template)
        built = []
        evaluation_plan = Model.evaluation_plan

        def counting_plan(self, x, y, batch_size=256):
            built.append(len(x))
            return evaluation_plan(self, x, y, batch_size)

        with mock.patch.object(Model, "evaluation_plan", counting_plan):
            for seed, data in enumerate([train, test, train, third, test, third]):
                weights = random_weights(template, seed)
                assert evaluator.evaluate(weights, data) == direct(template, weights, data)
        assert built == [len(train), len(test), len(third), len(test)]
        assert [held for held, _ in evaluator._plans.values()] == [test, third]
        assert not evaluator._model.network.training

    def test_plans_are_built_inside_run_not_build(self):
        runner = ExperimentRunner(sampled_config("sync"))
        runner.build()
        assert not runner.evaluator._plans
        runner.run()
        assert 0 < len(runner.evaluator._plans) <= 2

    def test_a_cid_stands_for_the_weights_first_evaluated_under_it(self, small_mlp, tabular_dataset):
        weights = small_mlp.get_weights()
        evaluator = Evaluator(small_mlp)
        first = evaluator.evaluate(weights, tabular_dataset)
        with mock.patch.object(evaluation, "weights_fingerprint") as fingerprint:
            fingerprint.return_value = weights_fingerprint(weights)
            assert evaluator.evaluate(weights, tabular_dataset, cid="Qm1") == first
            assert evaluator.evaluate(weights, tabular_dataset, cid="Qm1") == first
        # Hashed once for the CID's first request; the key stays the
        # fingerprint, so the request with and the one without a CID share it.
        assert fingerprint.call_count == 1
        assert (evaluator.calls, evaluator.hits) == (3, 2)

    def test_scorers_fingerprint_each_fetched_model_once(self, monkeypatch):
        fingerprinted = []
        requests = []
        evaluate = Evaluator.evaluate

        def recording_evaluate(self, weights, data, cid=None):
            requests.append(cid)
            return evaluate(self, weights, data, cid)

        def counting_fingerprint(weights):
            fingerprinted.append(None)
            return weights_fingerprint(weights)

        monkeypatch.setattr(Evaluator, "evaluate", recording_evaluate)
        monkeypatch.setattr(evaluation, "weights_fingerprint", counting_fingerprint)
        config = dense_config("sync")
        ExperimentRunner(config).run()
        cids = [cid for cid in requests if cid is not None]
        assert len(cids) > len(set(cids)) > 0
        assert len(fingerprinted) == requests.count(None) + len(set(cids))

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_only_the_global_model_is_evaluated_without_a_cid(self, mode, monkeypatch):
        # Each round record evaluates the global model, which is never
        # published, and the local model, which is evaluated under its CID
        # unless the cluster straggled and has not submitted it yet.
        cidless = []
        fingerprint = Evaluator._fingerprint

        def recording_fingerprint(self, weights, cid):
            if cid is None:
                cidless.append(None)
            return fingerprint(self, weights, cid)

        monkeypatch.setattr(Evaluator, "_fingerprint", recording_fingerprint)
        result = ExperimentRunner(dense_config(mode)).run()
        history = [r for aggregator in result.aggregators for r in aggregator.history]
        assert history and not any(r.offline for r in history)
        assert len(cidless) == len(history) + sum(r.straggled for r in history)


class TestSanitizerChecksThePlanAndTheCid:
    def test_every_planned_evaluation_is_recomputed_without_the_plan(self, tiny_image_dataset):
        train, test = tiny_image_dataset
        template = SimpleCNN(image_size=8, seed=0)
        evaluator = Evaluator(template)
        evaluator.sanitizer = SimulationSanitizer()
        for seed, data in enumerate([train, test, train]):
            evaluator.evaluate(random_weights(template, seed), data)
        evaluator.evaluate(random_weights(template, 0), train)
        assert evaluator.sanitizer.checks["evaluation_plan"] == 3
        assert evaluator.sanitizer.checks["evaluation"] == 1

    def test_a_corrupted_plan_raises(self, tiny_image_dataset):
        train, _ = tiny_image_dataset
        template = SimpleCNN(image_size=8, seed=0)
        evaluator = Evaluator(template)
        evaluator.sanitizer = SimulationSanitizer()
        evaluator.evaluate(random_weights(template, 0), train)
        ((_, plan),) = evaluator._plans.values()
        plan.batches[0].inputs[0] += 1.0
        with pytest.raises(SanitizerViolation, match="held plan") as raised:
            evaluator.evaluate(random_weights(template, 1), train)
        assert f"'{train.name}'" in str(raised.value)

    def test_a_cid_that_names_two_fingerprints_raises(self, small_mlp, tabular_dataset):
        evaluator = Evaluator(small_mlp)
        evaluator.sanitizer = SimulationSanitizer()
        first = random_weights(small_mlp, 1)
        evaluator.evaluate(first, tabular_dataset, cid="QmX")
        evaluator.evaluate(first, tabular_dataset, cid="QmX")
        assert evaluator.sanitizer.checks["evaluation_cid"] == 1
        with pytest.raises(SanitizerViolation, match="QmX") as raised:
            evaluator.evaluate(random_weights(small_mlp, 2), tabular_dataset, cid="QmX")
        assert weights_fingerprint(first) in str(raised.value)

    def test_a_sanitized_dense_run_checks_every_computed_evaluation(self):
        config = dense_config("async")
        plain = ExperimentRunner(config)
        plain_result = plain.run()
        sanitized = ExperimentRunner(dataclasses.replace(config, sanitize=True))
        sanitized_result = sanitized.run()
        assert result_to_dict(plain_result) == result_to_dict(sanitized_result)
        evaluator, checks = sanitized.evaluator, sanitized.sanitizer.checks
        assert checks["evaluation_plan"] == evaluator.calls - evaluator.hits > 0
        assert checks["evaluation"] == evaluator.hits
        assert checks["evaluation_cid"] > 0
