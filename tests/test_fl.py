"""Tests for the single-silo federated-learning substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import SingleLevelFL
from repro.datasets.partition import IIDPartitioner
from repro.fl.client import Client, ClientConfig, FitResult
from repro.fl.strategy import FedAdagrad, FedAvg, FedYogi, build_strategy
from repro.ml.evaluation import Evaluator
from repro.ml.models import MLP
from repro.ml.tensor_utils import weights_allclose


@pytest.fixture()
def fl_setup(tabular_dataset):
    """Three clients over IID partitions of the tabular dataset, plus a template model."""
    model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
    parts = IIDPartitioner(3, seed=0).partition(tabular_dataset)
    config = ClientConfig(local_epochs=1, batch_size=16, learning_rate=0.05, seed=1)
    clients = [Client(f"c{i}", model.clone(), p, config=config) for i, p in enumerate(parts)]
    return model, clients, tabular_dataset


class TestClientConfig:
    def test_defaults_match_paper(self):
        config = ClientConfig()
        assert config.local_epochs == 2
        assert config.learning_rate == 0.01

    @pytest.mark.parametrize("field,value", [("local_epochs", 0), ("batch_size", 0), ("learning_rate", 0.0)])
    def test_invalid_values_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError):
            ClientConfig(**kwargs)


class TestClient:
    def test_fit_returns_all_fields(self, fl_setup):
        model, clients, _ = fl_setup
        result = clients[0].fit(model.get_weights())
        assert isinstance(result, FitResult)
        assert result.num_samples == clients[0].num_samples
        assert "train_loss" in result.metrics
        assert len(result.weights) == len(model.get_weights())

    def test_fit_changes_weights(self, fl_setup):
        model, clients, _ = fl_setup
        initial = model.get_weights()
        result = clients[0].fit(initial)
        assert not weights_allclose(initial, result.weights)

    def test_empty_partition_rejected(self, fl_setup, tabular_dataset):
        model, _, _ = fl_setup
        empty = tabular_dataset.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            Client("empty", model.clone(), empty)


class TestStrategies:
    def _make_results(self, base_weights, deltas, samples):
        results = []
        for i, (delta, n) in enumerate(zip(deltas, samples)):
            weights = [w + delta for w in base_weights]
            results.append(FitResult(client_id=f"c{i}", weights=weights, num_samples=n))
        return results

    def test_fedavg_weighted_mean(self):
        base = [np.zeros((2, 2))]
        results = self._make_results(base, deltas=[1.0, 3.0], samples=[1, 3])
        aggregated = FedAvg().aggregate(base, results)
        assert np.allclose(aggregated[0], 2.5)

    def test_fedavg_empty_results_keeps_weights(self):
        base = [np.ones((2, 2))]
        aggregated = FedAvg().aggregate(base, [])
        assert weights_allclose(aggregated, base)

    def test_fedavg_uniform_when_equal_samples(self):
        base = [np.zeros(3)]
        results = self._make_results(base, deltas=[2.0, 4.0], samples=[5, 5])
        aggregated = FedAvg().aggregate(base, results)
        assert np.allclose(aggregated[0], 3.0)

    def test_fedyogi_moves_towards_clients(self):
        base = [np.zeros(4)]
        results = self._make_results(base, deltas=[1.0], samples=[1])
        aggregated = FedYogi(learning_rate=0.1).aggregate(base, results)
        assert np.all(aggregated[0] > 0)

    def test_fedadagrad_moves_towards_clients(self):
        base = [np.zeros(4)]
        results = self._make_results(base, deltas=[1.0], samples=[1])
        aggregated = FedAdagrad(learning_rate=0.1).aggregate(base, results)
        assert np.all(aggregated[0] > 0)

    def test_server_opt_strategies_keep_state_across_rounds(self):
        strategy = FedYogi(learning_rate=0.1)
        weights = [np.zeros(2)]
        for _ in range(3):
            results = self._make_results(weights, deltas=[1.0], samples=[1])
            weights = strategy.aggregate(weights, results)
        assert np.all(weights[0] > 0)

    def test_aggregate_stream_weights_by_coefficient(self):
        current = [np.zeros(2)]
        pairs = [([np.full(2, 1.0)], 0.75), ([np.full(2, 3.0)], 0.25)]
        merged = FedAvg().aggregate_stream(current, pairs)
        assert np.allclose(merged[0], 1.5)

    @pytest.mark.parametrize("strategy", [FedAvg, FedYogi, FedAdagrad])
    def test_aggregate_is_aggregate_stream_over_sample_counts(self, strategy):
        base = [np.zeros((2, 3)), np.ones(4)]
        results = self._make_results(base, deltas=[0.3, -1.7, 2.2], samples=[4, 1, 9])
        pairs = [(r.weights, float(r.num_samples)) for r in results]
        via_results = strategy().aggregate(base, results)
        via_pairs = strategy().aggregate_stream(base, pairs)
        for got, want in zip(via_results, via_pairs):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("strategy", [FedAvg, FedYogi, FedAdagrad])
    def test_aggregate_stream_without_contributions_keeps_weights(self, strategy):
        base = [np.ones(3)]
        instance = strategy()
        assert weights_allclose(instance.aggregate_stream(base, iter(())), base)
        # No optimizer step either: a later round sees a fresh server state.
        results = self._make_results(base, deltas=[1.0], samples=[1])
        after_empty = instance.aggregate(base, results)
        fresh = strategy().aggregate(base, results)
        assert weights_allclose(after_empty, fresh, atol=0.0)

    def test_build_strategy(self):
        assert isinstance(build_strategy("fedavg"), FedAvg)
        assert isinstance(build_strategy("fedyogi"), FedYogi)
        assert isinstance(build_strategy("FedAdagrad"), FedAdagrad)
        with pytest.raises(ValueError):
            build_strategy("fedprox")


class TestSingleLevelFL:
    """The flat federation runs the silo round ``strategy.aggregate(w, [c.fit(w) ...])``."""

    def test_rounds_improve_accuracy(self, fl_setup):
        model, clients, dataset = fl_setup
        evaluator = Evaluator(model)
        _, initial = evaluator.evaluate(model.get_weights(), dataset)
        result = SingleLevelFL(clients, model.get_weights(), evaluator, dataset).run(5)
        assert result.global_accuracy > initial

    def test_history_length_matches_rounds(self, fl_setup):
        model, clients, dataset = fl_setup
        result = SingleLevelFL(clients, model.get_weights(), Evaluator(model), dataset).run(3)
        assert len(result.global_accuracy_history) == 3
        assert result.clusters[0].accuracy_history == result.global_accuracy_history
        assert result.global_accuracy == result.global_accuracy_history[-1]

    def test_scores_each_round_once_through_the_evaluator(self, fl_setup):
        model, clients, dataset = fl_setup
        evaluator = Evaluator(model)
        SingleLevelFL(clients, model.get_weights(), evaluator, dataset).run(3)
        assert evaluator.calls == 3

    def test_invalid_rounds(self, fl_setup):
        model, clients, dataset = fl_setup
        federation = SingleLevelFL(clients, model.get_weights(), Evaluator(model), dataset)
        with pytest.raises(ValueError):
            federation.run(0)

    def test_requires_clients(self, fl_setup):
        model, _, dataset = fl_setup
        federation = SingleLevelFL([], model.get_weights(), Evaluator(model), dataset)
        with pytest.raises(ValueError):
            federation.run(1)
