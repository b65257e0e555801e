"""Tests for the single-silo federated-learning substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.partition import IIDPartitioner
from repro.fl.client import Client, ClientConfig, FitResult
from repro.fl.history import RoundMetrics, TrainingHistory
from repro.fl.server import FLServer
from repro.fl.strategy import FedAdagrad, FedAvg, FedYogi, build_strategy
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

    def test_evaluate_returns_metrics(self, fl_setup):
        model, clients, _ = fl_setup
        metrics = clients[0].evaluate(model.get_weights())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["num_samples"] == clients[0].num_samples

    def test_empty_partition_rejected(self, fl_setup, tabular_dataset):
        model, _, _ = fl_setup
        empty = tabular_dataset.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            Client("empty", model.clone(), empty)

    def test_evaluate_prefers_eval_data(self, fl_setup, tabular_dataset):
        model, _, _ = fl_setup
        eval_subset = tabular_dataset.subset(np.arange(10))
        client = Client("c", model.clone(), tabular_dataset, eval_data=eval_subset)
        metrics = client.evaluate(model.get_weights())
        assert metrics["num_samples"] == 10


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


class TestFLServer:
    def test_round_improves_accuracy(self, fl_setup):
        model, clients, dataset = fl_setup
        server = FLServer("s", model.get_weights(), clients, eval_data=dataset, eval_model=model.clone())
        initial = server.evaluate()["accuracy"]
        server.run(5, seed=0)
        assert server.history.final_accuracy > initial

    def test_history_length_matches_rounds(self, fl_setup):
        model, clients, dataset = fl_setup
        server = FLServer("s", model.get_weights(), clients, eval_data=dataset, eval_model=model.clone())
        server.run(3, seed=0)
        assert len(server.history) == 3
        assert server.current_round == 3

    def test_client_fraction_selects_subset(self, fl_setup):
        model, clients, dataset = fl_setup
        server = FLServer("s", model.get_weights(), clients, eval_data=dataset, eval_model=model.clone())
        metrics = server.run_round(client_fraction=0.34, rng=np.random.default_rng(0))
        assert metrics.num_clients == 1

    def test_invalid_fraction(self, fl_setup):
        model, clients, dataset = fl_setup
        server = FLServer("s", model.get_weights(), clients, eval_data=dataset, eval_model=model.clone())
        with pytest.raises(ValueError):
            server.run_round(client_fraction=0.0)

    def test_requires_clients(self, fl_setup):
        model, _, _ = fl_setup
        with pytest.raises(ValueError):
            FLServer("s", model.get_weights(), [])

    def test_evaluate_without_eval_data_uses_clients(self, fl_setup):
        model, clients, _ = fl_setup
        server = FLServer("s", model.get_weights(), clients)
        metrics = server.evaluate()
        assert 0.0 <= metrics["accuracy"] <= 1.0


class TestTrainingHistory:
    def test_final_and_best(self):
        history = TrainingHistory()
        for i, acc in enumerate([0.1, 0.5, 0.3]):
            history.record(RoundMetrics(round_number=i + 1, loss=1.0 - acc, accuracy=acc))
        assert history.final_accuracy == pytest.approx(0.3)
        assert history.best_accuracy == pytest.approx(0.5)
        assert history.final_loss == pytest.approx(0.7)

    def test_rounds_to_reach(self):
        history = TrainingHistory()
        for i, acc in enumerate([0.1, 0.4, 0.6]):
            history.record(RoundMetrics(round_number=i + 1, loss=0.0, accuracy=acc))
        assert history.rounds_to_reach(0.4) == 2
        assert history.rounds_to_reach(0.9) is None

    def test_empty_history(self):
        history = TrainingHistory()
        assert np.isnan(history.final_accuracy)
        assert np.isnan(history.best_accuracy)
        assert history.accuracies() == []
