"""Tests for the run's one training network.

``Client.fit`` installs the global weights first and reads the trained ones
out last, so a network carries nothing from one fit to the next and every
client an :class:`~repro.core.runner.ExperimentRunner` builds takes its turn
on one ``training_model``.  That sharing must be invisible — every result
equals what a private clone per client produces — the counters must be exact
(two ``clone`` calls per runner, none per cluster), and a network that *does*
carry state must trip the sanitizer's replay oracle.
"""

from __future__ import annotations

import dataclasses
import gc
import types

import numpy as np
import pytest
from _memory import retained_cache_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SanitizerViolation, SimulationSanitizer
from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
from repro.core.reporting import result_to_dict
from repro.core.runner import ExperimentRunner
from repro.fl.client import Client, ClientConfig, FitResult
from repro.ml.layers import Conv2d, Dropout, Layer
from repro.ml.models import Model, SimpleCNN


ALL_MODES = ("sync", "async", "semi", "hierarchical", "gossip")


def dense_config(mode: str = "sync", clusters: int = 4, clients: int = 3, dp: bool = False, **overrides):
    cluster_configs = gpu_cluster_configs(num_clusters=clusters, num_clients=clients)
    if dp:
        cluster_configs = [
            dataclasses.replace(c, dp_clip_norm=1.0, dp_noise_multiplier=0.5)
            for c in cluster_configs
        ]
    kwargs = dict(
        name=f"shared-training-{mode}",
        workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
        clusters=cluster_configs,
        mode=mode,
        rounds=2,
        seed=0,
        storage_replicas=2,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def sampled_config(mode: str = "sync", **overrides):
    return dense_config(
        mode, clusters=3, clients=2, population=1000, clients_per_round=8, **overrides
    )


def with_private_networks(runner: ExperimentRunner) -> ExperimentRunner:
    """The parent's arrangement: every client built from now on — dense,
    virtual or baseline — trains on its own clone of the template."""
    build_clients = runner._build_clients

    def private_clients(*args, **kwargs):
        clients = build_clients(*args, **kwargs)
        for client in clients:
            client.model = runner.model_template.clone()
        return clients

    runner._build_clients = private_clients
    return runner


def same_tensors(first, second) -> bool:
    """Equal in count, dtype, shape and bytes."""
    return len(first) == len(second) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(first, second)
    )


def same_fit(first: FitResult, second: FitResult) -> bool:
    """Equal weights byte for byte and equal metrics (NaN equals NaN)."""
    return (
        same_tensors(first.weights, second.weights)
        and first.num_samples == second.num_samples
        and first.metrics.keys() == second.metrics.keys()
        and all(
            a == b or (a != a and b != b)
            for a, b in ((first.metrics[k], second.metrics[k]) for k in first.metrics)
        )
    )


@pytest.fixture()
def clone_calls(monkeypatch):
    """Every ``Model.clone`` call made while the test runs, counted from outside."""
    calls = []
    clone = Model.clone

    def counting_clone(self):
        calls.append(self)
        return clone(self)

    monkeypatch.setattr(Model, "clone", counting_clone)
    return calls


# ------------------------------------------------------------ exact counters
class TestOneNetworkPerRun:
    @pytest.mark.parametrize(
        "config",
        [
            dense_config(),
            dense_config(
                clusters=40,
                clients=1,
                workload=cifar10_workload(rounds=1, samples_per_class=24, image_size=8),
                rounds=1,
            ),
            sampled_config(),
        ],
        ids=["4x3", "40x1", "sampled"],
    )
    def test_a_runner_clones_the_template_twice(self, config, clone_calls):
        runner = ExperimentRunner(config)
        assert len(clone_calls) == 2
        assert all(source is runner.model_template for source in clone_calls)
        runner.run()
        # Nothing after construction — no cluster, dense or materialised
        # mid-run (tests/test_evaluation.py counts one such materialisation
        # on its own), and no round — builds another network.
        assert len(clone_calls) == 2
        clients = [client for a in runner.aggregators for client in a.clients]
        assert len(clients) == sum(a.config.num_clients for a in runner.aggregators)
        assert all(client.model is runner.training_model for client in clients)

    def test_baseline_clients_train_on_the_same_network(self, clone_calls):
        runner = ExperimentRunner(dense_config())
        runner.build()
        baseline_clients = runner._baseline_clients()
        assert len(clone_calls) == 2
        assert sorted(baseline_clients) == sorted(a.name for a in runner.aggregators)
        for clients in baseline_clients.values():
            assert all(client.model is runner.training_model for client in clients)

    def test_the_training_network_is_neither_the_template_nor_the_evaluators(self):
        runner = ExperimentRunner(dense_config())
        networks = [runner.model_template, runner.training_model, runner.evaluator._model]
        assert len({id(model) for model in networks}) == 3
        assert len({id(p) for model in networks for p in model.network.parameters()}) == 3 * len(
            runner.model_template.network.parameters()
        )

    def test_runners_share_no_network_and_a_rerun_is_equal(self):
        first_runner = ExperimentRunner(sampled_config())
        second_runner = ExperimentRunner(sampled_config())
        assert first_runner.training_model is not second_runner.training_model
        first = first_runner.run()
        # The first run trained on its own network only.
        assert same_tensors(
            second_runner.training_model.get_weights(), second_runner.model_template.get_weights()
        )
        second = second_runner.run()
        assert result_to_dict(first) == result_to_dict(second)
        assert all(
            client.model is second_runner.training_model
            for a in second_runner.aggregators
            for client in a.clients
        )


# ------------------------------------------------- equivalence: private clones
class TestARunIsTheSameOnPrivateClones:
    @staticmethod
    def shared_and_private(config):
        shared_runner = ExperimentRunner(config)
        private_runner = with_private_networks(ExperimentRunner(config))
        shared, private = shared_runner.run(), private_runner.run()
        models = {
            id(client.model) for a in private_runner.aggregators for client in a.clients
        }
        # The control really is the old arrangement: one network per client.
        assert len(models) == sum(len(a.clients) for a in private_runner.aggregators) > 1
        return result_to_dict(shared), result_to_dict(private)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_in_every_mode(self, mode):
        shared, private = self.shared_and_private(dense_config(mode))
        assert shared == private

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_sampled(self, mode):
        shared, private = self.shared_and_private(sampled_config(mode))
        assert shared == private
        assert shared["sampling"]["materialized_clusters"] > 8

    def test_under_churn(self):
        shared, private = self.shared_and_private(
            dense_config("async", clusters=6, clients=2, churn_rate=0.2)
        )
        assert shared == private

    def test_with_differential_privacy(self):
        shared, private = self.shared_and_private(dense_config(clusters=3, clients=2, dp=True))
        assert shared == private

    def test_with_one_private_cluster_among_plain_ones(self):
        config = dense_config(clusters=3, clients=2)
        private_cluster = dataclasses.replace(config.clusters[0], dp_clip_norm=5.0, dp_noise_multiplier=0.05)
        config = dataclasses.replace(config, clusters=[private_cluster] + config.clusters[1:])
        shared, private = self.shared_and_private(config)
        assert shared == private
        assert len(shared["aggregators"]) == 3
        assert all(len(a["history"]) == 2 for a in shared["aggregators"])

    @pytest.mark.parametrize(
        "baseline",
        ["run_no_collab_baseline", "run_centralized_baseline", "run_single_level_baseline"],
    )
    def test_the_baselines(self, baseline):
        config = dense_config(clusters=3, clients=2)
        shared = getattr(ExperimentRunner(config), baseline)()
        private = getattr(with_private_networks(ExperimentRunner(config)), baseline)()
        assert dataclasses.asdict(shared) == dataclasses.asdict(private)


# ----------------------------------------------------- property: interleavings
def build_clients(template: Model, shared: Model, data, sizes, momentum: float):
    """One client per partition size, twice: all on ``shared``, and each on
    its own clone of ``template``.  Partitions are disjoint slices of ``data``."""
    groups = ([], [])
    start = 0
    for index, size in enumerate(sizes):
        partition = data.subset(np.arange(start, start + size))
        start += size
        config = ClientConfig(
            local_epochs=2, batch_size=5, learning_rate=0.05, momentum=momentum, seed=index
        )
        for group, model in zip(groups, (shared, template.clone())):
            group.append(Client(f"client{index}", model, partition, config=config))
    return groups


class TestAnyInterleavingOnOneNetwork:
    # Partition sizes 1-13 at batch 5: sizes 1, 6 and 11 end an epoch on a
    # minibatch of one, the im2col layout the kernels treat separately.
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 13), min_size=1, max_size=4),
        order=st.lists(st.integers(0, 3), min_size=1, max_size=10),
        momentum=st.sampled_from([0.0, 0.9]),
    )
    def test_each_fit_equals_the_fit_on_a_private_clone(
        self, tiny_image_dataset, sizes, order, momentum
    ):
        train, _ = tiny_image_dataset
        template = SimpleCNN(image_size=8, conv_channels=(4, 8), hidden_dim=16, seed=0)
        shared_clients, private_clients = build_clients(
            template, template.clone(), train, sizes, momentum
        )
        weights = template.get_weights()
        for turn in order:
            index = turn % len(sizes)
            on_shared = shared_clients[index].fit(weights)
            on_private = private_clients[index].fit(weights)
            assert same_fit(on_shared, on_private)
            # The next fit starts from what this one trained, as rounds do.
            weights = on_shared.weights

    def test_a_twin_replays_the_fit_and_leaves_the_client_alone(self, tiny_image_dataset):
        train, _ = tiny_image_dataset
        template = SimpleCNN(image_size=8, conv_channels=(4, 8), hidden_dim=16, seed=0)
        config = ClientConfig(
            batch_size=5, momentum=0.9, seed=3, dp_clip_norm=1.0, dp_noise_multiplier=0.5
        )
        partition = train.subset(np.arange(11))
        client = Client("c", template.clone(), partition, config=config)
        control = Client("c", template.clone(), partition, config=config)
        weights = template.get_weights()
        for _ in range(2):  # the second fit starts from advanced state
            twin = client.private_twin(template.clone())
            assert twin.model is not client.model and twin.train_data is client.train_data
            replayed = twin.fit(weights)
            assert same_fit(replayed, twin.fit(weights)) is False  # the twin's own state moved
            reported = client.fit(weights)
            assert same_fit(reported, replayed)
            assert same_fit(reported, control.fit(weights))


# ------------------------------------------------------------------ retention
def reachable_from(root, stop) -> list:
    """Objects reachable from ``root`` through references, not entering
    ``stop`` objects, classes, modules or functions."""
    seen = {id(obj): obj for obj in stop}
    found, stack = [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
        ):
            continue
        seen[id(obj)] = obj
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestAMaterialisedClusterRetainsNoNetwork:
    def test_after_a_sampled_run(self):
        runner = ExperimentRunner(sampled_config())
        runner.run()
        assert runner.population.materialized_count > 8

        networks = {}
        for aggregator in runner.aggregators:
            for model in (aggregator.model_template, aggregator.evaluator._model):
                networks[id(model.network)] = model.network
            for client in aggregator.clients:
                networks[id(client.model.network)] = client.model.network
        assert len(networks) == 3

        # What one minibatch leaves behind in a network of this shape.
        batch = runner.train_data.subset(np.arange(runner.config.workload.batch_size))
        probe = runner.model_template.clone()
        Client("probe", probe, batch, config=ClientConfig(local_epochs=1, batch_size=len(batch))).fit(
            probe.get_weights()
        )
        one_minibatch = retained_cache_bytes(probe.network)
        assert 0 < sum(retained_cache_bytes(n) for n in networks.values()) <= one_minibatch

        for aggregator in runner.aggregators:
            for client in aggregator.clients:
                held = reachable_from(client, stop=[runner.training_model])
                assert not any(isinstance(obj, (Layer, Model)) for obj in held)
                assert any(obj is client.train_data for obj in held)
        # ... and through the shared object, they all reach the same layers.
        assert any(isinstance(layer, Conv2d) for layer in runner.training_model.network.layers)


# ------------------------------------------------------------------ sanitizer
class LeakyLayer(Layer):
    """Adds the mean of its previous input to the next one: state that a
    fresh clone does not have."""

    def __init__(self) -> None:
        super().__init__()
        self._carry = 0.0

    def forward(self, x):
        out = x + self._carry
        self._carry = float(x.mean())
        return out

    def backward(self, grad_output):
        return grad_output


@pytest.fixture()
def fit_calls(monkeypatch):
    """The ``client_id`` of every ``Client.fit`` call made while the test runs."""
    fits = []
    fit = Client.fit

    def counting_fit(self, global_weights):
        fits.append(self.client_id)
        return fit(self, global_weights)

    monkeypatch.setattr(Client, "fit", counting_fit)
    return fits


class TestSanitizerReplaysEveryFit:
    @pytest.mark.parametrize(
        "config",
        [
            dense_config("sync", clusters=3, clients=2),
            dense_config("async", clusters=3, clients=2),
            sampled_config("sync"),
            dense_config(clusters=3, clients=2, dp=True),
        ],
        ids=["sync", "async", "sampled", "dp"],
    )
    def test_an_honest_run_is_unchanged_and_every_fit_is_checked(self, config, fit_calls):
        plain = ExperimentRunner(config).run()
        issued = len(fit_calls)
        assert issued > 0

        sanitized_runner = ExperimentRunner(dataclasses.replace(config, sanitize=True))
        sanitized = sanitized_runner.run()
        assert result_to_dict(sanitized) == result_to_dict(plain)
        assert sanitized_runner.sanitizer.checks["shared_training"] == issued
        # Each check cost one more fit, on a network of its own.
        assert len(fit_calls) == 3 * issued

    @pytest.mark.parametrize(
        "baseline",
        ["run_no_collab_baseline", "run_centralized_baseline", "run_single_level_baseline"],
    )
    def test_a_baseline_is_unchanged_and_every_fit_is_checked(self, baseline, fit_calls):
        config = dense_config(clusters=3, clients=2)
        plain = getattr(ExperimentRunner(config), baseline)()
        issued = len(fit_calls)
        assert issued > 0

        sanitized_runner = ExperimentRunner(dataclasses.replace(config, sanitize=True))
        sanitized = getattr(sanitized_runner, baseline)()
        assert dataclasses.asdict(sanitized) == dataclasses.asdict(plain)
        assert sanitized_runner.sanitizer.checks["shared_training"] == issued
        assert len(fit_calls) == 3 * issued

    @staticmethod
    def runner_with(layer: Layer) -> ExperimentRunner:
        """A sanitized runner whose networks all carry ``layer`` before the head."""
        runner = ExperimentRunner(dense_config(clusters=2, clients=2, sanitize=True))
        runner.model_template.network.layers.insert(-1, layer)
        runner.training_model = runner.model_template.clone()
        return runner

    @pytest.mark.parametrize(
        "layer", [Dropout(0.5, rng=np.random.default_rng(3)), LeakyLayer()], ids=["dropout", "leaky"]
    )
    def test_a_network_that_carries_state_between_fits_raises(self, layer):
        runner = self.runner_with(layer)
        with pytest.raises(SanitizerViolation) as raised:
            runner.run()
        # The first fit of the run starts where a fresh clone starts; the
        # second client is the first to inherit what the first left behind.
        assert "agg1-client1" in str(raised.value)
        assert runner.sanitizer.checks["shared_training"] == 2

    @pytest.mark.parametrize(
        "baseline",
        ["run_no_collab_baseline", "run_centralized_baseline", "run_single_level_baseline"],
    )
    def test_a_baseline_on_a_network_that_carries_state_raises(self, baseline):
        runner = self.runner_with(LeakyLayer())
        with pytest.raises(SanitizerViolation, match="agg1-client1"):
            getattr(runner, baseline)()
        assert runner.sanitizer.checks["shared_training"] == 2

    def test_the_same_network_goes_unnoticed_without_the_sanitizer(self):
        # ... which is why the oracle exists: nothing else would say.
        runner = ExperimentRunner(dense_config(clusters=2, clients=2))
        runner.model_template.network.layers.insert(-1, LeakyLayer())
        runner.training_model = runner.model_template.clone()
        shared = result_to_dict(runner.run())
        private_runner = with_private_networks(ExperimentRunner(dense_config(clusters=2, clients=2)))
        private_runner.model_template.network.layers.insert(-1, LeakyLayer())
        assert shared != result_to_dict(private_runner.run())

    def test_the_check_compares_bytes_and_metrics(self):
        sanitizer = SimulationSanitizer()
        weights = [np.arange(6.0).reshape(2, 3), np.zeros(3)]

        def fit(weights=weights, **metrics):
            return FitResult("agg7-client2", [w.copy() for w in weights], 5, metrics)

        sanitizer.check_shared_training(fit(train_loss=0.5), fit(train_loss=0.5))
        sanitizer.check_shared_training(fit(train_loss=float("nan")), fit(train_loss=float("nan")))
        assert sanitizer.checks["shared_training"] == 2
        moved = [weights[0], weights[1] + 1e-16 + np.finfo(float).tiny]
        for replayed in (
            fit(moved, train_loss=0.5),
            fit(weights[:1], train_loss=0.5),
            fit([weights[0].astype(np.float32), weights[1]], train_loss=0.5),
            fit(train_loss=0.5000000000000001),
            fit(train_loss=0.5, dp_epsilon_spent=1.0),
        ):
            with pytest.raises(SanitizerViolation, match="agg7-client2"):
                sanitizer.check_shared_training(fit(train_loss=0.5), replayed)
