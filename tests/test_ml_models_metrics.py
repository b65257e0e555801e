"""Tests for model containers, the registry and evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from _memory import retained_cache_bytes

from repro.ml.metrics import accuracy_score, top_k_accuracy
from repro.ml.models import MLP, MiniVGG, SimpleCNN, available_models, build_model, count_parameters
from repro.ml.optim import SGD


class TestMLP:
    def test_training_reduces_loss(self, tabular_dataset):
        model = MLP(input_dim=10, hidden_dims=(16,), num_classes=3, seed=0)
        losses = model.fit(
            tabular_dataset.x,
            tabular_dataset.y,
            epochs=5,
            batch_size=32,
            optimizer=SGD(learning_rate=0.05),
            rng=np.random.default_rng(0),
        )
        assert losses[-1] < losses[0]

    def test_learns_separable_data(self, tabular_dataset):
        model = MLP(input_dim=10, hidden_dims=(32,), num_classes=3, seed=1)
        model.fit(
            tabular_dataset.x,
            tabular_dataset.y,
            epochs=20,
            batch_size=32,
            optimizer=SGD(learning_rate=0.1),
            rng=np.random.default_rng(1),
        )
        _, accuracy = model.evaluate(tabular_dataset.x, tabular_dataset.y)
        assert accuracy > 0.8

    def test_clone_copies_weights(self):
        model = MLP(input_dim=4, num_classes=2, seed=0)
        clone = model.clone()
        for a, b in zip(model.get_weights(), clone.get_weights()):
            assert np.allclose(a, b)

    def test_clone_is_independent(self):
        model = MLP(input_dim=4, num_classes=2, seed=0)
        clone = model.clone()
        clone.set_weights([np.zeros_like(w) for w in clone.get_weights()])
        assert not all(np.allclose(a, 0) for a in model.get_weights())

    def test_fit_rejects_mismatched_xy(self):
        model = MLP(input_dim=4, num_classes=2, seed=0)
        with pytest.raises(ValueError):
            model.fit(np.zeros((3, 4)), np.zeros(2, dtype=int))

    def test_evaluate_empty_raises(self):
        model = MLP(input_dim=4, num_classes=2, seed=0)
        with pytest.raises(ValueError):
            model.evaluate(np.zeros((0, 4)), np.zeros(0, dtype=int))


class TestCNNModels:
    def test_simple_cnn_forward_shape(self, small_cnn, tiny_image_dataset):
        train, _ = tiny_image_dataset
        logits = small_cnn.predict(train.x[:4])
        assert logits.shape == (4, 10)

    def test_simple_cnn_weight_round_trip(self, small_cnn):
        weights = small_cnn.get_weights()
        small_cnn.set_weights([np.zeros_like(w) for w in weights])
        small_cnn.set_weights(weights)
        for a, b in zip(small_cnn.get_weights(), weights):
            assert np.allclose(a, b)

    def test_set_weights_shape_mismatch(self, small_cnn):
        weights = small_cnn.get_weights()
        weights[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            small_cnn.set_weights(weights)

    def test_simple_cnn_learns(self, tiny_image_dataset):
        train, test = tiny_image_dataset
        model = SimpleCNN(image_size=8, num_classes=10, conv_channels=(6, 12), hidden_dim=32, seed=0)
        model.fit(train.x, train.y, epochs=6, batch_size=16, optimizer=SGD(0.05, momentum=0.9), rng=np.random.default_rng(0))
        _, accuracy = model.evaluate(test.x, test.y)
        assert accuracy > 0.5

    def test_mini_vgg_shapes_and_params(self):
        model = MiniVGG(image_size=16, num_classes=20, base_channels=4, hidden_dim=32, seed=0)
        assert model.num_parameters() > 1000
        out = model.predict(np.random.default_rng(0).normal(size=(2, 3, 16, 16)))
        assert out.shape == (2, 20)

    def test_mini_vgg_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            MiniVGG(image_size=2, num_classes=10)

    def test_clones_of_a_dropout_model_train_alike(self, tiny_image_dataset):
        # A clone is a function of its source: the copies' Dropout generators
        # start where the source's stands, not on OS entropy.
        train, _ = tiny_image_dataset
        model = MiniVGG(image_size=8, num_classes=10, dropout=0.5, seed=0)
        before = model.get_weights()
        trained = []
        for clone in (model.clone(), model.clone()):
            clone.fit(train.x[:20], train.y[:20], epochs=2, batch_size=5, rng=np.random.default_rng(1))
            trained.append(clone.get_weights())
        assert all(np.array_equal(a, b) for a, b in zip(*trained))
        assert not all(np.array_equal(a, b) for a, b in zip(before, trained[0]))
        # The source did not move while its clones trained.
        assert all(np.array_equal(a, b) for a, b in zip(before, model.get_weights()))

    def test_simple_cnn_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            SimpleCNN(image_size=2, num_classes=10)


class TestEvaluationRetainsNothing:
    """Evaluation mode keeps no forward cache; training mode keeps what backward needs."""

    @pytest.fixture()
    def batch(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(100, 3, 8, 8)), rng.integers(0, 10, size=100)

    @pytest.mark.parametrize(
        "build",
        [lambda: SimpleCNN(image_size=8, seed=0), lambda: MiniVGG(image_size=8, num_classes=10, seed=0)],
        ids=["simple_cnn", "mini_vgg"],
    )
    def test_no_array_survives_evaluate_or_predict(self, build, batch):
        # The im2col / argmax / mask buffers of this one batch were 2.75 MiB
        # per SimpleCNN, against 46 KB of weights.
        x, y = batch
        model = build()
        model.train_batch(x[:5], y[:5], SGD(0.05))
        assert retained_cache_bytes(model.network) > 0
        model.evaluate(x, y)
        assert retained_cache_bytes(model.network) == 0
        model.train_batch(x[:5], y[:5], SGD(0.05))
        model.predict(x)
        assert retained_cache_bytes(model.network) == 0

    def test_index_tables_are_excluded_by_name_and_nothing_else_is(self, batch):
        x, y = batch
        model = SimpleCNN(image_size=8, seed=0)
        model.evaluate(x, y)
        conv = model.network.layers[0]
        assert conv._index_tables and retained_cache_bytes(model.network) == 0
        # The same arrays under any other private name are batch data.
        conv._kept = dict(conv._index_tables)
        assert retained_cache_bytes(model.network) == sum(
            table.nbytes for table in conv._index_tables.values()
        )

    def test_mlp_keeps_no_input_after_predict(self, small_mlp):
        small_mlp.predict(np.ones((50, 10)))
        assert retained_cache_bytes(small_mlp.network) == 0

    def test_backward_after_evaluation_raises_instead_of_using_a_stale_cache(self, batch):
        x, y = batch
        model = SimpleCNN(image_size=8, seed=0)
        model.train_batch(x[:5], y[:5], SGD(0.05))
        model.network.eval()
        logits = model.network.forward(x[:5])
        for call in (model.network.backward, model.network.backward_parameters):
            with pytest.raises(RuntimeError, match="backward called before forward"):
                call(np.ones_like(logits))

    def test_training_step_still_caches_and_backpropagates(self, batch):
        x, y = batch
        model = SimpleCNN(image_size=8, seed=0)
        model.evaluate(x, y)
        before = [w.copy() for w in model.get_weights()]
        model.train_batch(x[:5], y[:5], SGD(0.05))
        assert retained_cache_bytes(model.network) > 0
        assert any(not np.array_equal(a, b) for a, b in zip(before, model.get_weights()))
        grad_input = model.network.backward(np.ones((5, 10)))
        assert grad_input.shape == (5, 3, 8, 8)


class TestEvaluationRestoresTheMode:
    def test_training_network_comes_back_training(self, small_cnn, tiny_image_dataset):
        train, _ = tiny_image_dataset
        small_cnn.predict(train.x[:4])
        small_cnn.evaluate(train.x[:4], train.y[:4])
        assert small_cnn.network.training
        assert all(layer.training for layer in small_cnn.network.layers)

    def test_eval_network_stays_in_eval_mode(self, small_cnn, tiny_image_dataset):
        # predict / evaluate used to call network.train() unconditionally.
        train, _ = tiny_image_dataset
        small_cnn.network.eval()
        small_cnn.predict(train.x[:4])
        assert not small_cnn.network.training
        small_cnn.evaluate(train.x[:4], train.y[:4])
        assert not small_cnn.network.training
        assert not any(layer.training for layer in small_cnn.network.layers)

    @pytest.mark.parametrize("was_training", [True, False])
    def test_mode_is_restored_when_evaluation_raises(self, small_cnn, was_training):
        if not was_training:
            small_cnn.network.eval()
        bad = np.ones((2, 5, 8, 8))  # wrong channel count
        with pytest.raises(ValueError):
            small_cnn.predict(bad)
        assert small_cnn.network.training is was_training
        with pytest.raises(ValueError):
            small_cnn.evaluate(bad, np.zeros(2, dtype=int))
        assert small_cnn.network.training is was_training
        assert all(layer.training is was_training for layer in small_cnn.network.layers)


class TestRegistry:
    def test_available_models_listed(self):
        names = available_models()
        assert "simple_cnn" in names and "mini_vgg" in names and "mlp" in names

    def test_build_model_by_name(self):
        model = build_model("simple_cnn", image_size=8, num_classes=10, seed=0)
        assert isinstance(model, SimpleCNN)

    def test_build_model_alias(self):
        model = build_model("vgg", image_size=16, num_classes=5, seed=0)
        assert isinstance(model, MiniVGG)

    def test_build_model_unknown(self):
        with pytest.raises(ValueError):
            build_model("resnet50")

    def test_count_parameters(self):
        model = MLP(input_dim=4, hidden_dims=(8,), num_classes=2, seed=0)
        expected = 4 * 8 + 8 + 8 * 2 + 2
        assert count_parameters(model) == expected


class TestMetrics:
    def test_accuracy_score(self):
        assert accuracy_score(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_score_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([]), np.array([]))

    def test_accuracy_score_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([1]), np.array([1, 2]))

    def test_top_k_accuracy_includes_lower_ranked(self):
        logits = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
        y = np.array([2, 2])
        assert top_k_accuracy(y, logits, k=1) == 0.0
        assert top_k_accuracy(y, logits, k=2) == 1.0

    def test_top_k_accuracy_k_clipped(self):
        logits = np.array([[0.1, 0.9]])
        assert top_k_accuracy(np.array([0]), logits, k=10) == 1.0

    def test_top_k_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.array([0]), np.array([[1.0, 2.0]]), k=0)
