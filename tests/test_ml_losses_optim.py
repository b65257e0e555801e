"""Tests for losses and optimizers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.losses import CrossEntropyLoss, MSELoss
from repro.ml.optim import SGD, Adagrad, Adam, Yogi, build_optimizer


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss_fn = CrossEntropyLoss()
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, grad = loss_fn.forward(logits, np.array([0, 1]))
        assert loss < 1e-4
        assert grad.shape == logits.shape

    def test_uniform_prediction_loss_is_log_classes(self):
        loss_fn = CrossEntropyLoss()
        logits = np.zeros((4, 5))
        loss, _ = loss_fn.forward(logits, np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(5), rel=1e-6)

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        loss_fn = CrossEntropyLoss()
        logits = rng.normal(size=(3, 4))
        targets = np.array([1, 3, 0])
        _, grad = loss_fn.forward(logits, targets)
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                logits[i, j] += eps
                plus, _ = loss_fn.forward(logits, targets)
                logits[i, j] -= 2 * eps
                minus, _ = loss_fn.forward(logits, targets)
                logits[i, j] += eps
                numeric[i, j] = (plus - minus) / (2 * eps)
        assert np.allclose(grad, numeric, atol=1e-6)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(np.zeros((2, 3)), np.array([0, 3]))

    def test_rejects_mismatched_batch(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(np.zeros((2, 3)), np.array([0]))

    def test_rejects_1d_logits(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(np.zeros(3), np.array([0, 1, 2]))


def _loss_bits(loss: float) -> int:
    return int(np.array(loss, dtype=np.float64).view(np.int64))


class TestLossValue:
    """``value`` is ``forward``'s loss without the gradient, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 5, 255, 256, 257, 300]),
        classes=st.integers(1, 12),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
        specials=st.lists(
            st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0]), max_size=6
        ),
        seed=st.integers(0, 2**16),
    )
    def test_cross_entropy_value_is_forward_loss(self, n, classes, scale, specials, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0.0, scale, size=(n, classes))
        logits.flat[rng.integers(0, logits.size, len(specials))] = specials
        targets = rng.integers(0, classes, size=n)
        loss_fn = CrossEntropyLoss()
        before = logits.copy()
        with np.errstate(all="ignore"):  # inf - inf and log(0) are part of the grid
            want, _ = loss_fn.forward(logits, targets)
            value = loss_fn.value(logits, targets)
            checked = CrossEntropyLoss.checked_value(logits, targets, np.arange(n))
        assert _loss_bits(value) == _loss_bits(want)
        assert _loss_bits(checked) == _loss_bits(want)
        assert np.array_equal(logits, before, equal_nan=True)

    @pytest.mark.parametrize(
        "logits, targets",
        [(np.zeros((2, 3)), np.array([0, 3])), (np.zeros((2, 3)), np.array([-1, 0])),
         (np.zeros((2, 3)), np.array([0])), (np.zeros(3), np.array([0, 1, 2]))],
        ids=["label-too-large", "negative-label", "mismatched-batch", "1d-logits"],
    )
    def test_value_rejects_what_forward_rejects(self, logits, targets):
        with pytest.raises(ValueError):
            CrossEntropyLoss().value(logits, targets)

    def test_base_value_is_forward_loss(self):
        predictions = np.array([[0.5, 2.0], [1.0, -1.0]])
        targets = np.array([[0.0, 1.5], [1.0, 0.0]])
        assert MSELoss().value(predictions, targets) == MSELoss().forward(predictions, targets)[0]


class TestMSE:
    def test_zero_for_identical(self):
        loss, grad = MSELoss().forward(np.ones((3, 2)), np.ones((3, 2)))
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_value_and_gradient(self):
        pred = np.array([[2.0]])
        target = np.array([[0.0]])
        loss, grad = MSELoss().forward(pred, target)
        assert loss == pytest.approx(4.0)
        assert grad == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss().forward(np.ones((2, 2)), np.ones((2, 3)))


class TestSGD:
    def test_plain_step(self):
        opt = SGD(learning_rate=0.1)
        params = [np.array([1.0, 2.0])]
        grads = [np.array([1.0, 1.0])]
        opt.step(params, grads)
        assert np.allclose(params[0], [0.9, 1.9])

    def test_momentum_accumulates(self):
        opt = SGD(learning_rate=0.1, momentum=0.9)
        params = [np.array([0.0])]
        opt.step(params, [np.array([1.0])])
        first = params[0].copy()
        opt.step(params, [np.array([1.0])])
        second_step = first - params[0]
        assert second_step > 0.1  # momentum makes the second step bigger

    def test_weight_decay_pulls_towards_zero(self):
        opt = SGD(learning_rate=0.1, weight_decay=1.0)
        params = [np.array([10.0])]
        opt.step(params, [np.array([0.0])])
        assert params[0][0] < 10.0

    def test_reset_clears_momentum(self):
        opt = SGD(learning_rate=0.1, momentum=0.9)
        params = [np.array([0.0])]
        opt.step(params, [np.array([1.0])])
        opt.reset()
        assert opt._velocity is None

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)
        with pytest.raises(ValueError):
            SGD(learning_rate=0.1, momentum=1.5)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SGD().step([np.zeros(2)], [])


@pytest.mark.parametrize("optimizer_cls", [Adam, Yogi, Adagrad])
def test_adaptive_optimizers_reduce_quadratic(optimizer_cls):
    """Every adaptive optimizer should make progress on a simple quadratic."""
    opt = optimizer_cls(learning_rate=0.1)
    params = [np.array([5.0, -3.0])]
    initial = np.abs(params[0]).max()
    for _ in range(200):
        grads = [2 * params[0]]
        opt.step(params, grads)
    # Progress towards the optimum at zero; Adagrad's decaying step size makes
    # it slower than Adam/Yogi, so assert a halving rather than convergence.
    assert np.abs(params[0]).max() < 0.6 * initial


@pytest.mark.parametrize("optimizer_cls", [Adam, Yogi, Adagrad])
def test_adaptive_optimizers_reset(optimizer_cls):
    opt = optimizer_cls(learning_rate=0.1)
    params = [np.array([1.0])]
    opt.step(params, [np.array([1.0])])
    opt.reset()
    # After reset the internal state is gone; a new step must not fail.
    opt.step(params, [np.array([1.0])])


def test_sgd_quadratic_convergence():
    opt = SGD(learning_rate=0.1, momentum=0.5)
    params = [np.array([4.0])]
    for _ in range(100):
        opt.step(params, [2 * params[0]])
    assert abs(params[0][0]) < 0.05


class TestBuildOptimizer:
    def test_known_names(self):
        assert isinstance(build_optimizer("sgd"), SGD)
        assert isinstance(build_optimizer("adam"), Adam)
        assert isinstance(build_optimizer("yogi"), Yogi)
        assert isinstance(build_optimizer("adagrad"), Adagrad)

    def test_case_insensitive(self):
        assert isinstance(build_optimizer("SGD"), SGD)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_optimizer("rmsprop")

    def test_kwargs_forwarded(self):
        opt = build_optimizer("sgd", learning_rate=0.5)
        assert opt.learning_rate == 0.5
