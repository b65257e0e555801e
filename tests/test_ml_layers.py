"""Unit tests for the neural-network layers, including numeric gradient checks.

The loop ``_im2col`` / ``_col2im`` the layers used before the index-table
gather and scatter live on here as ``_im2col_reference`` /
``_col2im_reference``, together with the convolution and pooling layers
built on them: the exact oracles the optimised kernels are compared with,
value for value and layout for layout.
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np
import pytest

from repro.ml.layers import (
    BatchNorm1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2d,
    ReLU,
    Sequential,
    Softmax,
    _col2im,
    _im2col,
)
from repro.ml.models import MiniVGG, Model, SimpleCNN
from repro.ml.optim import SGD


# ---------------------------------------------------------------- the oracles
def _im2col_reference(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """``np.pad``, then one slice assignment per kernel offset, then a transpose."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for i in range(kernel):
        i_max = i + stride * out_h
        for j in range(kernel):
            j_max = j + stride * out_w
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    return cols, out_h, out_w


def _col2im_reference(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Accumulate overlapping patches, one slice addition per kernel offset."""
    n, c, h, w = input_shape
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel):
        i_max = i + stride * out_h
        for j in range(kernel):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class ReferenceConv2d(Conv2d):
    """``Conv2d`` as it was on the loop helpers: caches in every mode and
    always computes the input gradient."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols, out_h, out_w = _im2col_reference(x, self.kernel_size, self.stride, self.padding)
        w_col = self.weight.reshape(self.weight.shape[0], -1)
        out = cols @ w_col.T + self.bias
        self._cache = (cols, x.shape, out_h, out_w)
        return out.reshape(x.shape[0], out_h, out_w, -1).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        cols, input_shape, out_h, out_w = self._cache
        n = input_shape[0]
        grad_cols = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, -1)
        w_col = self.weight.reshape(self.weight.shape[0], -1)
        self.grad_weight = (grad_cols.T @ cols).reshape(self.weight.shape)
        self.grad_bias = grad_cols.sum(axis=0)
        return _col2im_reference(
            grad_cols @ w_col, input_shape, self.kernel_size, self.stride, self.padding, out_h, out_w
        )

    backward_parameters = Layer.backward_parameters


class ReferenceMaxPool2d(MaxPool2d):
    """``MaxPool2d`` as it was: im2col over an (N*C, 1, H, W) reshape."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        cols, out_h, out_w = _im2col_reference(x.reshape(n * c, 1, h, w), k, s, 0)
        cols = cols.reshape(n * c * out_h * out_w, k * k)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._cache = (argmax, cols, x.shape, out_h, out_w)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        argmax, cols, input_shape, out_h, out_w = self._cache
        n, c, h, w = input_shape
        k, s = self.kernel_size, self.stride
        grad_cols = np.zeros_like(cols)
        grad_cols[np.arange(grad_cols.shape[0]), argmax] = grad_output.reshape(-1)
        grad_input = _col2im_reference(grad_cols, (n * c, 1, h, w), k, s, 0, out_h, out_w)
        return grad_input.reshape(n, c, h, w)


def reference_twin(model: Model) -> Model:
    """A copy of ``model`` whose convolution and pooling layers are the oracles."""
    twin = model.clone()
    for layer in twin.network.layers:
        if isinstance(layer, Conv2d):
            layer.__class__ = ReferenceConv2d
        elif isinstance(layer, MaxPool2d):
            layer.__class__ = ReferenceMaxPool2d
    return twin


def weight_bytes(model: Model) -> bytes:
    return b"".join(w.tobytes() for w in model.get_weights())


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        plus = f()
        x[idx] = original - eps
        minus = f()
        x[idx] = original
        grad[idx] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)

    def test_rejects_bad_input_dim(self):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 6)))

    def test_rejects_non_2d_input(self):
        layer = Dense(4, 3)
        with pytest.raises(ValueError):
            layer.forward(np.ones((5, 4, 1)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)

    def test_backward_before_forward_raises(self):
        layer = Dense(2, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 2)))

    def test_gradient_matches_numeric_weight(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        numeric = numeric_gradient(loss, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-4)

    def test_gradient_matches_numeric_bias(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        numeric = numeric_gradient(loss, layer.bias)
        assert np.allclose(layer.grad_bias, numeric, atol=1e-4)

    def test_gradient_matches_numeric_input(self):
        rng = np.random.default_rng(3)
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        grad_input = layer.backward(2 * out)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad_input, numeric, atol=1e-4)

    def test_set_parameters_shape_mismatch(self):
        layer = Dense(3, 2)
        with pytest.raises(ValueError):
            layer.set_parameters([np.zeros((2, 3)), np.zeros(2)])

    def test_set_parameters_replaces_values(self):
        layer = Dense(2, 2)
        new_w = np.full((2, 2), 7.0)
        new_b = np.full(2, -1.0)
        layer.set_parameters([new_w, new_b])
        assert np.allclose(layer.weight, 7.0)
        assert np.allclose(layer.bias, -1.0)


class TestReLU:
    def test_forward_clips_negatives(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0, 0.0]]))
        assert np.allclose(out, [[0.0, 2.0, 0.0]])

    def test_backward_masks_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]))
        grad = layer.backward(np.array([[5.0, 5.0]]))
        assert np.allclose(grad, [[0.0, 5.0]])

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 2)))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        layer = Softmax()
        out = layer.forward(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_stable_for_large_logits(self):
        layer = Softmax()
        out = layer.forward(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_backward_matches_numeric(self):
        rng = np.random.default_rng(4)
        layer = Softmax()
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))

        def loss():
            return float((layer.forward(x) * target).sum())

        layer.forward(x)
        grad = layer.backward(target)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad, numeric, atol=1e-5)


class TestFlattenDropout:
    def test_flatten_round_trip(self):
        layer = Flatten()
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert back.shape == x.shape

    def test_dropout_eval_is_identity(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        layer.eval()
        x = np.ones((4, 4))
        assert np.allclose(layer.forward(x), x)

    def test_dropout_training_zeroes_some(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((20, 20)))
        assert (out == 0).any()
        assert not np.allclose(out, 0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_dropout_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=np.random.default_rng(1))
        x = np.ones((10, 10))
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(x))
        assert np.allclose((out == 0), (grad == 0))


class TestBatchNorm:
    def test_normalises_batch(self):
        layer = BatchNorm1d(3)
        x = np.random.default_rng(0).normal(loc=5.0, scale=2.0, size=(64, 3))
        out = layer.forward(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm1d(2, momentum=0.5)
        x = np.random.default_rng(1).normal(size=(32, 2))
        layer.forward(x)
        layer.eval()
        out_eval = layer.forward(x[:4])
        assert out_eval.shape == (4, 2)

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            BatchNorm1d(2).forward(np.ones((2, 2, 2)))

    def test_backward_matches_numeric_gamma(self):
        rng = np.random.default_rng(5)
        layer = BatchNorm1d(3)
        x = rng.normal(size=(8, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        numeric = numeric_gradient(loss, layer.gamma)
        assert np.allclose(layer.grad_gamma, numeric, atol=1e-4)


class TestConv2d:
    def test_output_shape_with_padding(self):
        layer = Conv2d(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((2, 3, 8, 8)))
        assert out.shape == (2, 4, 8, 8)

    def test_output_shape_with_stride(self):
        layer = Conv2d(1, 2, kernel_size=3, stride=2, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((1, 1, 7, 7)))
        assert out.shape == (1, 2, 3, 3)

    def test_rejects_wrong_channels(self):
        layer = Conv2d(3, 4, kernel_size=3)
        with pytest.raises(ValueError):
            layer.forward(np.ones((1, 2, 8, 8)))

    def test_matches_manual_convolution(self):
        layer = Conv2d(1, 1, kernel_size=2, rng=np.random.default_rng(0))
        layer.weight[...] = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
        layer.bias[...] = 0.0
        x = np.arange(9.0).reshape(1, 1, 3, 3)
        out = layer.forward(x)
        expected = np.array([[[[0 + 4, 1 + 5], [3 + 7, 4 + 8]]]], dtype=float)
        assert np.allclose(out, expected)

    def test_gradient_matches_numeric_weight(self):
        rng = np.random.default_rng(6)
        layer = Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 5, 5))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        layer.backward(2 * out)
        numeric = numeric_gradient(loss, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-3)

    def test_gradient_matches_numeric_input(self):
        rng = np.random.default_rng(7)
        layer = Conv2d(1, 2, kernel_size=3, rng=rng)
        x = rng.normal(size=(1, 1, 5, 5))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        grad_input = layer.backward(2 * out)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad_input, numeric, atol=1e-3)


class TestMaxPool:
    def test_output_values(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert np.allclose(layer.forward(x), [[[[4.0]]]])

    def test_output_shape(self):
        layer = MaxPool2d(2)
        out = layer.forward(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 3, 4, 4)

    def test_backward_routes_gradient_to_max(self):
        layer = MaxPool2d(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x)
        grad = layer.backward(np.array([[[[10.0]]]]))
        expected = np.array([[[[0.0, 0.0], [0.0, 10.0]]]])
        assert np.allclose(grad, expected)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_rejects_nonpositive_stride(self, stride):
        # ``stride or kernel_size`` used to turn 0 into kernel_size silently.
        with pytest.raises(ValueError, match="stride"):
            MaxPool2d(2, stride=stride)

    def test_stride_defaults_to_kernel_size(self):
        assert MaxPool2d(3).stride == 3
        assert MaxPool2d(3, stride=1).stride == 1

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(8)
        layer = MaxPool2d(2)
        x = rng.normal(size=(1, 2, 4, 4))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        out = layer.forward(x)
        grad = layer.backward(2 * out)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad, numeric, atol=1e-4)


class TestSequential:
    def test_parameter_round_trip(self):
        net = Sequential([Dense(4, 8, rng=np.random.default_rng(0)), ReLU(), Dense(8, 2, rng=np.random.default_rng(1))])
        params = [np.array(p, copy=True) for p in net.parameters()]
        net.set_parameters([np.zeros_like(p) for p in params])
        assert all(np.allclose(p, 0.0) for p in net.parameters())
        net.set_parameters(params)
        assert all(np.allclose(a, b) for a, b in zip(net.parameters(), params))

    def test_set_parameters_wrong_count(self):
        net = Sequential([Dense(2, 2)])
        with pytest.raises(ValueError):
            net.set_parameters([np.zeros((2, 2))])

    def test_empty_sequential_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_train_eval_propagates(self):
        drop = Dropout(0.5)
        net = Sequential([Dense(2, 2), drop])
        net.eval()
        assert drop.training is False
        net.train()
        assert drop.training is True

    def test_forward_backward_chain(self):
        rng = np.random.default_rng(9)
        net = Sequential([Dense(3, 5, rng=rng), ReLU(), Dense(5, 2, rng=rng)])
        x = rng.normal(size=(4, 3))
        out = net.forward(x)
        grad = net.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert len(net.gradients()) == len(net.parameters()) == 4

    @pytest.mark.parametrize(
        "first, width",
        [
            (lambda rng: Dense(3, 5, rng=rng), 5),
            (lambda rng: Sequential([Dense(3, 5, rng=rng), ReLU()]), 5),
            (lambda rng: BatchNorm1d(3), 3),
        ],
        ids=["dense", "nested", "default-fallback"],
    )
    def test_backward_parameters_sets_the_same_gradients(self, first, width):
        rng = np.random.default_rng(10)
        net = Sequential([first(rng), ReLU(), Dense(width, 2, rng=rng)])
        x = rng.normal(size=(4, 3))
        grad = rng.normal(size=(4, 2))
        net.forward(x)
        net.backward(grad)
        expected = [g.copy() for g in net.gradients()]
        net.forward(x)
        assert net.backward_parameters(grad) is None
        for got, want in zip(net.gradients(), expected):
            assert np.array_equal(got, want)

    def test_evaluation_fuses_only_a_relu_directly_before_a_pool(self, monkeypatch):
        """In evaluation mode ReLU→MaxPool2d runs as ``forward_rectified``; a
        pool after anything else keeps the scanned path; training fuses
        nothing.  Every route returns what the layers' own forwards do."""
        rng = np.random.default_rng(12)
        net = Sequential(
            [
                Conv2d(2, 3, kernel_size=3, padding=1, rng=rng),
                MaxPool2d(2),
                ReLU(),
                MaxPool2d(2),
                Flatten(),
                Dense(3 * 2 * 2, 4, rng=rng),
            ]
        )
        x = rng.normal(size=(5, 2, 8, 8))
        x[0, 0, :4, :4] = np.nan
        routes = []
        for name in ("forward", "forward_rectified"):
            original = getattr(MaxPool2d, name)

            def spy(self, h, _original=original, _name=name):
                routes.append((net.layers.index(self), _name))
                return _original(self, h)

            monkeypatch.setattr(MaxPool2d, name, spy)
        for layer in net.layers:
            layer.eval()
        layer_by_layer = x
        for layer in net.layers:
            layer_by_layer = layer.forward(layer_by_layer)
        routes.clear()
        net.eval()
        assert np.array_equal(_bits(net.forward(x)), _bits(layer_by_layer))
        assert routes == [(1, "forward"), (3, "forward_rectified")]
        assert net.layers[2]._mask is None
        routes.clear()
        net.train()
        net.forward(x)
        assert routes == [(1, "forward"), (3, "forward")]
        with pytest.raises(RuntimeError):
            net.infer(x)

    def test_backward_parameters_first_conv_matches_full_backward(self):
        rng = np.random.default_rng(11)
        net = Sequential([Conv2d(2, 3, kernel_size=3, padding=1, rng=rng), ReLU(), MaxPool2d(2)])
        x = rng.normal(size=(3, 2, 4, 4))
        grad = rng.normal(size=(3, 3, 2, 2))
        net.forward(x)
        net.backward(grad)
        expected = [g.copy() for g in net.gradients()]
        net.forward(x)
        net.backward_parameters(grad)
        for got, want in zip(net.gradients(), expected):
            assert np.array_equal(got, want)


# ------------------------------------------------- optimised kernels vs oracles
_IMAGE_SHAPES = [(1, 1, 1), (1, 4, 4), (3, 8, 8), (6, 4, 4), (2, 5, 7), (3, 1, 1)]
_KERNEL_GRID = [
    (n, chw, kernel, stride, padding, dtype, transposed)
    for n, chw, kernel, stride, padding, dtype, transposed in itertools.product(
        (1, 2, 5, 256), _IMAGE_SHAPES, (1, 2, 3), (1, 2), (0, 1), (np.float32, np.float64), (False, True)
    )
    if min(chw[1:]) + 2 * padding >= kernel
]


def _grid_input(rng, n, chw, dtype, transposed):
    c, h, w = chw
    if transposed:
        # The layout a convolution hands to the next layer: NHWC memory
        # behind an (N, C, H, W) view.
        return rng.normal(size=(n, h, w, c)).astype(dtype).transpose(0, 3, 1, 2)
    return rng.normal(size=(n, c, h, w)).astype(dtype)


class TestKernelsMatchTheLoopOracles:
    def test_im2col_values_dtype_and_layout(self):
        """Layout included: for one image the oracle returns a transposed
        *view*, and BLAS sums a transposed operand in a different order."""
        rng = np.random.default_rng(0)
        tables = {}  # one for the whole grid: a key must tell every geometry apart
        for n, chw, kernel, stride, padding, dtype, transposed in _KERNEL_GRID:
            x = _grid_input(rng, n, chw, dtype, transposed)
            case = (n, chw, kernel, stride, padding, dtype.__name__, transposed)
            want, want_h, want_w = _im2col_reference(x, kernel, stride, padding)
            got, out_h, out_w = _im2col(x, kernel, stride, padding, tables)
            assert (out_h, out_w) == (want_h, want_w), case
            assert got.dtype == want.dtype, case
            assert np.array_equal(got, want), case
            assert got.strides == want.strides, case
            assert got.flags.c_contiguous == want.flags.c_contiguous, case
            assert not np.shares_memory(got, x), case

    def test_single_image_matrix_is_a_transposed_view(self):
        cols, _, _ = _im2col(np.ones((1, 3, 8, 8)), 3, 1, 1, {})
        assert cols.shape == (64, 27)
        assert cols.flags.f_contiguous and not cols.flags.c_contiguous
        cols, _, _ = _im2col(np.ones((2, 3, 8, 8)), 3, 1, 1, {})
        assert cols.flags.c_contiguous

    def test_col2im_values_and_dtype(self):
        rng = np.random.default_rng(1)
        tables = {}
        for n, chw, kernel, stride, padding, dtype, _ in _KERNEL_GRID:
            if n == 256:
                continue
            c, h, w = chw
            out_h = (h + 2 * padding - kernel) // stride + 1
            out_w = (w + 2 * padding - kernel) // stride + 1
            cols = rng.normal(size=(n * out_h * out_w, c * kernel * kernel)).astype(dtype)
            cols.flat[::3] = -0.0  # an element whose every term is -0.0 sums to +0.0
            args = ((n, c, h, w), kernel, stride, padding, out_h, out_w)
            want = _col2im_reference(cols, *args)
            got = _col2im(cols, *args, tables)
            case = (n, chw, kernel, stride, padding, dtype.__name__)
            assert got.dtype == want.dtype and np.array_equal(got, want), case
            assert np.array_equal(np.signbit(got), np.signbit(want)), case

    def test_max_pool_forward_and_backward(self):
        rng = np.random.default_rng(2)
        for n, chw, kernel, stride, padding, dtype, transposed in _KERNEL_GRID:
            if padding or n == 256:
                continue
            x = _grid_input(rng, n, chw, dtype, transposed)
            x.flat[::5] = 0.0  # ties: the first maximum of a window wins
            pool, oracle = MaxPool2d(kernel, stride), ReferenceMaxPool2d(kernel, stride)
            out, want = pool.forward(x), oracle.forward(x)
            case = (n, chw, kernel, stride, dtype.__name__, transposed)
            assert out.dtype == want.dtype and np.array_equal(out, want), case
            grad = rng.normal(size=out.shape).astype(dtype)
            grad.flat[::3] = -0.0
            got, want = pool.backward(grad), oracle.backward(grad)
            assert got.dtype == want.dtype and np.array_equal(got, want), case
            assert np.array_equal(np.signbit(got), np.signbit(want)), case

    @pytest.mark.parametrize(
        "samples",
        [35, 36, 37, 38, 39],
        ids=["no-tail", "tail-of-one", "tail-of-two", "tail-of-three", "tail-of-four"],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda: SimpleCNN(image_size=8, seed=0),
            lambda: MiniVGG(image_size=8, num_classes=10, seed=0),
        ],
        ids=["simple_cnn", "mini_vgg"],
    )
    def test_trained_weights_are_bit_identical(self, build, samples):
        """Three epochs at batch 5: 35 samples end on a full batch, 36 on a
        batch of one image (the layout trap), 37-39 on batches of two to four
        — every tail size, so every scatter table a fit builds is checked."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(samples, 3, 8, 8))
        y = rng.integers(0, 10, size=samples)
        model = build()
        oracle = reference_twin(model)
        assert weight_bytes(model) == weight_bytes(oracle)
        losses = model.fit(x, y, epochs=3, batch_size=5, optimizer=SGD(0.05), rng=np.random.default_rng(4))
        want = oracle.fit(x, y, epochs=3, batch_size=5, optimizer=SGD(0.05), rng=np.random.default_rng(4))
        assert losses == want
        assert weight_bytes(model) == weight_bytes(oracle)
        assert model.evaluate(x, y) == oracle.evaluate(x, y)
        assert model.evaluate(x[:1], y[:1]) == oracle.evaluate(x[:1], y[:1])

    def test_tables_follow_the_input_geometry(self):
        """One layer of each kind meets two geometries in turn (and a batch of
        one): every output and gradient matches the oracle, and every table
        the layer remembers is read-only and equals the one a fresh layer
        builds for that geometry."""
        rng = np.random.default_rng(5)

        def conv(cls):
            return cls(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(6))

        layers = [(conv(Conv2d), conv(ReferenceConv2d), lambda: conv(Conv2d), set())]
        layers.append((MaxPool2d(2), ReferenceMaxPool2d(2), lambda: MaxPool2d(2), set()))
        for shape in [(5, 3, 8, 8), (2, 3, 6, 10), (5, 3, 8, 8), (1, 3, 6, 10)]:
            x = rng.normal(size=shape)
            x.flat[::5] = 0.0
            for layer, oracle, build, built in layers:
                out, want = layer.forward(x), oracle.forward(x)
                assert np.array_equal(out, want), (type(layer).__name__, shape)
                grad = rng.normal(size=out.shape)
                grad.flat[::3] = -0.0
                got, want = layer.backward(grad), oracle.backward(grad)
                assert np.array_equal(got, want), (type(layer).__name__, shape)
                assert np.array_equal(np.signbit(got), np.signbit(want))
                fresh = build()
                fresh.forward(x)
                fresh.backward(grad)
                assert fresh._index_tables, type(layer).__name__
                for key, table in fresh._index_tables.items():
                    assert np.array_equal(layer._index_tables[key], table), key
                built.update(fresh._index_tables)
        for layer, _, _, built in layers:
            # No table beyond those some fresh layer built for its geometry.
            assert set(layer._index_tables) == built
            for table in layer._index_tables.values():
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[...] = 0


# ------------------------------------------- branch-free activation kernels
def _bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a float array, so NaN payloads and ``-0.0`` compare."""
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _special_values(dtype) -> np.ndarray:
    tiny = np.finfo(dtype).smallest_subnormal
    nan = np.array(np.nan, dtype=dtype)
    return np.array(
        [nan, -nan, 0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 3 * tiny, -3 * tiny], dtype=dtype
    )


# Padding 0 of the shared grid, plus an overlapping window on an image whose
# last row and column no window covers.
_POOL_GRID = [
    (n, chw, kernel, stride, dtype, transposed)
    for n, chw, kernel, stride, padding, dtype, transposed in _KERNEL_GRID
    if padding == 0
] + [(4, (5, 9, 12), 3, 2, dtype, True) for dtype in (np.float32, np.float64)]


class TestBranchFreeActivations:
    """``ReLU`` and evaluation-mode ``MaxPool2d`` against the kernels they
    replaced, bit for bit: ``np.where(x > 0, x, 0.0)`` and the first-argmax
    gather."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transposed", [False, True], ids=["nchw", "nhwc"])
    # An odd size leaves a tail to numpy's scalar loop, whose ``fmax`` may
    # return -0.0 for (-0.0, 0.0) where the vector loop returns +0.0.
    @pytest.mark.parametrize("n, chw", [(5, (3, 4, 6)), (3, (1, 5, 7))], ids=["even", "odd"])
    def test_relu_is_bit_equal_to_the_select(self, dtype, transposed, n, chw):
        special = _special_values(dtype)
        assert np.signbit(special[1]) and not np.signbit(special[0])  # NaN of both signs
        x = _grid_input(np.random.default_rng(9), n, chw, dtype, transposed)
        x.flat[: special.size] = special
        x.flat[special.size :: 3] = -0.0
        x.flat[x.size - 1] = -0.0  # last in memory order too, in both layouts
        grad = np.random.default_rng(10).normal(size=x.shape).astype(dtype)
        want = np.where(x > 0, x, 0.0)
        for training in (True, False):
            layer = ReLU()
            layer.training = training
            got = layer.forward(x)
            assert got.dtype == want.dtype == dtype
            assert got.strides == want.strides
            assert np.array_equal(_bits(got), _bits(want))
            if training:
                assert np.array_equal(layer._mask, x > 0)
                assert np.array_equal(_bits(layer.backward(grad)), _bits(grad * (x > 0)))
            else:
                assert layer._mask is None
                with pytest.raises(RuntimeError):
                    layer.backward(grad)

    def test_pool_takes_the_window_maximum_on_relu_output(self):
        rng = np.random.default_rng(11)
        for n, chw, kernel, stride, dtype, transposed in _POOL_GRID:
            x = ReLU().forward(_grid_input(rng, n, chw, dtype, transposed))  # +0.0 ties
            x.flat[::7] = np.inf
            case = (n, chw, kernel, stride, dtype.__name__, transposed)
            pool = MaxPool2d(kernel, stride)
            pool.eval()
            got = pool.forward(x)
            # The maximum, not a fallback to the gather: no table was built.
            assert not pool._index_tables, case
            self._assert_matches_the_gather(pool, x, got, case)

    def test_pool_gathers_signed_zeros_negatives_and_nan(self):
        rng = np.random.default_rng(12)
        for n, chw, kernel, stride, dtype, transposed in _POOL_GRID:
            signed = ReLU().forward(_grid_input(rng, n, chw, dtype, transposed))
            signed.flat[::5] = -0.0  # ties between -0.0 and +0.0: the first wins
            negative = _grid_input(rng, n, chw, dtype, transposed)
            negative.flat[::4] = -np.abs(negative.flat[::4])
            negative_nan = negative.copy()
            negative_nan.flat[::11] = np.copysign(np.nan, -1.0)
            unsigned_nan = ReLU().forward(_grid_input(rng, n, chw, dtype, transposed))
            unsigned_nan.flat[::3] = np.nan  # no sign bit anywhere, but NaN ...
            nan = np.isnan(unsigned_nan)
            payloads = _bits(unsigned_nan)
            payloads[nan] |= np.arange(1, nan.sum() + 1).astype(payloads.dtype)  # ... told apart
            for name, x in [
                ("signed zeros", signed),
                ("negatives", negative),
                ("negative NaN", negative_nan),
                ("unsigned NaN", unsigned_nan),
            ]:
                case = (n, chw, kernel, stride, dtype.__name__, transposed, name)
                pool = MaxPool2d(kernel, stride)
                pool.eval()
                got = pool.forward(x)
                gathered = x is not unsigned_nan or np.isnan(got).any()
                assert bool(pool._index_tables) == gathered, case
                self._assert_matches_the_gather(pool, x, got, case)

    def test_rectified_pool_is_relu_then_pool(self):
        """``forward_rectified`` (window ``fmax`` of the raw input, then the
        ReLU) against a ReLU forward followed by the pooling it replaces."""
        rng = np.random.default_rng(14)
        for n, chw, kernel, stride, dtype, transposed in _POOL_GRID:
            special = _special_values(dtype)
            x = _grid_input(rng, n, chw, dtype, transposed)
            x.flat[::4] = -np.abs(x.flat[::4])
            x.flat[1::5] = -0.0
            x.flat[2::5] = 0.0
            x.flat[3::9] = special[rng.integers(0, special.size, x.flat[3::9].size)]
            x[0, 0] = np.nan  # whole windows of NaN
            x[-1, -1] = np.copysign(np.nan, -1.0)
            for name, case_x in [("mixed", x), ("all -inf", np.full_like(x, -np.inf))]:
                case = (n, chw, kernel, stride, dtype.__name__, transposed, name)
                pool = MaxPool2d(kernel, stride)
                pool.eval()
                pool._cache = ("stale",)
                got = pool.forward_rectified(case_x)
                assert pool._cache is None and not pool._index_tables, case
                rectified = ReLU().forward(case_x)
                self._assert_matches_the_gather(pool, rectified, got, case)

    @staticmethod
    def _assert_matches_the_gather(pool, x, got, case):
        kernel, stride = pool.kernel_size, pool.stride
        training = MaxPool2d(kernel, stride).forward(x)
        oracle = ReferenceMaxPool2d(kernel, stride).forward(x)
        for want in (training, oracle):
            assert got.dtype == want.dtype and got.shape == want.shape, case
            assert np.array_equal(_bits(got), _bits(want)), case
        assert got.flags.c_contiguous, case
        with pytest.raises(RuntimeError):
            pool.backward(np.ones_like(got))


@pytest.mark.parametrize(
    "build",
    [lambda: SimpleCNN(image_size=8, seed=0), lambda: MiniVGG(image_size=8, num_classes=10, seed=0)],
    ids=["simple_cnn", "mini_vgg"],
)
def test_clone_of_a_used_model_keeps_its_tables_read_only(build):
    rng = np.random.default_rng(13)
    x = rng.normal(size=(12, 3, 8, 8))
    y = rng.integers(0, 10, size=12)
    model = build()
    model.fit(x, y, epochs=1, batch_size=5, optimizer=SGD(0.05))
    model.evaluate(x, y)
    clone = model.clone()
    pairs = [
        (source._index_tables, copy._index_tables)
        for source, copy in zip(model.network.layers, clone.network.layers)
        if isinstance(source, (Conv2d, MaxPool2d))
    ]
    assert pairs and all(tables for tables, _ in pairs)
    for tables, copied in pairs:
        assert copied is not tables and copied.keys() == tables.keys()
        for key, table in copied.items():
            assert not table.flags.writeable, key
            assert np.array_equal(table, tables[key]), key
            with pytest.raises(ValueError):
                table[...] = 0
    # A table the clone builds later is its own.
    clone.evaluate(x[:1], y[:1])
    assert any(copied.keys() != tables.keys() for tables, copied in pairs)
    assert clone.evaluate(x, y) == model.evaluate(x, y)
