"""Neural-network layers with explicit forward and backward passes.

A layer keeps from a forward pass only what a later step consumes.  In
training mode that is what ``backward`` needs (the im2col matrix, the argmax
of each pooling window, the ReLU mask, the Dense input).  In evaluation mode
no ``backward`` can follow, so the forward pass stores nothing and clears
whatever an earlier training batch left behind: a model that has only been
evaluated holds its weights and nothing else, and ``backward`` after an
evaluation-mode forward raises instead of using a stale cache.  Parameters
and their gradients are exposed through ``parameters()`` / ``gradients()`` so
the optimizers in :mod:`repro.ml.optim` and the weight exchange in
:mod:`repro.fl` can treat all layers uniformly.

The convolution and pooling layers gather their windows with one ``np.take``
(im2col) and scatter gradients back with one ``np.add.at`` (col2im), both
through index tables that depend only on the geometry (channels, padded
height and width, kernel, stride and, for the scatter, the batch size).  A
layer builds each table on first use and keeps it, read-only, in its own
``_index_tables`` dict: geometry, not batch data, so it is neither cleared by
an evaluation-mode forward nor counted as a retained cache.  A deep copy of
the layer shares the frozen tables.

The activation kernels avoid a data-dependent select.  ``ReLU`` is an
``fmax`` against 0.0 followed by ``+= 0.0``.  In evaluation mode a
``Sequential`` runs a ``ReLU`` directly followed by a ``MaxPool2d`` as a
NaN-ignoring ``np.fmax`` over each window of the ReLU's input, then the ReLU
on the pooled tensor (:meth:`MaxPool2d.forward_rectified`).  Any other
evaluation-mode ``MaxPool2d`` takes a running ``np.maximum`` over the k²
strided window views of its input, with no gather, argmax or table, whenever
that is bit-equal to the first-argmax gather: no element has its sign bit
set and no NaN reaches the output.  Every other input, and every
training-mode forward, goes through the gather, which copies an NHWC-layout
input into image order first.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np


class IndexTables(dict):
    """A layer's index tables, keyed by the geometry each one serves.

    The tables are read-only, so a deep copy of a layer (``Model.clone``)
    shares them: the copy gets a dict of its own over the same frozen
    arrays, not writeable copies of them.
    """

    def __deepcopy__(self, memo: dict) -> "IndexTables":
        return IndexTables(self)


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Layers that
    hold parameters override :meth:`parameters` and :meth:`gradients` to
    return aligned lists of arrays.
    """

    #: whether the layer is in training mode: decides what :meth:`forward`
    #: keeps for :meth:`backward`, and the behaviour of Dropout / BatchNorm.
    training: bool = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Set the parameter gradients and return the gradient w.r.t. the input.

        Uses what the last *training-mode* :meth:`forward` stored.  An
        evaluation-mode forward stores nothing and drops what was stored, so
        calling this after one raises ``RuntimeError``.
        """
        raise NotImplementedError

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        """:meth:`backward` for a caller that has no use for the input gradient.

        The first layer of a network is in that position on every training
        step.  Layers whose input gradient is a separate computation
        (:class:`Dense`, :class:`Conv2d`) override this to skip it.
        """
        self.backward(grad_output)

    def parameters(self) -> List[np.ndarray]:
        """Trainable parameter tensors (may be empty)."""
        return []

    def gradients(self) -> List[np.ndarray]:
        """Gradients aligned with :meth:`parameters` (may be empty)."""
        return []

    def set_parameters(self, params: List[np.ndarray]) -> None:
        """Replace the layer's parameters with copies of ``params``."""
        own = self.parameters()
        if len(params) != len(own):
            raise ValueError(
                f"{type(self).__name__} expected {len(own)} parameter tensors, got {len(params)}"
            )
        for target, source in zip(own, params):
            if target.shape != source.shape:
                raise ValueError(
                    f"{type(self).__name__} parameter shape mismatch: "
                    f"{target.shape} vs {source.shape}"
                )
            target[...] = source

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        limit = np.sqrt(6.0 / (in_features + out_features))
        self.weight = rng.uniform(-limit, limit, size=(in_features, out_features)).astype(np.float64)
        self.bias = np.zeros(out_features, dtype=np.float64)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Dense expects a 2-D input, got shape {x.shape}")
        if x.shape[1] != self.weight.shape[0]:
            raise ValueError(
                f"Dense expects input dim {self.weight.shape[0]}, got {x.shape[1]}"
            )
        self._input = x if self.training else None
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.backward_parameters(grad_output)
        return grad_output @ self.weight.T

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        self.grad_weight = self._input.T @ grad_output
        self.grad_bias = grad_output.sum(axis=0)

    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0 if self.training else None
        # Bit-equal to ``np.where(x > 0, x, 0.0)`` without its data-dependent
        # select: ``fmax`` maps NaN to 0.0, and adding +0.0 turns -0.0 into +0.0.
        out = np.fmax(x, 0.0)
        out += 0.0
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class Softmax(Layer):
    """Numerically stable softmax over the last axis.

    Normally the fused :class:`repro.ml.losses.CrossEntropyLoss` is used for
    training and this layer only appears at inference time.
    """

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        output = exp / exp.sum(axis=-1, keepdims=True)
        self._output = output if self.training else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        s = self._output
        dot = (grad_output * s).sum(axis=-1, keepdims=True)
        return s * (grad_output - dot)


class Flatten(Layer):
    """Collapse all dimensions except the batch dimension."""

    def __init__(self) -> None:
        self._input_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape if self.training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class BatchNorm1d(Layer):
    """Batch normalisation over a 2-D (batch, features) input."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.gamma = np.ones(num_features, dtype=np.float64)
        self.beta = np.zeros(num_features, dtype=np.float64)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self.momentum = momentum
        self.eps = eps
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError("BatchNorm1d expects a 2-D input")
        if self.training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        centered = x - mean
        x_hat = centered / np.sqrt(var + self.eps)
        self._cache = (x_hat, var, centered) if self.training else None
        return self.gamma * x_hat + self.beta

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, var, centered = self._cache
        n = grad_output.shape[0]
        self.grad_gamma = (grad_output * x_hat).sum(axis=0)
        self.grad_beta = grad_output.sum(axis=0)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        dx_hat = grad_output * self.gamma
        dvar = (dx_hat * centered * -0.5 * inv_std**3).sum(axis=0)
        dmean = (-dx_hat * inv_std).sum(axis=0) + dvar * (-2.0 * centered.mean(axis=0))
        return dx_hat * inv_std + dvar * 2.0 * centered / n + dmean / n

    def parameters(self) -> List[np.ndarray]:
        return [self.gamma, self.beta]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_gamma, self.grad_beta]


def _index_table(tables: IndexTables, key: Tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
    """``tables[key]``, built by ``build`` and made read-only on first use."""
    table = tables.get(key)
    if table is None:
        table = np.ascontiguousarray(build())
        table.setflags(write=False)
        tables[key] = table
    return table


def _window_offsets(
    channels: int, height: int, width: int, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Flat offset into one C-contiguous (channels, height, width) image of
    every window element, shaped (channels, kernel, kernel, out_h, out_w)."""
    c = np.arange(channels).reshape(-1, 1, 1, 1, 1) * (height * width)
    ky = np.arange(kernel).reshape(1, -1, 1, 1, 1)
    kx = np.arange(kernel).reshape(1, 1, -1, 1, 1)
    oy = np.arange(out_h).reshape(1, 1, 1, -1, 1) * stride
    ox = np.arange(out_w).reshape(1, 1, 1, 1, -1) * stride
    return c + (oy + ky) * width + ox + kx


def _im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int, tables: IndexTables
) -> Tuple[np.ndarray, int, int]:
    """Rearrange (N, C, H, W) image patches into columns for convolution.

    Row ``(image, out_y, out_x)`` of the result holds that window's
    ``C * kernel * kernel`` values, gathered by one ``np.take`` through a
    table from ``tables``.  The matrix is C-contiguous, except for a single
    image: there it is the transpose of a C-contiguous
    ``(C * kernel * kernel, out_h * out_w)`` matrix.  BLAS picks its
    summation order from the operand layout, so that exception is part of the
    fixed-seed contract (a minibatch of one is the tail of most partitions).
    """
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    geometry = (c, x.shape[2], x.shape[3], kernel, stride, out_h, out_w)
    if n == 1:
        table = _index_table(tables, ("im2col", 1) + geometry, lambda: _window_offsets(*geometry))
        cols = np.take(x.reshape(1, -1), table, axis=1)
        # Not a copy: (out_h, out_w) and (c, kernel, kernel) each merge into
        # one axis of the (1, c, kernel, kernel, out_h, out_w) buffer taken.
        return cols.transpose(0, 4, 5, 1, 2, 3).reshape(out_h * out_w, -1), out_h, out_w
    table = _index_table(
        tables, ("im2col",) + geometry, lambda: _window_offsets(*geometry).transpose(3, 4, 0, 1, 2)
    )
    return np.take(x.reshape(n, -1), table, axis=1).reshape(n * out_h * out_w, -1), out_h, out_w


def _col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
    tables: IndexTables,
) -> np.ndarray:
    """Inverse of :func:`_im2col`, accumulating overlapping patches.

    One ``np.add.at`` into a zeros buffer.  Its table lists the entries
    kernel offset by kernel offset, (ky, kx) outermost, so every element
    sums its contributions in the same order as one slice addition per
    offset would — the same floating-point result, ``-0.0`` included.
    """
    n, c, h, w = input_shape
    height, width = h + 2 * padding, w + 2 * padding

    def build() -> np.ndarray:
        image = np.arange(n).reshape(-1, 1, 1, 1, 1, 1) * (c * height * width)
        offsets = image + _window_offsets(c, height, width, kernel, stride, out_h, out_w)
        return offsets.transpose(2, 3, 0, 1, 4, 5).reshape(-1)

    table = _index_table(tables, ("col2im", n, c, height, width, kernel, stride, out_h, out_w), build)
    padded = np.zeros((n, c, height, width), dtype=cols.dtype)
    # Entries in the table's order: (ky, kx, image, channel, out_y, out_x).
    values = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(4, 5, 0, 3, 1, 2)
    np.add.at(padded.reshape(-1), table, values.reshape(-1))
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class Conv2d(Layer):
    """2-D convolution over (N, C, H, W) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("Conv2d dimensions must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        rng = rng or np.random.default_rng(0)
        fan_in = in_channels * kernel_size * kernel_size
        fan_out = out_channels * kernel_size * kernel_size
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        self.weight = rng.uniform(
            -limit, limit, size=(out_channels, in_channels, kernel_size, kernel_size)
        ).astype(np.float64)
        self.bias = np.zeros(out_channels, dtype=np.float64)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int], int, int]] = None
        self._index_tables = IndexTables()

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols, out_h, out_w = self.columns(x)
        self._cache = (cols, x.shape, out_h, out_w) if self.training else None
        return self._convolve(cols, x.shape[0], out_h, out_w)

    def columns(self, x: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """The im2col matrix of ``x`` with the output height and width: the
        part of :meth:`forward` that does not read the weights."""
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects a 4-D input, got shape {x.shape}")
        if x.shape[1] != self.weight.shape[1]:
            raise ValueError(
                f"Conv2d expects {self.weight.shape[1]} input channels, got {x.shape[1]}"
            )
        return _im2col(x, self.kernel_size, self.stride, self.padding, self._index_tables)

    def forward_columns(self, cols: np.ndarray, n: int, out_h: int, out_w: int) -> np.ndarray:
        """:meth:`forward` of an ``n``-image batch from its :meth:`columns`,
        keeping nothing for :meth:`backward` (evaluation mode)."""
        self._cache = None
        return self._convolve(cols, n, out_h, out_w)

    def _convolve(self, cols: np.ndarray, n: int, out_h: int, out_w: int) -> np.ndarray:
        w_col = self.weight.reshape(self.weight.shape[0], -1)
        out = cols @ w_col.T
        out += self.bias
        return out.reshape(n, out_h, out_w, -1).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_cols = self._parameter_gradients(grad_output)
        _, input_shape, out_h, out_w = self._cache
        w_col = self.weight.reshape(self.weight.shape[0], -1)
        return _col2im(
            grad_cols @ w_col,
            input_shape,
            self.kernel_size,
            self.stride,
            self.padding,
            out_h,
            out_w,
            self._index_tables,
        )

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        self._parameter_gradients(grad_output)

    def _parameter_gradients(self, grad_output: np.ndarray) -> np.ndarray:
        """Set ``grad_weight`` / ``grad_bias``; returns ``grad_output`` as columns."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, input_shape, out_h, out_w = self._cache
        n = input_shape[0]
        grad_cols = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, -1)
        self.grad_weight = (grad_cols.T @ cols).reshape(self.weight.shape)
        self.grad_bias = grad_cols.sum(axis=0)
        return grad_cols

    def parameters(self) -> List[np.ndarray]:
        return [self.weight, self.bias]

    def gradients(self) -> List[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


def _fmax_taps(taps: List[np.ndarray]) -> np.ndarray:
    """Element-wise ``np.fmax`` of equally shaped views, in a new array laid
    out like them."""
    if len(taps) == 1:
        return np.array(taps[0], order="K")
    out = np.fmax(taps[0], taps[1])
    for tap in taps[2:]:
        np.fmax(out, tap, out=out)
    return out


def _window_maximum(
    x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> Optional[np.ndarray]:
    """Max pooling as a running ``np.maximum`` over the k² strided window
    views, or ``None`` where that could differ from the first-argmax gather.

    The two agree bit for bit when no element has its sign bit set and no
    NaN reaches the output: among non-negative, non-NaN floats equal values
    have equal bits, so which of a window's maxima wins cannot show.  A
    ``-0.0`` tying a ``+0.0``, or a NaN, is left to the gather.
    """
    if np.signbit(x).any():
        return None
    rows, cols = stride * (out_h - 1) + 1, stride * (out_w - 1) + 1
    views = (
        x[:, :, ky : ky + rows : stride, kx : kx + cols : stride]
        for ky in range(kernel)
        for kx in range(kernel)
    )
    # Reduce in the input's memory order (NHWC behind a convolution), then
    # hand on the C-contiguous layout the gather returns.
    out = np.array(next(views), order="K")
    for view in views:
        np.maximum(out, view, out=out)
    if np.isnan(out).any():
        return None
    return np.ascontiguousarray(out)


class MaxPool2d(Layer):
    """Max pooling over non-overlapping or strided windows of a 4-D input."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None):
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        if stride is not None and stride <= 0:
            raise ValueError(f"stride must be positive (or None for kernel_size), got {stride}")
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...], np.dtype, int, int]] = None
        self._index_tables = IndexTables()

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w, out_h, out_w = self._geometry(x)
        k, s = self.kernel_size, self.stride
        if not self.training:
            self._cache = None
            out = _window_maximum(x, k, s, out_h, out_w)
            if out is not None:
                return out
        # One row per window, (channel, out_y, out_x) order: channels pooled
        # independently.
        geometry = (c, h, w, k, s, out_h, out_w)
        table = _index_table(
            self._index_tables,
            ("pool",) + geometry,
            lambda: _window_offsets(*geometry).transpose(0, 3, 4, 1, 2),
        )
        cols = np.take(x.reshape(n, -1), table, axis=1).reshape(-1, k * k)
        argmax = cols.argmax(axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        self._cache = (argmax, x.shape, x.dtype, out_h, out_w) if self.training else None
        return out.reshape(n, c, out_h, out_w)

    def forward_rectified(self, x: np.ndarray) -> np.ndarray:
        """Evaluation-mode ``forward(ReLU().forward(x))`` without the ReLU's
        full-size pass or the sign and NaN scans.

        The window maximum of the raw ``x`` is taken with ``np.fmax``, which
        ignores NaN, and the ReLU (``fmax(·, 0.0) + 0.0``) is applied to the
        pooled tensor.  That gives the same bits for every input.  A ReLU
        output is a non-NaN float in [+0.0, +inf] with no ``-0.0``, so its
        window maximum is ``max(0, the largest non-NaN element)``, written
        +0.0 when that is zero.  ``fmax`` over the window yields the largest
        non-NaN element whatever order it visits them in (NaN only when all
        are NaN; either zero when ``-0.0`` ties ``+0.0``); the ReLU then maps
        NaN, any zero and anything negative, ``-inf`` included, to +0.0 and
        keeps anything positive, ``+inf`` included.

        The order is rows of taps first, over whole image rows, then columns:
        behind a convolution the input is NHWC memory, where a whole row of
        one image is one contiguous run.
        """
        _, _, _, _, out_h, out_w = self._geometry(x)
        self._cache = None
        k, s = self.kernel_size, self.stride
        rows, cols = s * (out_h - 1) + 1, s * (out_w - 1) + 1
        tall = _fmax_taps([x[:, :, ky : ky + rows : s] for ky in range(k)])
        out = _fmax_taps([tall[:, :, :, kx : kx + cols : s] for kx in range(k)])
        # The ReLU writes the C-contiguous layout the gather returns.
        rectified = np.fmax(out, 0.0, order="C")
        rectified += 0.0
        return rectified

    def _geometry(self, x: np.ndarray) -> Tuple[int, int, int, int, int, int]:
        """``(n, c, h, w, out_h, out_w)`` of pooling the 4-D input ``x``."""
        if x.ndim != 4:
            raise ValueError("MaxPool2d expects a 4-D input")
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        return n, c, h, w, (h - k) // s + 1, (w - k) // s + 1

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        argmax, input_shape, dtype, out_h, out_w = self._cache
        n, c, h, w = input_shape
        k, s = self.kernel_size, self.stride
        grad_cols = np.zeros((argmax.shape[0], k * k), dtype=dtype)
        grad_cols[np.arange(argmax.shape[0]), argmax] = grad_output.reshape(-1)
        grad_input = _col2im(
            grad_cols, (n * c, 1, h, w), k, s, 0, out_h, out_w, self._index_tables
        )
        return grad_input.reshape(n, c, h, w)


class Sequential(Layer):
    """Chain of layers applied in order."""

    def __init__(self, layers: List[Layer]):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training:
            return self.infer(x)
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: np.ndarray, start: int = 0) -> np.ndarray:
        """Evaluation-mode forward of ``x`` through ``layers[start:]``.

        A :class:`ReLU` directly followed by a :class:`MaxPool2d` runs as
        :meth:`MaxPool2d.forward_rectified`: the same bits as the two
        forwards one after the other.
        """
        if self.training:
            raise RuntimeError("infer runs the network in evaluation mode only")
        layers = self.layers
        end = len(layers)
        i = start
        while i < end:
            layer = layers[i]
            if type(layer) is ReLU and i + 1 < end and type(layers[i + 1]) is MaxPool2d:
                layer._mask = None
                x = layers[i + 1].forward_rectified(x)
                i += 2
            else:
                x = layer.forward(x)
                i += 1
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        for layer in reversed(self.layers[1:]):
            grad_output = layer.backward(grad_output)
        self.layers[0].backward_parameters(grad_output)

    def parameters(self) -> List[np.ndarray]:
        params: List[np.ndarray] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def gradients(self) -> List[np.ndarray]:
        grads: List[np.ndarray] = []
        for layer in self.layers:
            grads.extend(layer.gradients())
        return grads

    def set_parameters(self, params: List[np.ndarray]) -> None:
        offset = 0
        for layer in self.layers:
            count = len(layer.parameters())
            if count:
                layer.set_parameters(params[offset : offset + count])
            offset += count
        if offset != len(params):
            raise ValueError(
                f"Sequential expected {offset} parameter tensors, got {len(params)}"
            )

    def train(self) -> None:
        self.training = True
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        self.training = False
        for layer in self.layers:
            layer.eval()
