"""Model definitions used in the UnifyFL evaluation.

The paper trains two workloads (Table 4):

* a lightweight CNN with roughly 62K parameters on CIFAR-10 for the edge
  cluster, and
* VGG16 (138M parameters) on Tiny ImageNet for the GPU cluster.

Training a 138M-parameter network is neither feasible nor necessary for
reproducing the federated *dynamics* the paper measures, so :class:`MiniVGG`
keeps the VGG block structure (stacked 3x3 convolutions with max-pooling and a
fully connected head) at a width that trains in seconds on a CPU.  The
substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.ml.layers import (
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.ml.losses import CrossEntropyLoss, Loss
from repro.ml.optim import Optimizer, SGD


class PlannedBatch(NamedTuple):
    """One ``batch_size`` slice of an :class:`EvaluationPlan`."""

    #: the first layer's im2col columns of the slice when that layer is a
    #: :class:`Conv2d`, else the slice of ``x`` itself.
    inputs: np.ndarray
    #: ``(out_h, out_w)`` of the columns; ``None`` for a raw slice.
    out_hw: Optional[Tuple[int, int]]
    #: the slice of ``y``, checked to be 1-D, as long as the slice and
    #: non-negative; ``label_max`` is its largest label.
    labels: np.ndarray
    label_max: int
    #: ``np.arange(len(labels))``, the row index of the loss's gather.
    rows: np.ndarray


class EvaluationPlan(NamedTuple):
    """What :meth:`Model.evaluate` computes on one labelled set before the
    weights are read, built by :meth:`Model.evaluation_plan`."""

    size: int
    batch_size: int
    #: ``(in_channels, kernel, stride, padding)`` of the convolution whose
    #: columns the batches hold; ``None`` when they hold raw slices.
    geometry: Optional[Tuple[int, int, int, int]]
    batches: Tuple[PlannedBatch, ...]


def _column_geometry(layer: Layer) -> Optional[Tuple[int, int, int, int]]:
    """What a first layer's im2col columns depend on; ``None`` when it is
    not a :class:`Conv2d`."""
    if type(layer) is not Conv2d:
        return None
    return (layer.weight.shape[1], layer.kernel_size, layer.stride, layer.padding)


class Model:
    """A trainable classifier wrapping a :class:`Sequential` network.

    The model exposes the weight-list interface used throughout the
    federated-learning stack: :meth:`get_weights` returns copies of every
    parameter tensor and :meth:`set_weights` installs a compatible list.
    """

    def __init__(self, network: Sequential, num_classes: int, input_shape: Tuple[int, ...]):
        self.network = network
        self.num_classes = num_classes
        self.input_shape = tuple(input_shape)

    # -- parameter exchange -------------------------------------------------
    def get_weights(self) -> List[np.ndarray]:
        """Copies of every trainable parameter tensor, in layer order."""
        return [np.array(p, copy=True) for p in self.network.parameters()]

    def set_weights(self, weights: List[np.ndarray]) -> None:
        """Install a weight list previously produced by :meth:`get_weights`."""
        self.network.set_parameters(weights)

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(int(np.prod(p.shape)) for p in self.network.parameters()))

    # -- training / inference ----------------------------------------------
    @contextmanager
    def _evaluation_mode(self) -> Iterator[None]:
        """Run the network in evaluation mode, then restore the mode it was in."""
        if not self.network.training:
            yield
            return
        self.network.eval()
        try:
            yield
        finally:
            self.network.train()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return raw logits for a batch of inputs (evaluation mode)."""
        with self._evaluation_mode():
            return self.network.forward(x)

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        optimizer: Optimizer,
        loss_fn: Optional[Loss] = None,
    ) -> float:
        """Run a single optimisation step on one minibatch and return its loss."""
        loss_fn = loss_fn or CrossEntropyLoss()
        self.network.train()
        logits = self.network.forward(x)
        loss, grad = loss_fn.forward(logits, y)
        self.network.backward_parameters(grad)
        optimizer.step(self.network.parameters(), self.network.gradients())
        return loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 32,
        optimizer: Optional[Optimizer] = None,
        loss_fn: Optional[Loss] = None,
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
    ) -> List[float]:
        """Train for ``epochs`` passes over (x, y); returns mean loss per epoch."""
        if len(x) != len(y):
            raise ValueError("x and y must have the same number of samples")
        if len(x) == 0:
            return []
        optimizer = optimizer or SGD(learning_rate=0.01)
        loss_fn = loss_fn or CrossEntropyLoss()
        rng = rng or np.random.default_rng(0)
        epoch_losses: List[float] = []
        n = len(x)
        for _ in range(epochs):
            order = rng.permutation(n) if shuffle else np.arange(n)
            losses: List[float] = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                losses.append(self.train_batch(x[idx], y[idx], optimizer, loss_fn))
            epoch_losses.append(float(np.mean(losses)))
        return epoch_losses

    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int = 256,
        loss_fn: Optional[Loss] = None,
        plan: Optional[EvaluationPlan] = None,
    ) -> Tuple[float, float]:
        """Return (loss, accuracy) over a labelled evaluation set.

        ``plan`` is :meth:`evaluation_plan` of the same ``(x, y,
        batch_size)`` (its cross-entropy loss is the default one): each batch
        then starts from the held first-layer columns and the loss from the
        checked labels.  The result is the same bits.
        """
        if len(x) != len(y):
            raise ValueError("x and y must have the same number of samples")
        if len(x) == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        if plan is not None:
            if loss_fn is not None:
                raise ValueError("an evaluation plan evaluates the default cross-entropy loss")
            if (plan.size, plan.batch_size) != (len(x), batch_size):
                raise ValueError("the evaluation plan was built for another set or batch size")
            return self._evaluate_planned(plan)
        loss_fn = loss_fn or CrossEntropyLoss()
        total_loss = 0.0
        correct = 0
        with self._evaluation_mode():
            for start in range(0, len(x), batch_size):
                xb = x[start : start + batch_size]
                yb = y[start : start + batch_size]
                logits = self.network.forward(xb)
                total_loss += loss_fn.value(logits, yb) * len(xb)
                correct += int((logits.argmax(axis=1) == yb).sum())
        return total_loss / len(x), correct / len(x)

    def evaluation_plan(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> EvaluationPlan:
        """The part of :meth:`evaluate` on ``(x, y)`` that the weights do not
        change, batch by batch: the first layer's im2col columns (when it is
        a :class:`Conv2d`), the checked labels and their row index.

        A plan serves every model whose first layer has the same
        :func:`_column_geometry`; :meth:`evaluate` checks that.
        """
        if len(x) != len(y):
            raise ValueError("x and y must have the same number of samples")
        if len(x) == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        first = self.network.layers[0]
        geometry = _column_geometry(first)
        batches = []
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            labels = np.asarray(y[start : start + batch_size])
            if labels.ndim != 1 or labels.shape[0] != len(xb):
                raise ValueError("targets must be a 1-D label array matching the batch size")
            if labels.min() < 0:
                raise ValueError("target labels out of range for the given logits")
            if geometry is None:
                inputs, out_hw = xb, None
            else:
                inputs, out_h, out_w = first.columns(xb)
                out_hw = (out_h, out_w)
            batches.append(
                PlannedBatch(inputs, out_hw, labels, int(labels.max()), np.arange(len(xb)))
            )
        return EvaluationPlan(len(x), batch_size, geometry, tuple(batches))

    def _evaluate_planned(self, plan: EvaluationPlan) -> Tuple[float, float]:
        network = self.network
        first = network.layers[0]
        if plan.geometry != _column_geometry(first):
            raise ValueError("the evaluation plan was built for another first layer")
        total_loss = 0.0
        correct = 0
        with self._evaluation_mode():
            for inputs, out_hw, labels, label_max, rows in plan.batches:
                n = len(labels)
                if out_hw is None:
                    logits = network.infer(inputs)
                else:
                    logits = network.infer(first.forward_columns(inputs, n, *out_hw), 1)
                if logits.ndim != 2 or label_max >= logits.shape[1]:
                    raise ValueError("target labels out of range for the given logits")
                total_loss += CrossEntropyLoss.checked_value(logits, labels, rows) * n
                correct += int((logits.argmax(axis=1) == labels).sum())
        return total_loss / plan.size, correct / plan.size

    def clone(self) -> "Model":
        """An independent copy of this model, a pure function of its source.

        The copy carries its own parameter tensors and its own copy of every
        layer's other state — a ``Dropout`` generator at the source's
        position, ``BatchNorm1d`` running statistics — so two clones of one
        model, trained on the same inputs, end on the same bytes, and no
        random initialisation is drawn only to be overwritten.
        """
        return copy.deepcopy(self)


class MLP(Model):
    """Multi-layer perceptron over flattened inputs; used in unit tests."""

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Tuple[int, ...] = (32,),
        num_classes: int = 2,
        seed: Optional[int] = None,
    ):
        rng = np.random.default_rng(seed)
        layers: List[Layer] = []
        prev = input_dim
        for hidden in hidden_dims:
            layers.append(Dense(prev, hidden, rng=rng))
            layers.append(ReLU())
            prev = hidden
        layers.append(Dense(prev, num_classes, rng=rng))
        super().__init__(Sequential(layers), num_classes, (input_dim,))


class SimpleCNN(Model):
    """The lightweight CNN of the paper's CIFAR-10 edge workload (~62K params).

    Structure: two convolution + pooling blocks followed by two dense layers,
    matching the classic Flower/McMahan CIFAR example the paper bases its
    62K-parameter count on.
    """

    def __init__(
        self,
        in_channels: int = 3,
        image_size: int = 16,
        num_classes: int = 10,
        conv_channels: Tuple[int, int] = (6, 16),
        hidden_dim: int = 64,
        seed: Optional[int] = None,
    ):
        rng = np.random.default_rng(seed)
        c1, c2 = conv_channels
        after_pool1 = image_size // 2
        after_pool2 = after_pool1 // 2
        flat = c2 * after_pool2 * after_pool2
        if flat <= 0:
            raise ValueError("image_size too small for two pooling stages")
        layers: List[Layer] = [
            Conv2d(in_channels, c1, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(c1, c2, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(flat, hidden_dim, rng=rng),
            ReLU(),
            Dense(hidden_dim, num_classes, rng=rng),
        ]
        super().__init__(Sequential(layers), num_classes, (in_channels, image_size, image_size))


class MiniVGG(Model):
    """A scaled-down VGG used in place of the paper's 138M-parameter VGG16.

    Keeps the VGG idiom — stacked 3x3 convolutions, doubling channel widths,
    2x2 max pooling between blocks, and a dense classifier head with dropout —
    at a size that trains quickly on synthetic Tiny-ImageNet-like data.
    """

    def __init__(
        self,
        in_channels: int = 3,
        image_size: int = 16,
        num_classes: int = 200,
        base_channels: int = 8,
        hidden_dim: int = 128,
        dropout: float = 0.0,
        seed: Optional[int] = None,
    ):
        rng = np.random.default_rng(seed)
        c1, c2 = base_channels, base_channels * 2
        after_block1 = image_size // 2
        after_block2 = after_block1 // 2
        flat = c2 * after_block2 * after_block2
        if flat <= 0:
            raise ValueError("image_size too small for the MiniVGG pooling stages")
        layers: List[Layer] = [
            Conv2d(in_channels, c1, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2d(c1, c1, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(c1, c2, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Conv2d(c2, c2, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(flat, hidden_dim, rng=rng),
            ReLU(),
        ]
        if dropout > 0:
            layers.append(Dropout(dropout, rng=rng))
        layers.append(Dense(hidden_dim, num_classes, rng=rng))
        super().__init__(Sequential(layers), num_classes, (in_channels, image_size, image_size))


_MODEL_REGISTRY: Dict[str, Callable[..., Model]] = {
    "mlp": MLP,
    "simple_cnn": SimpleCNN,
    "cnn": SimpleCNN,
    "mini_vgg": MiniVGG,
    "vgg": MiniVGG,
}

#: the registry names of the image models, which take ``image_size``; each
#: pools twice, so an image side below 4 leaves them nothing to classify.
IMAGE_MODELS = ("simple_cnn", "cnn", "mini_vgg", "vgg")


def available_models() -> List[str]:
    """Names accepted by :func:`build_model`."""
    return sorted(_MODEL_REGISTRY)


def build_model(name: str, **kwargs) -> Model:
    """Construct a model from the registry by name."""
    key = name.lower()
    if key not in _MODEL_REGISTRY:
        raise ValueError(f"unknown model '{name}'; available: {available_models()}")
    return _MODEL_REGISTRY[key](**kwargs)


def count_parameters(model: Model) -> int:
    """Convenience alias for :meth:`Model.num_parameters`."""
    return model.num_parameters()
