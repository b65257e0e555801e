"""Minimal neural-network engine used as the training substrate for UnifyFL.

The paper trains PyTorch models (a 62K-parameter CNN on CIFAR-10 and VGG16 on
Tiny ImageNet).  This package provides an equivalent, dependency-free engine
built on numpy: layers with explicit forward/backward passes, classification
losses, SGD/Adam/Yogi optimizers, model definitions, evaluation metrics and a
weight (de)serialization format used by the distributed-storage layer.

The public surface mirrors what the federated-learning layer (``repro.fl``)
and the UnifyFL core (``repro.core``) need:

* :class:`~repro.ml.models.Model` — a sequential container exposing
  ``get_weights`` / ``set_weights`` as lists of numpy arrays.
* :func:`~repro.ml.models.build_model` — registry-based model construction.
* :class:`~repro.ml.optim.SGD`, :class:`~repro.ml.optim.Adam`,
  :class:`~repro.ml.optim.Yogi` — local and server-side optimizers.
* :func:`~repro.ml.serialization.weights_to_bytes` /
  :func:`~repro.ml.serialization.weights_from_bytes` — the wire format stored
  in the IPFS substrate.
"""

from repro.ml.distillation import (
    DistillationLoss,
    distill,
    ensemble_soft_labels,
    softmax_with_temperature,
)
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
)
from repro.ml.losses import CrossEntropyLoss, Loss, MSELoss
from repro.ml.metrics import accuracy_score, top_k_accuracy
from repro.ml.models import (
    MLP,
    MiniVGG,
    Model,
    SimpleCNN,
    available_models,
    build_model,
    count_parameters,
)
from repro.ml.optim import SGD, Adagrad, Adam, Optimizer, Yogi, build_optimizer
from repro.ml.serialization import (
    weights_checksum,
    weights_from_bytes,
    weights_to_bytes,
)
from repro.ml.tensor_utils import (
    flatten_weights,
    unflatten_weights,
    weights_distance,
    weights_norm,
    zeros_like_weights,
)

__all__ = [
    "DistillationLoss",
    "distill",
    "ensemble_soft_labels",
    "softmax_with_temperature",
    "BatchNorm1d",
    "Conv2d",
    "Dense",
    "Dropout",
    "Flatten",
    "Layer",
    "MaxPool2d",
    "ReLU",
    "Sequential",
    "Softmax",
    "CrossEntropyLoss",
    "Loss",
    "MSELoss",
    "accuracy_score",
    "top_k_accuracy",
    "MLP",
    "MiniVGG",
    "Model",
    "SimpleCNN",
    "available_models",
    "build_model",
    "count_parameters",
    "SGD",
    "Adagrad",
    "Adam",
    "Optimizer",
    "Yogi",
    "build_optimizer",
    "weights_checksum",
    "weights_from_bytes",
    "weights_to_bytes",
    "flatten_weights",
    "unflatten_weights",
    "weights_distance",
    "weights_norm",
    "zeros_like_weights",
]
