"""Classification and regression losses with analytic gradients."""

from __future__ import annotations

from typing import Tuple

import numpy as np


class Loss:
    """Base class: ``forward`` returns (loss, gradient w.r.t. predictions)."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        raise NotImplementedError

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """The loss ``forward`` returns, without its gradient."""
        return self.forward(predictions, targets)[0]

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        return self.forward(predictions, targets)


class CrossEntropyLoss(Loss):
    """Softmax cross-entropy over integer class labels.

    ``predictions`` are unnormalised logits of shape (batch, classes) and
    ``targets`` are integer labels of shape (batch,).  The returned gradient
    is with respect to the logits (softmax fused into the loss).

    :meth:`value` computes the loss alone: only the target class's
    probability of each row is divided out, and no gradient is built.
    """

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        targets = _checked_labels(predictions, targets)
        n = predictions.shape[0]
        shifted = predictions - predictions.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        eps = 1e-12
        loss = float(-np.log(probs[np.arange(n), targets] + eps).mean())
        grad = probs.copy()
        grad[np.arange(n), targets] -= 1.0
        return loss, grad / n

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        targets = _checked_labels(predictions, targets)
        return self.checked_value(predictions, targets, np.arange(targets.shape[0]))

    @staticmethod
    def checked_value(predictions: np.ndarray, targets: np.ndarray, rows: np.ndarray) -> float:
        """:meth:`value` for labels already checked against ``predictions``;
        ``rows`` is ``np.arange(len(targets))``.

        Bit-equal to ``forward``'s loss: each picked probability is the same
        single division ``exp / row sum`` that ``forward`` makes for every
        entry, and ``-x.sum() / n`` is what ``-x.mean()`` computes.
        """
        shifted = predictions - predictions.max(axis=1, keepdims=True)
        exp = np.exp(shifted, out=shifted)
        picked = exp[rows, targets] / exp.sum(axis=1)
        picked += 1e-12
        return float(-np.log(picked, out=picked).sum() / rows.shape[0])


def _checked_labels(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``targets`` as an array, checked to label every row of the 2-D
    ``predictions`` with a class it has a column for."""
    if predictions.ndim != 2:
        raise ValueError("CrossEntropyLoss expects 2-D logits")
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.shape[0] != predictions.shape[0]:
        raise ValueError("targets must be a 1-D label array matching the batch size")
    if targets.min() < 0 or targets.max() >= predictions.shape[1]:
        raise ValueError("target labels out of range for the given logits")
    return targets


class MSELoss(Loss):
    """Mean squared error; used by regression examples and sanity tests."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise ValueError("MSELoss requires predictions and targets of equal shape")
        diff = predictions - targets
        loss = float(np.mean(diff**2))
        grad = 2.0 * diff / diff.size
        return loss, grad
