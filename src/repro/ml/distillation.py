"""Knowledge distillation between heterogeneous models.

The paper's Section 5 (Q1) names multi-model FL via knowledge distillation as
future work: organisations whose model architectures differ cannot average
weights, but they can still collaborate by matching each other's *predictions*.
This module provides the distillation primitives used by
:mod:`repro.core.multimodel`:

* :func:`softmax_with_temperature` — softened teacher/student distributions.
* :func:`ensemble_soft_labels` — average the softened predictions of several
  teacher models on a batch of (unlabeled) local data.
* :class:`DistillationLoss` — the standard KD objective: a weighted sum of the
  cross-entropy with the hard labels and the KL divergence from the teacher
  ensemble's soft labels (Hinton et al., 2015).
* :func:`distill` — train a student model against hard labels + soft labels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.losses import CrossEntropyLoss
from repro.ml.models import Model
from repro.ml.optim import Optimizer, SGD


def softmax_with_temperature(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax of ``logits / temperature``."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scaled = logits / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=-1, keepdims=True)


def ensemble_soft_labels(
    teachers: Sequence[Model], x: np.ndarray, temperature: float = 2.0, batch_size: int = 256
) -> np.ndarray:
    """Mean softened prediction of several teacher models on a batch of inputs.

    Teachers may have arbitrary architectures as long as they share the number
    of output classes; that is the whole point of distillation-based
    collaboration.
    """
    if not teachers:
        raise ValueError("ensemble_soft_labels requires at least one teacher")
    num_classes = {t.num_classes for t in teachers}
    if len(num_classes) != 1:
        raise ValueError("all teachers must predict over the same class set")
    accumulated: Optional[np.ndarray] = None
    for teacher in teachers:
        parts = []
        for start in range(0, len(x), batch_size):
            logits = teacher.predict(x[start : start + batch_size])
            parts.append(softmax_with_temperature(logits, temperature))
        probs = np.concatenate(parts, axis=0)
        accumulated = probs if accumulated is None else accumulated + probs
    return accumulated / len(teachers)


class DistillationLoss:
    """Weighted hard-label cross-entropy plus soft-label KL divergence.

    ``alpha`` is the weight of the distillation (soft) term; ``1 - alpha`` is
    the weight of the ordinary cross-entropy with the hard labels.  The
    gradient is returned with respect to the student's logits.
    """

    def __init__(self, alpha: float = 0.5, temperature: float = 2.0):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.alpha = alpha
        self.temperature = temperature
        self._hard_loss = CrossEntropyLoss()

    def forward(
        self, logits: np.ndarray, targets: np.ndarray, soft_targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        if logits.shape != soft_targets.shape:
            raise ValueError("soft_targets must match the logits shape")
        hard_loss, hard_grad = self._hard_loss.forward(logits, targets)
        student_soft = softmax_with_temperature(logits, self.temperature)
        eps = 1e-12
        kl = float(np.mean(np.sum(soft_targets * (np.log(soft_targets + eps) - np.log(student_soft + eps)), axis=1)))
        # d KL / d logits for softened softmax: (student_soft - soft_targets) / (T * batch).
        n = logits.shape[0]
        soft_grad = (student_soft - soft_targets) / (self.temperature * n)
        # The usual T^2 factor keeps the soft gradient scale comparable to the hard one.
        loss = (1 - self.alpha) * hard_loss + self.alpha * (self.temperature**2) * kl
        grad = (1 - self.alpha) * hard_grad + self.alpha * (self.temperature**2) * soft_grad
        return loss, grad


def distill(
    student: Model,
    teachers: Sequence[Model],
    x: np.ndarray,
    y: np.ndarray,
    epochs: int = 1,
    batch_size: int = 32,
    alpha: float = 0.5,
    temperature: float = 2.0,
    optimizer: Optional[Optimizer] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[float]:
    """Train ``student`` on (x, y) while matching the teachers' soft labels.

    Returns the mean loss of each epoch.  The student's architecture is
    unconstrained; only the class count must match the teachers'.
    """
    if len(x) != len(y):
        raise ValueError("x and y must have the same number of samples")
    if epochs <= 0 or batch_size <= 0:
        raise ValueError("epochs and batch_size must be positive")
    optimizer = optimizer or SGD(learning_rate=0.05)
    rng = rng or np.random.default_rng(0)
    loss_fn = DistillationLoss(alpha=alpha, temperature=temperature)
    soft_labels = ensemble_soft_labels(teachers, x, temperature=temperature)

    epoch_losses: List[float] = []
    n = len(x)
    for _ in range(epochs):
        order = rng.permutation(n)
        losses: List[float] = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            student.network.train()
            logits = student.network.forward(x[idx])
            loss, grad = loss_fn.forward(logits, y[idx], soft_labels[idx])
            student.network.backward_parameters(grad)
            optimizer.step(student.network.parameters(), student.network.gradients())
            losses.append(loss)
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses
