"""Evaluation metrics for classification models."""

from __future__ import annotations

import numpy as np


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exactly matching labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    if y_true.size == 0:
        raise ValueError("cannot compute accuracy of an empty label array")
    return float((y_true == y_pred).mean())


def top_k_accuracy(y_true: np.ndarray, logits: np.ndarray, k: int = 5) -> float:
    """Fraction of samples whose true label appears in the top-k logits."""
    if k <= 0:
        raise ValueError("k must be positive")
    y_true = np.asarray(y_true)
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[0] != y_true.shape[0]:
        raise ValueError("logits must be (n_samples, n_classes) aligned with y_true")
    k = min(k, logits.shape[1])
    top_k = np.argsort(-logits, axis=1)[:, :k]
    hits = (top_k == y_true[:, None]).any(axis=1)
    return float(hits.mean())

