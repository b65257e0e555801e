"""Utilities for manipulating model weights as lists of numpy arrays.

Throughout the repository a model's parameters are exchanged as a list of
numpy arrays (the same convention the Flower framework uses).  These helpers
implement the vector-space operations federated aggregation and the MultiKRUM
scorer need: flattening, norms, distances and element-wise arithmetic.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

Weights = List[np.ndarray]


def read_only(weights: Weights) -> Weights:
    """Mark every tensor of ``weights`` not writeable and return the list.

    A read-only weight list is shared instead of copied: a holder that needs
    other values builds new arrays, and an in-place write raises instead of
    changing the model under every other holder.
    """
    for tensor in weights:
        tensor.setflags(write=False)
    return weights


def flatten_weights(weights: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate every parameter tensor into a single 1-D vector."""
    if not weights:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate([np.asarray(w, dtype=np.float64).ravel() for w in weights])


def unflatten_weights(
    vector: np.ndarray, template: Sequence[np.ndarray]
) -> Weights:
    """Reshape a flat vector back into the shapes given by ``template``.

    Raises:
        ValueError: if the vector length does not match the template size.
    """
    expected = sum(int(np.prod(w.shape)) for w in template)
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if vector.size != expected:
        raise ValueError(
            f"cannot unflatten vector of size {vector.size} into template of size {expected}"
        )
    out: Weights = []
    offset = 0
    for w in template:
        size = int(np.prod(w.shape))
        out.append(vector[offset : offset + size].reshape(w.shape).astype(w.dtype))
        offset += size
    return out


def zeros_like_weights(weights: Sequence[np.ndarray]) -> Weights:
    """Return a weight list of zeros with the same shapes and dtypes."""
    return [np.zeros_like(w) for w in weights]


def add_weights(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> Weights:
    """Element-wise sum of two weight lists."""
    _check_compatible(a, b)
    return [x + y for x, y in zip(a, b)]


def subtract_weights(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> Weights:
    """Element-wise difference ``a - b`` of two weight lists."""
    _check_compatible(a, b)
    return [x - y for x, y in zip(a, b)]


def scale_weights(weights: Sequence[np.ndarray], factor: float) -> Weights:
    """Multiply every parameter by a scalar."""
    return [w * factor for w in weights]


def average_weights(
    weight_sets: Sequence[Sequence[np.ndarray]],
    coefficients: Sequence[float] | None = None,
) -> Weights:
    """Weighted average of several weight lists.

    Args:
        weight_sets: one weight list per contributor.
        coefficients: optional non-negative mixing weights; normalised to sum
            to one.  Defaults to a uniform average.

    Raises:
        ValueError: if ``weight_sets`` is empty, coefficient length mismatches,
            a coefficient is negative, or the coefficients sum to zero.
    """
    if not weight_sets:
        raise ValueError("average_weights requires at least one weight set")
    if coefficients is None:
        coefficients = [1.0] * len(weight_sets)
    if len(coefficients) != len(weight_sets):
        raise ValueError("coefficients must match the number of weight sets")
    if min(coefficients) < 0:
        raise ValueError("coefficients must be non-negative")
    total = float(sum(coefficients))
    if total <= 0:
        raise ValueError("coefficients must sum to a positive value")
    normalised = np.array([float(c) / total for c in coefficients], dtype=np.float64)
    first = weight_sets[0]
    for weights in weight_sets[1:]:
        _check_compatible(first, weights)
    # One stacked contraction per layer instead of a per-contributor Python
    # loop: contributors go on axis 0 and the float64 coefficient row
    # contracts them away in one BLAS-backed ``dot`` -- the exact call
    # ``np.tensordot(normalised, stacked, axes=1)`` makes after its reshapes.
    # The result is cast to the dtype scalar-times-array accumulation would
    # have produced (floats keep their width, integer layers average in
    # float64).
    row = normalised.reshape(1, len(weight_sets))
    result: Weights = []
    for i in range(len(first)):
        stacked = np.array([weights[i] for weights in weight_sets])
        target = np.result_type(first[i].dtype, np.result_type(stacked.dtype, 1.0))
        flat = stacked.reshape(len(weight_sets), -1).astype(np.float64, copy=False)
        layer = np.dot(row, flat).reshape(stacked.shape[1:])
        result.append(layer.astype(target, copy=False))
    return result


def weights_norm(weights: Sequence[np.ndarray]) -> float:
    """L2 norm of the flattened parameter vector."""
    return float(np.linalg.norm(flatten_weights(weights)))


def weights_distance(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    """Euclidean distance between two parameter vectors."""
    _check_compatible(a, b)
    return float(np.linalg.norm(flatten_weights(a) - flatten_weights(b)))


def clip_weights(weights: Sequence[np.ndarray], max_norm: float) -> Weights:
    """Scale the weight list so its global L2 norm does not exceed ``max_norm``."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = weights_norm(weights)
    if norm <= max_norm or norm == 0.0:
        return [np.array(w, copy=True) for w in weights]
    return scale_weights(weights, max_norm / norm)


def weights_allclose(
    a: Sequence[np.ndarray], b: Sequence[np.ndarray], atol: float = 1e-8
) -> bool:
    """True when two weight lists have identical shapes and near-equal values."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.shape != y.shape:
            return False
        if not np.allclose(x, y, atol=atol):
            return False
    return True


def total_parameter_count(weights: Iterable[np.ndarray]) -> int:
    """Number of scalar parameters across a weight list."""
    return int(sum(int(np.prod(w.shape)) for w in weights))


def _check_compatible(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> None:
    if len(a) != len(b):
        raise ValueError(
            f"weight lists have different lengths: {len(a)} vs {len(b)}"
        )
    for i, (x, y) in enumerate(zip(a, b)):
        if x.shape != y.shape:
            raise ValueError(
                f"weight tensor {i} has mismatched shapes: {x.shape} vs {y.shape}"
            )
