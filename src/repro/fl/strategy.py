"""Server-side aggregation strategies.

``FedAvg`` is the sample-weighted average of McMahan et al.; ``FedYogi`` and
``FedAdagrad`` follow the adaptive-federated-optimisation formulation of
Reddi et al. (2021): the strategy keeps server-side optimizer state and
applies the averaged client update as a pseudo-gradient.  UnifyFL's
flexibility experiment (Table 5 Run 4) mixes FedAvg and FedYogi aggregators
within the same federation, which these classes make possible because each
aggregator owns its own strategy instance.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.fl.client import FitResult
from repro.ml.optim import Adagrad, Optimizer, Yogi
from repro.ml.tensor_utils import average_weights, subtract_weights


class Strategy:
    """Base class: merge weighted models into new global weights.

    A strategy implements one method, :meth:`aggregate_stream`, over
    ``(weights, coefficient)`` pairs; :meth:`aggregate` adapts client fit
    results to it, weighting each by its sample count.
    """

    name = "strategy"

    def aggregate(
        self,
        current_weights: List[np.ndarray],
        results: Sequence[FitResult],
    ) -> List[np.ndarray]:
        """Produce new global weights from the previous weights and client updates."""
        return self.aggregate_stream(
            current_weights, [(r.weights, float(r.num_samples)) for r in results]
        )

    def aggregate_stream(
        self,
        current_weights: List[np.ndarray],
        contributions: Iterable[Tuple[List[np.ndarray], float]],
    ) -> List[np.ndarray]:
        """Merge ``(weights, coefficient)`` pairs into new global weights.

        With no contributions the result is ``current_weights`` itself: weight
        lists are shared read-only, never written in place.
        UnifyFL's aggregators re-use their in-cluster strategy when combining
        the global models pulled from other silos, passing each with
        coefficient 1.
        """
        raise NotImplementedError


class FedAvg(Strategy):
    """Coefficient-weighted averaging of models (sample counts for clients)."""

    name = "fedavg"

    def aggregate_stream(
        self,
        current_weights: List[np.ndarray],
        contributions: Iterable[Tuple[List[np.ndarray], float]],
    ) -> List[np.ndarray]:
        pairs = list(contributions)
        if not pairs:
            return current_weights
        weight_sets, coefficients = zip(*pairs)
        return average_weights(weight_sets, coefficients)


class _ServerOptStrategy(Strategy):
    """Shared machinery for strategies that apply a server-side optimizer."""

    def __init__(self, optimizer: Optimizer):
        self._optimizer = optimizer

    def aggregate_stream(
        self,
        current_weights: List[np.ndarray],
        contributions: Iterable[Tuple[List[np.ndarray], float]],
    ) -> List[np.ndarray]:
        pairs = list(contributions)
        if not pairs:
            return current_weights
        averaged = FedAvg().aggregate_stream(current_weights, pairs)
        # Pseudo-gradient: the negative of the average client movement.
        pseudo_grad = subtract_weights(current_weights, averaged)
        new_weights = [np.array(w, copy=True) for w in current_weights]
        self._optimizer.step(new_weights, pseudo_grad)
        return new_weights

    def reset(self) -> None:
        """Clear the server optimizer's state (used between experiments)."""
        self._optimizer.reset()


class FedYogi(_ServerOptStrategy):
    """FedYogi: server-side Yogi optimizer applied to the averaged update."""

    name = "fedyogi"

    def __init__(self, learning_rate: float = 0.05, beta1: float = 0.9, beta2: float = 0.99, eps: float = 1e-3):
        super().__init__(Yogi(learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps))


class FedAdagrad(_ServerOptStrategy):
    """FedAdagrad: server-side Adagrad optimizer applied to the averaged update."""

    name = "fedadagrad"

    def __init__(self, learning_rate: float = 0.05, eps: float = 1e-6):
        super().__init__(Adagrad(learning_rate=learning_rate, eps=eps))


_STRATEGIES: Dict[str, type] = {
    "fedavg": FedAvg,
    "fedyogi": FedYogi,
    "fedadagrad": FedAdagrad,
}


def build_strategy(name: str, **kwargs) -> Strategy:
    """Construct a strategy by name (``fedavg``, ``fedyogi``, ``fedadagrad``)."""
    key = name.lower()
    if key not in _STRATEGIES:
        raise ValueError(f"unknown strategy '{name}'; available: {sorted(_STRATEGIES)}")
    return _STRATEGIES[key](**kwargs)
