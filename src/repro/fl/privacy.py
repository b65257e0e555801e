"""Differential privacy for client updates (the paper's §5 Q3 future work).

UnifyFL inherits traditional FL's privacy model: raw data never leaves a
client, but model updates do.  The paper names Differential Privacy as the
first privacy-enhancing technique to integrate.  This module implements the
standard DP-FedAvg client-side mechanism:

1. compute the client's *update* (new weights minus the received global
   weights),
2. clip the update to an L2 norm bound ``clip_norm``, and
3. add Gaussian noise with standard deviation
   ``noise_multiplier * clip_norm`` to every coordinate.

The mechanism is exposed two ways: :class:`GaussianDPMechanism` for direct
use, and via :class:`repro.fl.client.ClientConfig`'s ``dp_clip_norm`` /
``dp_noise_multiplier`` fields, which make every client of a cluster privatise
its updates before they reach the aggregator (and therefore before anything is
published to the storage swarm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.ml.tensor_utils import add_weights, clip_weights, subtract_weights

Weights = List[np.ndarray]


@dataclass(frozen=True)
class PrivacyAccountant:
    """Tracks the (approximate) privacy budget spent across rounds.

    The accountant uses the simple composition bound for the Gaussian
    mechanism: each application with noise multiplier ``z`` is
    (ε₀, δ)-DP with ε₀ ≈ sqrt(2 ln(1.25/δ)) / z, and ε adds up linearly across
    rounds.  This is intentionally conservative (no moments accountant); it is
    meant to let experiments report a budget, not to be a tight analysis.
    """

    noise_multiplier: float
    delta: float = 1e-5

    def epsilon_per_round(self) -> float:
        """Approximate ε spent by one privatised update."""
        if self.noise_multiplier <= 0:
            return float("inf")
        return float(np.sqrt(2.0 * np.log(1.25 / self.delta)) / self.noise_multiplier)

    def epsilon_after(self, rounds: int) -> float:
        """Approximate cumulative ε after ``rounds`` privatised updates."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        return rounds * self.epsilon_per_round()


class GaussianDPMechanism:
    """Clip-and-noise mechanism applied to a client's model update."""

    def __init__(
        self,
        clip_norm: float = 1.0,
        noise_multiplier: float = 0.1,
        delta: float = 1e-5,
        rng: Optional[np.random.Generator] = None,
    ):
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self.accountant = PrivacyAccountant(noise_multiplier=noise_multiplier, delta=delta)
        self._rng = rng or np.random.default_rng(0)
        self._applications = 0

    def privatize_update(self, update: Sequence[np.ndarray]) -> Weights:
        """Clip an update to ``clip_norm`` and add calibrated Gaussian noise."""
        clipped = clip_weights(list(update), self.clip_norm)
        if self.noise_multiplier > 0:
            sigma = self.noise_multiplier * self.clip_norm
            clipped = [w + self._rng.normal(scale=sigma, size=w.shape) for w in clipped]
        self._applications += 1
        return clipped

    def privatize_weights(
        self, global_weights: Sequence[np.ndarray], new_weights: Sequence[np.ndarray]
    ) -> Weights:
        """Privatise trained weights relative to the global weights they started from.

        Returns weights equal to ``global_weights`` plus the privatised update,
        which is what the client reports to its aggregator.
        """
        update = subtract_weights(new_weights, global_weights)
        private_update = self.privatize_update(update)
        return add_weights(list(global_weights), private_update)

    def spent_epsilon(self) -> float:
        """Approximate cumulative ε spent through this mechanism so far."""
        return self.accountant.epsilon_after(self._applications)
