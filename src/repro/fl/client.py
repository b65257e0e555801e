"""Federated learning clients.

Clients hold a private partition of the training data, receive global weights
from their cluster's aggregator, train locally for a small number of epochs,
and return the updated weights together with sample counts and metrics —
exactly the Flower ``fit`` contract the paper's clients follow
(Section 3.4.5: "clients operate as standard Flower clients and remain
unaffected by the changes made to the aggregators").

That contract makes the network a client trains on scratch space: ``fit``
opens by installing the global weights and closes by reading the trained ones
out, so nothing in the network survives from one fit to the next.  What a
client *owns* is its partition, its generator, its optimizer and its DP
mechanism; the network may be its own or one that every client of a run takes
turns on (:class:`~repro.core.runner.ExperimentRunner` hands out one).  The
partition may likewise be a dataset of its own or rows of one its cluster's
clients share: the runner's clients hold their cluster's shard and the row
indices their partitioner drew, and gather the rows only while they fit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.ml.losses import CrossEntropyLoss
from repro.ml.models import Model
from repro.ml.optim import Optimizer, build_optimizer


@dataclass
class ClientConfig:
    """Hyper-parameters of local training (Table 4 of the paper).

    The two ``dp_*`` fields enable the differential-privacy extension of the
    paper's Section 5: when ``dp_clip_norm`` is set, every update the client
    reports is clipped to that L2 norm and perturbed with Gaussian noise of
    scale ``dp_noise_multiplier * dp_clip_norm``
    (see :mod:`repro.fl.privacy`).
    """

    local_epochs: int = 2
    batch_size: int = 5
    learning_rate: float = 0.01
    optimizer: str = "sgd"
    momentum: float = 0.0
    seed: Optional[int] = None
    dp_clip_norm: Optional[float] = None
    dp_noise_multiplier: float = 0.0

    def __post_init__(self) -> None:
        if self.local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.dp_clip_norm is not None and self.dp_clip_norm <= 0:
            raise ValueError("dp_clip_norm must be positive when set")
        if self.dp_noise_multiplier < 0:
            raise ValueError("dp_noise_multiplier must be non-negative")
        if self.dp_noise_multiplier > 0 and self.dp_clip_norm is None:
            raise ValueError("dp_noise_multiplier > 0 needs dp_clip_norm to be set")


@dataclass
class FitResult:
    """Outcome of one local-training request to a client."""

    client_id: str
    weights: List[np.ndarray]
    num_samples: int
    metrics: Dict[str, float] = field(default_factory=dict)


class Client:
    """An FL client: a private data partition and the state local training advances.

    ``model`` is the network ``fit`` runs on.  ``fit`` installs the weights it
    is given first, so the same ``Model`` object may serve any number of
    clients one after another; the client keeps no weights.  Models are
    scored by whoever holds the evaluation data (the run's
    :class:`~repro.ml.evaluation.Evaluator`), not by clients.

    The partition is ``train_data``, or with ``indices`` the rows of
    ``train_data`` they name: ``fit`` gathers ``train_data.x[indices]`` /
    ``train_data.y[indices]`` — the arrays ``train_data.subset(indices)``
    holds — and keeps nothing afterwards.
    """

    def __init__(
        self,
        client_id: str,
        model: Model,
        train_data: Dataset,
        config: Optional[ClientConfig] = None,
        indices: Optional[np.ndarray] = None,
    ):
        self.client_id = client_id
        self.model = model
        self.train_data = train_data
        self.indices = None if indices is None else np.asarray(indices, dtype=np.int64)
        if self.num_samples == 0:
            raise ValueError(f"client {client_id} has an empty training partition")
        self.config = config or ClientConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self._optimizer: Optimizer = self._build_optimizer()
        self._dp_mechanism = None
        if self.config.dp_clip_norm is not None:
            from repro.fl.privacy import GaussianDPMechanism

            self._dp_mechanism = GaussianDPMechanism(
                clip_norm=self.config.dp_clip_norm,
                noise_multiplier=self.config.dp_noise_multiplier,
                rng=self._rng,
            )

    def _build_optimizer(self) -> Optimizer:
        kwargs: Dict[str, float] = {"learning_rate": self.config.learning_rate}
        if self.config.optimizer.lower() == "sgd":
            kwargs["momentum"] = self.config.momentum
        return build_optimizer(self.config.optimizer, **kwargs)

    @property
    def num_samples(self) -> int:
        """Size of this client's private training partition."""
        return len(self.train_data) if self.indices is None else len(self.indices)

    def partition(self) -> Tuple[np.ndarray, np.ndarray]:
        """This client's training samples and labels (gathered when index-held)."""
        if self.indices is None:
            return self.train_data.x, self.train_data.y
        return self.train_data.x[self.indices], self.train_data.y[self.indices]

    def private_twin(self, model: Model) -> "Client":
        """This client as it stands now, on a network of its own.

        The twin reads the same partition and carries copies of everything
        a fit advances — generator, optimizer state, DP mechanism — so its
        next ``fit`` replays this client's next ``fit`` without touching it
        (the sanitizer's oracle for a network shared between clients).
        """
        twin = copy.copy(self)
        twin.model = model
        # One deepcopy, so the twin's DP mechanism draws from the twin's generator.
        twin._rng, twin._optimizer, twin._dp_mechanism = copy.deepcopy(
            (self._rng, self._optimizer, self._dp_mechanism)
        )
        return twin

    def fit(self, global_weights: List[np.ndarray]) -> FitResult:
        """Install the global weights, train locally, and return the update."""
        self.model.set_weights(global_weights)
        x, y = self.partition()
        losses = self.model.fit(
            x,
            y,
            epochs=self.config.local_epochs,
            batch_size=self.config.batch_size,
            optimizer=self._optimizer,
            loss_fn=CrossEntropyLoss(),
            rng=self._rng,
        )
        metrics = {"train_loss": float(losses[-1]) if losses else float("nan")}
        reported_weights = self.model.get_weights()
        if self._dp_mechanism is not None:
            reported_weights = self._dp_mechanism.privatize_weights(global_weights, reported_weights)
            metrics["dp_epsilon_spent"] = self._dp_mechanism.spent_epsilon()
        return FitResult(
            client_id=self.client_id,
            weights=reported_weights,
            num_samples=self.num_samples,
            metrics=metrics,
        )


def fit_and_replay(
    client: Client,
    global_weights: List[np.ndarray],
    template: Model,
    sanitizer: Optional[Any] = None,
) -> FitResult:
    """``client.fit(global_weights)``, replayed when a sanitizer is attached.

    A run's clients take turns on one network, which is sound only while
    that network carries nothing between fits; under a
    :class:`~repro.analysis.sanitizer.SimulationSanitizer` the client's
    :meth:`~Client.private_twin` therefore replays the fit on a fresh clone
    of ``template`` and must report the same bytes.
    """
    if sanitizer is None:
        return client.fit(global_weights)
    twin = client.private_twin(template.clone())
    result = client.fit(global_weights)
    sanitizer.check_shared_training(result, twin.fit(global_weights))
    return result
