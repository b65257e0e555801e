"""Baselines the paper compares UnifyFL against.

* :class:`NoCollabBaseline` — each cluster trains alone (traditional
  single-silo FL); this is the "No Collab" half of Table 1.
* :class:`CentralizedMultilevelBaseline` — the HBFL-style oracle: a trusted
  central third-party aggregator merges every cluster's model each round and
  pushes the result back to all clusters (Section 1.1.2, Table 1 "Collab" and
  Table 5 Run 1).
* :class:`SingleLevelFL` — all clients of every organisation join one flat
  federation under a single aggregator (the 12-client comparison point of
  Section 4.2.3 and the scalability study of Section 4.2.6).

Every silo round of a baseline is the one ``UnifyFLAggregator`` runs:
``strategy.aggregate(weights, [fit(client, weights) for client in clients])``,
starting from the runner's ``initial_weights``; the runner's ``fit`` is
:func:`~repro.fl.client.fit_and_replay`, so a sanitized run replays every
baseline fit as it does an aggregator's.  Every model is scored by the
run's :class:`~repro.ml.evaluation.Evaluator`, so a baseline holds no network
of its own and a model another baseline already scored is not scored again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ClusterConfig, WorkloadConfig
from repro.core.timing import ClusterTimingModel
from repro.datasets.synthetic import Dataset
from repro.fl.client import Client, FitResult
from repro.fl.strategy import FedAvg, Strategy, build_strategy
from repro.ml.evaluation import Evaluator

Weights = List[np.ndarray]


@dataclass
class BaselineClusterResult:
    """Final metrics of one cluster under a baseline."""

    name: str
    accuracy: float
    loss: float
    global_accuracy: float = float("nan")
    global_loss: float = float("nan")
    total_time: float = 0.0
    accuracy_history: List[float] = field(default_factory=list)


@dataclass
class BaselineResult:
    """Outcome of a baseline run."""

    baseline: str
    clusters: List[BaselineClusterResult]
    global_accuracy: float = float("nan")
    global_loss: float = float("nan")
    total_time: float = 0.0
    global_accuracy_history: List[float] = field(default_factory=list)


def _train_silo(
    clients: Sequence[Client],
    strategy: Strategy,
    weights: Weights,
    evaluator: Evaluator,
    eval_data: Dataset,
    num_rounds: int,
    fit: Callable[[Client, Weights], FitResult] = Client.fit,
) -> List[Tuple[float, float]]:
    """``(loss, accuracy)`` of a silo's model after each of ``num_rounds`` rounds."""
    if num_rounds <= 0:
        raise ValueError("num_rounds must be positive")
    if not clients:
        raise ValueError("a silo needs at least one client")
    evaluations = []
    for _ in range(num_rounds):
        weights = strategy.aggregate(weights, [fit(client, weights) for client in clients])
        evaluations.append(evaluator.evaluate(weights, eval_data))
    return evaluations


class NoCollabBaseline:
    """Independent per-cluster training with no cross-silo exchange."""

    name = "no_collab"

    def __init__(
        self,
        workload: WorkloadConfig,
        clusters: Sequence[ClusterConfig],
        cluster_clients: Dict[str, List[Client]],
        initial_weights: Weights,
        evaluator: Evaluator,
        eval_data: Dataset,
        timing_model: Optional[ClusterTimingModel] = None,
        fit: Callable[[Client, Weights], FitResult] = Client.fit,
    ):
        self.workload = workload
        self.clusters = list(clusters)
        self.cluster_clients = cluster_clients
        self.initial_weights = initial_weights
        self.evaluator = evaluator
        self.eval_data = eval_data
        self.timing = timing_model or ClusterTimingModel(workload)
        self.fit = fit

    def run(self, num_rounds: int) -> BaselineResult:
        """Train every cluster independently for ``num_rounds`` rounds."""
        results: List[BaselineClusterResult] = []
        for cluster in self.clusters:
            evaluations = _train_silo(
                self.cluster_clients[cluster.name],
                build_strategy(cluster.strategy),
                self.initial_weights,
                self.evaluator,
                self.eval_data,
                num_rounds,
                self.fit,
            )
            per_round = self.timing.client_training_time(cluster, jitter=False) + \
                self.timing.aggregation_time(cluster, cluster.num_clients)
            loss, accuracy = evaluations[-1]
            results.append(
                BaselineClusterResult(
                    name=cluster.name,
                    accuracy=accuracy,
                    loss=loss,
                    total_time=num_rounds * per_round,
                    accuracy_history=[a for _, a in evaluations],
                )
            )
        return BaselineResult(
            baseline=self.name,
            clusters=results,
            total_time=max(r.total_time for r in results),
        )


class CentralizedMultilevelBaseline:
    """The trusted-third-party multilevel FL oracle (HBFL-style)."""

    name = "centralized_multilevel"

    def __init__(
        self,
        workload: WorkloadConfig,
        clusters: Sequence[ClusterConfig],
        cluster_clients: Dict[str, List[Client]],
        initial_weights: Weights,
        evaluator: Evaluator,
        eval_data: Dataset,
        timing_model: Optional[ClusterTimingModel] = None,
        central_strategy: Optional[Strategy] = None,
        fit: Callable[[Client, Weights], FitResult] = Client.fit,
    ):
        self.workload = workload
        self.clusters = list(clusters)
        self.cluster_clients = cluster_clients
        self.initial_weights = initial_weights
        self.evaluator = evaluator
        self.eval_data = eval_data
        self.timing = timing_model or ClusterTimingModel(workload)
        self.central_strategy = central_strategy or FedAvg()
        self.fit = fit
        # HBFL is itself a synchronous, blockchain-backed multilevel system: every
        # round all clusters train inside a provisioned phase window and the
        # reducer validates/aggregates before the next round starts.  The round
        # duration therefore matches Sync UnifyFL's provisioned windows, which is
        # also what the paper measures (6230 s vs 6380 s over 50 rounds).
        self._round_duration = self.timing.expected_training_window(self.clusters) + \
            self.timing.expected_scoring_window(self.clusters)

    def run(self, num_rounds: int) -> BaselineResult:
        """Run multilevel FL: local FL per cluster, then central aggregation."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        strategies = {cluster.name: build_strategy(cluster.strategy) for cluster in self.clusters}
        global_weights = self.initial_weights
        cluster_metrics: Dict[str, Tuple[float, float]] = {}
        global_history: List[float] = []
        total_time = 0.0
        for _ in range(num_rounds):
            cluster_weights = []
            for cluster in self.clusters:
                clients = self.cluster_clients[cluster.name]
                weights = strategies[cluster.name].aggregate(
                    global_weights, [self.fit(client, global_weights) for client in clients]
                )
                cluster_weights.append(weights)
                cluster_metrics[cluster.name] = self.evaluator.evaluate(weights, self.eval_data)
            global_weights = self.central_strategy.aggregate_stream(
                global_weights, [(w, 1.0) for w in cluster_weights]
            )
            global_loss, global_accuracy = self.evaluator.evaluate(global_weights, self.eval_data)
            global_history.append(global_accuracy)
            # Every cluster waits out the provisioned training window, then the
            # central reducer validates and aggregates before the next round.
            total_time += self._round_duration

        # The last round's evaluation is the final global model's.
        results = [
            BaselineClusterResult(
                name=cluster.name,
                accuracy=cluster_metrics[cluster.name][1],
                loss=cluster_metrics[cluster.name][0],
                global_accuracy=global_accuracy,
                global_loss=global_loss,
                total_time=total_time,
            )
            for cluster in self.clusters
        ]
        return BaselineResult(
            baseline=self.name,
            clusters=results,
            global_accuracy=global_accuracy,
            global_loss=global_loss,
            total_time=total_time,
            global_accuracy_history=global_history,
        )


class SingleLevelFL:
    """One flat federation over every client of every organisation."""

    name = "single_level"

    def __init__(
        self,
        clients: Sequence[Client],
        initial_weights: Weights,
        evaluator: Evaluator,
        eval_data: Dataset,
        strategy: Optional[Strategy] = None,
        fit: Callable[[Client, Weights], FitResult] = Client.fit,
    ):
        self.clients = list(clients)
        self.initial_weights = initial_weights
        self.evaluator = evaluator
        self.eval_data = eval_data
        self.strategy = strategy or FedAvg()
        self.fit = fit

    def run(self, num_rounds: int) -> BaselineResult:
        """Run flat FedAvg over all clients for ``num_rounds`` rounds."""
        evaluations = _train_silo(
            self.clients,
            self.strategy,
            self.initial_weights,
            self.evaluator,
            self.eval_data,
            num_rounds,
            self.fit,
        )
        loss, accuracy = evaluations[-1]
        history = [a for _, a in evaluations]
        result = BaselineClusterResult(
            name="single-level",
            accuracy=accuracy,
            loss=loss,
            accuracy_history=history,
        )
        return BaselineResult(
            baseline=self.name,
            clusters=[result],
            global_accuracy=accuracy,
            global_loss=loss,
            global_accuracy_history=list(history),
        )
