"""Single-silo federated learning framework (the Flower-equivalent substrate).

UnifyFL is implemented *on top of* an existing FL framework: inside every
silo (cluster), an aggregator coordinates its own clients through standard
FedAvg-style rounds.  This package provides that layer:

* :class:`~repro.fl.client.Client` — owns a local data partition and trains
  the global model for a configurable number of local epochs.
* :class:`~repro.fl.strategy.FedAvg` / :class:`~repro.fl.strategy.FedYogi` /
  :class:`~repro.fl.strategy.FedAdagrad` — aggregation strategies.

A silo round is ``strategy.aggregate(weights, [c.fit(weights) for c in clients])``:
:class:`~repro.core.aggregator.UnifyFLAggregator` runs it every round, and so
do the baselines of :mod:`repro.core.baselines`.
"""

from repro.fl.client import Client, ClientConfig, FitResult
from repro.fl.privacy import GaussianDPMechanism, PrivacyAccountant
from repro.fl.strategy import (
    FedAdagrad,
    FedAvg,
    FedYogi,
    Strategy,
    build_strategy,
)

__all__ = [
    "Client",
    "ClientConfig",
    "FitResult",
    "GaussianDPMechanism",
    "PrivacyAccountant",
    "FedAdagrad",
    "FedAvg",
    "FedYogi",
    "Strategy",
    "build_strategy",
]
