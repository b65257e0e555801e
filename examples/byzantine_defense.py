#!/usr/bin/env python
"""Defending against a Byzantine organisation with scoring policies (Figure 7).

Two honest organisations federate with a third that submits sign-flipped
(poisoned) models every round.  The example runs the same federation twice:

* with the *naive* policy (aggregate the top-3 models regardless of
  reliability), which keeps absorbing the poisoned model; and
* with the *smart* policy (aggregate only above-average models), which uses
  the majority scorers' accuracy scores to filter the attacker out.

It prints the honest organisations' accuracy over time under both policies and
the scores the attacker's submissions received on the smart run.

Run with:  python examples/byzantine_defense.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    ClusterConfig,
    ExperimentConfig,
    ExperimentRunner,
    cifar10_workload,
)

ROUNDS = 8


def build_config(policy: str) -> ExperimentConfig:
    clusters = [
        ClusterConfig(name="honest1", num_clients=3, aggregation_policy=policy, policy_k=3),
        ClusterConfig(name="honest2", num_clients=3, aggregation_policy=policy, policy_k=3),
        ClusterConfig(
            name="attacker",
            num_clients=3,
            aggregation_policy=policy,
            policy_k=3,
            attack="sign_flip",
        ),
    ]
    return ExperimentConfig(
        name=f"byzantine-{policy}",
        workload=cifar10_workload(rounds=ROUNDS, samples_per_class=30, image_size=8, learning_rate=0.05),
        clusters=clusters,
        mode="sync",
        partitioning="iid",
        rounds=ROUNDS,
        seed=11,
    )


def honest_accuracy_series(result) -> np.ndarray:
    honest = [result.aggregator("honest1"), result.aggregator("honest2")]
    return np.mean([aggregator.accuracy_series() for aggregator in honest], axis=0)


def main() -> None:
    naive_runner = ExperimentRunner(build_config("top_k"))
    naive = naive_runner.run()
    smart_runner = ExperimentRunner(build_config("above_average"))
    smart = smart_runner.run()

    naive_series = honest_accuracy_series(naive)
    smart_series = honest_accuracy_series(smart)

    print("Honest-organisation accuracy per round (one attacker submitting sign-flipped models)")
    print(f"{'Round':>6}{'Naive Top-3 (%)':>18}{'Smart Above-Average (%)':>26}")
    for i, (naive_acc, smart_acc) in enumerate(zip(naive_series, smart_series), start=1):
        print(f"{i:>6}{naive_acc * 100:>18.2f}{smart_acc * 100:>26.2f}")

    print()
    records = smart_runner.chain.call("unifyfl", "getLatestModelsWithScores")
    attacker = smart_runner.accounts["attacker"].address
    attacker_scores = [s for r in records if r["submitter"] == attacker for s in r["scores"].values()]
    honest_scores = [s for r in records if r["submitter"] != attacker for s in r["scores"].values()]
    print("Scores assigned by the majority scorers on the smart run:")
    print(f"  attacker submissions : mean {np.mean(attacker_scores):.3f}")
    print(f"  honest submissions   : mean {np.mean(honest_scores):.3f}")
    print()
    print("The smart policy drops every model scoring below the round average, so the")
    print("attacker's low-scoring submissions never enter the honest organisations' models.")


if __name__ == "__main__":
    main()
