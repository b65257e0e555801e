"""Ablation: which scoring algorithms expose a Byzantine submitter?

Section 2.6 motivates supporting several scoring algorithms with different
compute/fidelity trade-offs.  This ablation runs the Figure-7 adversarial
scenario (two honest organisations + one sign-flip attacker, smart
above-average policy) once per scoring algorithm and measures the *score gap*
between honest and malicious submissions — the quantity the smart policy needs
to be positive in order to filter the attacker.

Expected shape: every implemented algorithm (accuracy, loss, MultiKRUM,
cosine) gives honest submissions higher scores than the attacker's, with the
evaluation-based scorers (accuracy, loss) paying the higher scoring cost and
the similarity-based scorers (MultiKRUM, cosine) being cheap — the trade-off
Table 3 and Section 2.6 describe.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.core.config import ClusterConfig, ExperimentConfig, cifar10_workload
from repro.core.runner import ExperimentRunner
from repro.core.timing import ClusterTimingModel


ALGORITHMS = ["accuracy", "loss", "multikrum", "cosine"]


def _config(scoring: str, rounds: int = 5) -> ExperimentConfig:
    clusters = [
        ClusterConfig(name="honest1", num_clients=2, aggregation_policy="above_average"),
        ClusterConfig(name="honest2", num_clients=2, aggregation_policy="above_average"),
        ClusterConfig(
            name="attacker", num_clients=2, aggregation_policy="above_average",
            attack="sign_flip",
        ),
    ]
    return ExperimentConfig(
        name=f"ablation-scoring-{scoring}",
        workload=cifar10_workload(rounds=rounds, samples_per_class=24, image_size=8, learning_rate=0.05),
        clusters=clusters,
        mode="sync",
        partitioning="iid",
        scoring_algorithm=scoring,
        rounds=rounds,
        seed=17,
    )


def _score_gap(runner: ExperimentRunner) -> tuple[float, float]:
    records = runner.chain.call("unifyfl", "getLatestModelsWithScores")
    attacker = runner.accounts["attacker"].address
    attacker_scores = [s for r in records if r["submitter"] == attacker for s in r["scores"].values()]
    honest_scores = [s for r in records if r["submitter"] != attacker for s in r["scores"].values()]
    return float(np.mean(honest_scores)), float(np.mean(attacker_scores))


def test_ablation_scoring_algorithms(benchmark, report):
    def run():
        outcome = {}
        for algorithm in ALGORITHMS:
            runner = ExperimentRunner(_config(algorithm))
            result = runner.run()
            honest, malicious = _score_gap(runner)
            outcome[algorithm] = (result, honest, malicious)
        return outcome

    outcome = run_once(benchmark, run)

    timing = ClusterTimingModel(cifar10_workload())
    cluster = ClusterConfig(name="ref", num_clients=2)
    lines = ["Ablation — scoring algorithms under a sign-flip attacker (smart policy)"]
    lines.append(
        f"{'Algorithm':<12}{'Honest score':>14}{'Attacker score':>16}{'Gap':>8}{'Cost/model (s)':>16}"
    )
    lines.append("-" * 66)
    for algorithm in ALGORITHMS:
        _, honest, malicious = outcome[algorithm]
        cost = timing.scoring_time(cluster, 1, algorithm)
        lines.append(
            f"{algorithm:<12}{honest:>14.3f}{malicious:>16.3f}{honest - malicious:>8.3f}{cost:>16.3f}"
        )
    report("\n".join(lines))

    for algorithm in ALGORITHMS:
        _, honest, malicious = outcome[algorithm]
        # Every algorithm ranks honest submissions at or above the attacker's.
        assert honest >= malicious - 1e-9, f"{algorithm} failed to separate the attacker"
    # The similarity-based scorers are the cheap ones, as §2.6 argues.
    eval_cost = timing.scoring_time(cluster, 1, "accuracy")
    for cheap in ("multikrum", "cosine"):
        assert timing.scoring_time(cluster, 1, cheap) < eval_cost
    # The honest federations still learn under every algorithm.
    for algorithm in ALGORITHMS:
        result, _, _ = outcome[algorithm]
        honest_acc = np.mean(
            [result.aggregator("honest1").global_accuracy, result.aggregator("honest2").global_accuracy]
        )
        assert honest_acc > 0.15
