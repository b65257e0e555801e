"""Integration tests: full UnifyFL behaviour end to end on small federations.

These tests reproduce, at miniature scale, the qualitative claims the paper's
evaluation makes: collaboration helps under non-IID data, Async is faster than
Sync, the chain state is consistent and auditable after a run, models are
identical for every aggregator that pulls them, and the smart (above-average)
policy resists a Byzantine attacker better than a naive top-k policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ClusterConfig, ExperimentConfig, cifar10_workload, edge_cluster_configs
from repro.core.runner import ExperimentRunner, run_experiment
from repro.ipfs.cid import parse_cid
from repro.ml.serialization import weights_checksum, weights_from_bytes


def small_config(
    name,
    mode="sync",
    partitioning="iid",
    alpha=0.5,
    rounds=2,
    seed=0,
    clusters=None,
    learning_rate=0.01,
    samples_per_class=14,
    **kwargs,
):
    return ExperimentConfig(
        name=name,
        workload=cifar10_workload(
            rounds=rounds,
            samples_per_class=samples_per_class,
            image_size=8,
            learning_rate=learning_rate,
        ),
        clusters=clusters or edge_cluster_configs(num_clients=2),
        mode=mode,
        partitioning=partitioning,
        dirichlet_alpha=alpha,
        rounds=rounds,
        seed=seed,
        **kwargs,
    )


class TestEndToEndProtocol:
    def test_chain_records_full_audit_trail(self):
        runner = ExperimentRunner(small_config("audit", rounds=2, seed=1))
        runner.run()
        chain = runner.chain
        assert chain.verify_chain()
        # Every aggregator registered, submitted models and scores on-chain.
        aggregators = chain.call("unifyfl", "getAggregators")
        assert len(aggregators) == 3
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        assert len(records) >= 3
        from repro.chain.events import EventFilter

        assert len(chain.events(EventFilter(name="StartTraining"))) == 2
        assert len(chain.events(EventFilter(name="ModelSubmitted"))) >= 3
        assert len(chain.events(EventFilter(name="ScoreSubmitted"))) >= 3

    def test_all_aggregators_retrieve_identical_models(self):
        """The transparency claim: IPFS + chain ensure everyone sees the same bytes."""
        runner = ExperimentRunner(small_config("identical", rounds=1, seed=2))
        runner.run()
        chain = runner.chain
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        cid = records[0]["cid"]
        checksums = set()
        for aggregator in runner.aggregators:
            payload = aggregator.ipfs.get(parse_cid(cid))
            checksums.add(weights_checksum(weights_from_bytes(payload)))
        assert len(checksums) == 1

    def test_every_model_scored_by_majority(self):
        runner = ExperimentRunner(small_config("majority", rounds=2, seed=3))
        runner.run()
        records = runner.chain.call("unifyfl", "getLatestModelsWithScores")
        majority = len(runner.aggregators) // 2 + 1
        for record in records:
            assert len(record["assigned_scorers"]) == majority
            assert record["submitter"] not in record["assigned_scorers"]

    def test_storage_replication_grows_with_pulls(self):
        runner = ExperimentRunner(small_config("replication", rounds=2, seed=4))
        runner.run()
        assert runner.swarm.total_transferred_bytes() > 0
        # At least one model is replicated beyond its origin node.
        replicated = [
            cid for cid in [parse_cid(r["cid"]) for r in runner.chain.call("unifyfl", "getLatestModelsWithScores")]
            if runner.swarm.replication_factor(cid) > 1
        ]
        assert replicated


class TestPaperClaims:
    def test_async_makespan_lower_than_sync(self):
        sync_result = run_experiment(small_config("claim-sync", mode="sync", rounds=2, seed=5))
        async_result = run_experiment(small_config("claim-async", mode="async", rounds=2, seed=5))
        assert async_result.max_total_time < sync_result.max_total_time

    def test_sync_times_identical_async_times_heterogeneous(self):
        sync_result = run_experiment(small_config("times-sync", mode="sync", rounds=2, seed=6))
        async_result = run_experiment(small_config("times-async", mode="async", rounds=2, seed=6))
        sync_times = [a.total_time for a in sync_result.aggregators]
        async_times = [a.total_time for a in async_result.aggregators]
        assert max(sync_times) - min(sync_times) < 1e-6
        assert max(async_times) - min(async_times) > 1.0

    def test_collaboration_improves_over_self_policy(self):
        """Run 5's observation: the non-collaborating cluster falls behind."""
        clusters = edge_cluster_configs(num_clients=2)
        clusters[0].aggregation_policy = "self"
        clusters[1].aggregation_policy = "all"
        clusters[2].aggregation_policy = "all"
        config = small_config(
            "self-vs-all",
            partitioning="dirichlet",
            alpha=0.3,
            rounds=4,
            seed=7,
            clusters=clusters,
            learning_rate=0.05,
            samples_per_class=20,
        )
        result = run_experiment(config)
        self_acc = result.aggregator("agg1").global_accuracy
        collab_acc = np.mean(
            [result.aggregator("agg2").global_accuracy, result.aggregator("agg3").global_accuracy]
        )
        assert collab_acc >= self_acc - 0.02

    def test_unifyfl_accuracy_comparable_to_centralized_baseline(self):
        config = small_config(
            "vs-baseline",
            partitioning="dirichlet",
            alpha=0.5,
            rounds=3,
            seed=8,
            learning_rate=0.05,
            samples_per_class=20,
        )
        runner = ExperimentRunner(config)
        unify = runner.run()
        baseline = runner.run_centralized_baseline(rounds=3)
        assert unify.mean_global_accuracy >= baseline.global_accuracy - 0.15

    def test_overhead_constant_as_clients_grow(self):
        """Section 4.2.7: chain/IPFS overhead does not grow with client count."""
        small = ExperimentRunner(small_config("overhead-small", rounds=1, seed=9))
        small_result = small.run()
        big_clusters = edge_cluster_configs(num_clients=4)
        big = ExperimentRunner(small_config("overhead-big", rounds=1, seed=9, clusters=big_clusters))
        big_result = big.run()
        assert big_result.resource_reports["geth"].cpu_mean == pytest.approx(
            small_result.resource_reports["geth"].cpu_mean, abs=0.15
        )
        assert big_result.chain_metrics["total_gas_used"] == pytest.approx(
            small_result.chain_metrics["total_gas_used"], rel=0.5
        )


class TestByzantineResilience:
    def _byzantine_config(self, policy, seed=10):
        clusters = [
            ClusterConfig(name="honest1", num_clients=2, aggregation_policy=policy, policy_k=3),
            ClusterConfig(name="honest2", num_clients=2, aggregation_policy=policy, policy_k=3),
            ClusterConfig(
                name="attacker",
                num_clients=2,
                aggregation_policy=policy,
                policy_k=3,
                attack="sign_flip",
            ),
        ]
        return small_config(
            f"byzantine-{policy}",
            partitioning="iid",
            rounds=3,
            seed=seed,
            clusters=clusters,
            learning_rate=0.05,
            samples_per_class=20,
        )

    def test_smart_policy_beats_naive_policy_under_attack(self):
        naive = run_experiment(self._byzantine_config("top_k", seed=10))
        smart = run_experiment(self._byzantine_config("above_average", seed=10))

        def honest_accuracy(result):
            return np.mean(
                [result.aggregator("honest1").global_accuracy, result.aggregator("honest2").global_accuracy]
            )

        assert honest_accuracy(smart) >= honest_accuracy(naive) - 0.02

    def test_attacker_receives_low_scores(self):
        runner = ExperimentRunner(self._byzantine_config("above_average", seed=11))
        result = runner.run()
        records = runner.chain.call("unifyfl", "getLatestModelsWithScores")
        attacker_address = runner.accounts["attacker"].address
        attacker_scores = [
            s for r in records if r["submitter"] == attacker_address for s in r["scores"].values()
        ]
        honest_scores = [
            s for r in records if r["submitter"] != attacker_address for s in r["scores"].values()
        ]
        assert attacker_scores and honest_scores
        assert np.mean(attacker_scores) <= np.mean(honest_scores)
