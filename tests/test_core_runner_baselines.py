"""Tests for baselines, the experiment runner, capabilities and result formatting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import BaselineResult
from repro.core.capabilities import (
    capability_table,
    format_capability_table,
    sync_async_comparison,
    unifyfl_capabilities,
)
from repro.core.config import ExperimentConfig, cifar10_workload, edge_cluster_configs, gpu_cluster_configs
from repro.core.results import (
    AggregatorResult,
    ExperimentResult,
    format_comparison,
    format_resource_table,
    format_run_table,
)
from repro.core.runner import ExperimentRunner, run_experiment


@pytest.fixture(scope="module")
def shared_sync_result():
    """One small sync experiment reused by several read-only assertions."""
    config = ExperimentConfig(
        name="shared-sync",
        workload=cifar10_workload(rounds=2, samples_per_class=12, image_size=8),
        clusters=edge_cluster_configs(num_clients=2),
        mode="sync",
        partitioning="iid",
        rounds=2,
        seed=3,
    )
    runner = ExperimentRunner(config)
    return runner, runner.run()


class TestExperimentRunner:
    def test_result_has_one_entry_per_cluster(self, shared_sync_result):
        _, result = shared_sync_result
        assert len(result.aggregators) == 3
        assert {a.name for a in result.aggregators} == {"agg1", "agg2", "agg3"}

    def test_metrics_within_bounds(self, shared_sync_result):
        _, result = shared_sync_result
        for aggregator in result.aggregators:
            assert 0.0 <= aggregator.global_accuracy <= 1.0
            assert 0.0 <= aggregator.local_accuracy <= 1.0
            assert aggregator.global_loss > 0
            assert aggregator.total_time > 0
            assert len(aggregator.history) == 2

    def test_chain_and_storage_metrics_populated(self, shared_sync_result):
        _, result = shared_sync_result
        assert result.chain_metrics["blocks_mined"] > 0
        assert result.chain_metrics["transactions_processed"] > 0
        assert result.storage_metrics["stored_bytes"] > 0
        assert result.storage_metrics["transfer_count"] > 0

    def test_resource_reports_cover_all_actors(self, shared_sync_result):
        _, result = shared_sync_result
        assert {"agg", "client", "scorer", "geth", "ipfs"} <= set(result.resource_reports)

    def test_daemon_overhead_is_tiny(self, shared_sync_result):
        """Section 4.2.7: Geth/IPFS footprints are minuscule next to the FL work."""
        _, result = shared_sync_result
        reports = result.resource_reports
        assert reports["geth"].cpu_mean < 1.0
        assert reports["ipfs"].cpu_mean < 10.0
        assert reports["geth"].mem_mean_mb < reports["client"].mem_mean_mb
        assert reports["client"].cpu_mean > reports["agg"].cpu_mean

    def test_experiment_result_helpers(self, shared_sync_result):
        _, result = shared_sync_result
        assert result.aggregator("agg1").name == "agg1"
        with pytest.raises(KeyError):
            result.aggregator("agg9")
        assert 0.0 <= result.mean_global_accuracy <= 1.0
        assert result.max_total_time == max(a.total_time for a in result.aggregators)

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(
            name="det",
            workload=cifar10_workload(rounds=1, samples_per_class=10, image_size=8),
            clusters=edge_cluster_configs(num_clients=2),
            mode="sync",
            partitioning="iid",
            rounds=1,
            seed=11,
        )
        r1 = run_experiment(config)
        r2 = run_experiment(config)
        assert r1.aggregators[0].global_accuracy == pytest.approx(r2.aggregators[0].global_accuracy)
        assert r1.aggregators[0].total_time == pytest.approx(r2.aggregators[0].total_time)

    def test_async_mode_runs(self):
        config = ExperimentConfig(
            name="async-run",
            workload=cifar10_workload(rounds=1, samples_per_class=10, image_size=8),
            clusters=edge_cluster_configs(num_clients=2),
            mode="async",
            partitioning="dirichlet",
            dirichlet_alpha=0.5,
            rounds=1,
            seed=2,
        )
        result = run_experiment(config)
        assert result.mode == "async"
        assert len(result.aggregators) == 3

    def test_multikrum_scoring_runs_in_sync(self):
        config = ExperimentConfig(
            name="multikrum",
            workload=cifar10_workload(rounds=1, samples_per_class=10, image_size=8),
            clusters=edge_cluster_configs(num_clients=2),
            mode="sync",
            scoring_algorithm="multikrum",
            partitioning="iid",
            rounds=1,
            seed=4,
        )
        result = run_experiment(config)
        assert result.scoring_algorithm == "multikrum"

    def test_gpu_cluster_with_mixed_strategies(self):
        clusters = gpu_cluster_configs(
            num_clusters=2,
            num_clients=2,
            strategies=["fedavg", "fedyogi"],
            policies=[("all", 1), ("top_k", 1)],
        )
        config = ExperimentConfig(
            name="mixed",
            workload=cifar10_workload(rounds=1, samples_per_class=10, image_size=8),
            clusters=clusters,
            mode="sync",
            partitioning="iid",
            rounds=1,
            seed=5,
        )
        result = run_experiment(config)
        strategies = {a.strategy for a in result.aggregators}
        assert strategies == {"fedavg", "fedyogi"}

    def test_partition_label(self):
        config = ExperimentConfig(
            name="label",
            workload=cifar10_workload(rounds=1, samples_per_class=10, image_size=8),
            clusters=edge_cluster_configs(num_clients=2),
            mode="sync",
            partitioning="dirichlet",
            dirichlet_alpha=0.1,
            rounds=1,
            seed=6,
        )
        runner = ExperimentRunner(config)
        result = runner.run()
        assert "0.1" in result.partitioning


class TestBaselines:
    def test_no_collab_baseline(self, shared_sync_result):
        runner, _ = shared_sync_result
        baseline = runner.run_no_collab_baseline(rounds=2)
        assert isinstance(baseline, BaselineResult)
        assert len(baseline.clusters) == 3
        for cluster in baseline.clusters:
            assert 0.0 <= cluster.accuracy <= 1.0
            assert np.isnan(cluster.global_accuracy)

    def test_centralized_baseline_has_global_model(self, shared_sync_result):
        runner, _ = shared_sync_result
        baseline = runner.run_centralized_baseline(rounds=2)
        assert 0.0 <= baseline.global_accuracy <= 1.0
        assert baseline.total_time > 0
        assert len(baseline.global_accuracy_history) == 2
        assert all(c.global_accuracy == baseline.global_accuracy for c in baseline.clusters)
        assert baseline.global_accuracy == baseline.global_accuracy_history[-1]

    def test_centralized_baseline_evaluates_each_model_once(self, shared_sync_result):
        runner, _ = shared_sync_result
        calls = runner.evaluator.calls
        runner.run_centralized_baseline(rounds=2)
        # Per round: every cluster's model and the merged global model; the
        # final global model is the last round's, not evaluated again.
        assert runner.evaluator.calls - calls == 2 * (len(runner.config.clusters) + 1)

    def test_single_level_baseline(self, shared_sync_result):
        runner, _ = shared_sync_result
        baseline = runner.run_single_level_baseline(rounds=2)
        assert len(baseline.clusters) == 1
        assert 0.0 <= baseline.global_accuracy <= 1.0

    def test_collaboration_beats_isolation(self):
        """The Table 1 shape: centralized collaboration > isolated clusters (NIID)."""
        config = ExperimentConfig(
            name="collab-check",
            workload=cifar10_workload(rounds=8, samples_per_class=24, image_size=8, learning_rate=0.05),
            clusters=edge_cluster_configs(num_clients=2),
            mode="sync",
            partitioning="dirichlet",
            dirichlet_alpha=0.3,
            rounds=8,
            seed=7,
        )
        runner = ExperimentRunner(config)
        no_collab = runner.run_no_collab_baseline(rounds=8)
        collab = runner.run_centralized_baseline(rounds=8)
        mean_isolated = np.mean([c.accuracy for c in no_collab.clusters])
        assert collab.global_accuracy > mean_isolated


class TestCapabilities:
    def test_unifyfl_row_derived_from_code(self):
        row = unifyfl_capabilities()
        assert row.fl_structure == "hierarchical"
        assert row.fl_type == "cross-silo"
        assert set(row.orchestration) == {"sync", "async"}
        assert row.flexible_policies

    def test_table_has_four_frameworks(self):
        rows = capability_table()
        assert [r.name for r in rows] == ["BCFL", "HBFL", "ChainFL", "UnifyFL"]
        assert all(r.orchestration == ["sync"] for r in rows[:3])

    def test_format_capability_table(self):
        text = format_capability_table()
        assert "UnifyFL" in text and "Flexible" in text

    def test_sync_async_comparison_matches_table3(self):
        table = sync_async_comparison()
        assert table["idle_time"] == {"sync": "high", "async": "low", "semi": "bounded"}
        assert table["weight_similarity_scoring"]["async"] == "not supported"
        assert table["weight_similarity_scoring"]["semi"] == "not supported"
        assert len(table) == 7
        assert all(set(row) == {"sync", "async", "semi"} for row in table.values())


class TestResultFormatting:
    def test_format_run_table(self, shared_sync_result):
        _, result = shared_sync_result
        text = format_run_table(result)
        assert "agg1" in text and "Policy" in text
        assert str(result.rounds) in text

    def test_format_resource_table(self, shared_sync_result):
        _, result = shared_sync_result
        text = format_resource_table(result.resource_reports)
        assert "cpu %" in text and "mem (MB)" in text

    def test_format_comparison(self, shared_sync_result):
        _, result = shared_sync_result
        text = format_comparison([result, result], labels=["a", "b"])
        assert "a" in text and "Makespan" in text

    def test_accuracy_and_time_series(self, shared_sync_result):
        _, result = shared_sync_result
        aggregator = result.aggregators[0]
        assert len(aggregator.accuracy_series()) == result.rounds
        assert aggregator.time_series() == sorted(aggregator.time_series())
