"""Breadth tests: remaining policies in full experiments, event filters,
result formatting details, swarm provider records and CLI parser edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chain.events import EventFilter
from repro.cli import build_parser
from repro.core.config import ClusterConfig, ExperimentConfig, cifar10_workload, edge_cluster_configs
from repro.core.results import format_comparison, format_run_table
from repro.core.runner import ExperimentRunner, run_experiment


def small_experiment(name, clusters=None, **overrides):
    defaults = dict(
        workload=cifar10_workload(rounds=2, samples_per_class=12, image_size=8),
        clusters=clusters or edge_cluster_configs(num_clients=2),
        mode="sync",
        partitioning="iid",
        rounds=2,
        seed=41,
    )
    defaults.update(overrides)
    return ExperimentConfig(name=name, **defaults)


class TestRemainingPoliciesEndToEnd:
    @pytest.mark.parametrize("policy", ["random_k", "above_self", "above_median"])
    def test_policy_runs_in_full_experiment(self, policy):
        clusters = edge_cluster_configs(num_clients=2)
        for cluster in clusters:
            cluster.aggregation_policy = policy
            cluster.policy_k = 2
        result = run_experiment(small_experiment(f"policy-{policy}", clusters=clusters))
        assert len(result.aggregators) == 3
        assert all(policy in a.policy for a in result.aggregators)

    @pytest.mark.parametrize("scoring_policy", ["median", "min", "max"])
    def test_scoring_policy_runs_in_full_experiment(self, scoring_policy):
        clusters = edge_cluster_configs(num_clients=2)
        for cluster in clusters:
            cluster.scoring_policy = scoring_policy
        result = run_experiment(small_experiment(f"scoring-{scoring_policy}", clusters=clusters))
        assert all(scoring_policy in a.policy for a in result.aggregators)

    def test_mixed_policies_within_one_federation(self):
        clusters = [
            ClusterConfig(name="a", num_clients=2, aggregation_policy="random_k", policy_k=1, scoring_policy="min"),
            ClusterConfig(name="b", num_clients=2, aggregation_policy="above_self", scoring_policy="max"),
            ClusterConfig(name="c", num_clients=2, aggregation_policy="above_median", scoring_policy="median"),
        ]
        result = run_experiment(small_experiment("mixed-everything", clusters=clusters))
        labels = {a.policy for a in result.aggregators}
        assert len(labels) == 3


class TestEventLogDetails:
    def test_round_lifecycle_events_in_order(self):
        runner = ExperimentRunner(small_experiment("events"))
        runner.run()
        chain = runner.chain
        start_training = chain.events(EventFilter(name="StartTraining"))
        start_scoring = chain.events(EventFilter(name="StartScoring"))
        round_ended = chain.events(EventFilter(name="RoundEnded"))
        assert len(start_training) == len(start_scoring) == len(round_ended) == 2
        # Per round: training starts before scoring which ends before RoundEnded.
        for training, scoring, ended in zip(start_training, start_scoring, round_ended):
            assert training.block_number <= scoring.block_number <= ended.block_number

    def test_scorer_assignment_events_reference_registered_aggregators(self):
        runner = ExperimentRunner(small_experiment("assignment-events"))
        runner.run()
        chain = runner.chain
        registered = set(chain.call("unifyfl", "getAggregators"))
        for event in chain.events(EventFilter(name="ScorersAssigned")):
            assert set(event.payload["scorers"]) <= registered


class TestResultFormattingDetails:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(small_experiment("formatting"))

    def test_run_table_has_one_row_per_aggregator(self, result):
        table = format_run_table(result)
        data_rows = [line for line in table.splitlines() if line.startswith("agg")]
        assert len(data_rows) == len(result.aggregators)

    def test_run_table_percent_toggle(self, result):
        with_percent = format_run_table(result, percent=True)
        without_percent = format_run_table(result, percent=False)
        assert with_percent != without_percent

    def test_comparison_defaults_to_result_names(self, result):
        text = format_comparison([result])
        assert result.name in text

    def test_aggregator_lookup_is_case_sensitive(self, result):
        with pytest.raises(KeyError):
            result.aggregator("AGG1")


class TestCLIParser:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "async"
        assert args.workload == "cifar10"
        assert args.testbed == "edge"

    def test_gpu_testbed_options(self):
        args = build_parser().parse_args(
            ["run", "--testbed", "gpu", "--workload", "tiny_imagenet", "--clusters", "4", "--scoring", "multikrum"]
        )
        assert args.testbed == "gpu"
        assert args.clusters == 4
        assert args.scoring == "multikrum"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])

    def test_compare_accepts_common_arguments(self):
        args = build_parser().parse_args(["compare", "--rounds", "4", "--alpha", "0.1"])
        assert args.rounds == 4
        assert args.alpha == 0.1


class TestOrchestrationResultBookkeeping:
    def test_histories_and_totals_consistent(self):
        runner = ExperimentRunner(small_experiment("bookkeeping", rounds=3))
        result = runner.run()
        for aggregator in result.aggregators:
            assert len(aggregator.history) == 3
            # Simulated time is monotonically non-decreasing across rounds.
            times = [record.sim_time for record in aggregator.history]
            assert times == sorted(times)
            # The reported total time matches the aggregator's final clock.
            assert aggregator.total_time == pytest.approx(times[-1])

    def test_idle_time_only_reported_for_sync(self):
        sync_result = run_experiment(small_experiment("idle-sync", mode="sync"))
        async_result = run_experiment(small_experiment("idle-async", mode="async"))
        assert any(a.idle_time > 0 for a in sync_result.aggregators)
        assert all(a.idle_time == 0 for a in async_result.aggregators)
