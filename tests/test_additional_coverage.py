"""Additional behavioural tests: straggler handling, MultiKRUM end to end,
chain growth under sustained load, storage garbage collection during a run,
and invariants of the contract under randomised interleavings.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.core.config import ClusterConfig, ExperimentConfig, cifar10_workload, edge_cluster_configs
from repro.core.contract import UnifyFLContract
from repro.core.orchestrator import Orchestrator
from repro.core.runner import ExperimentRunner, run_experiment
from repro.core.scorer import MultiKRUMScorer
from repro.core.timing import ClusterTimingModel
from repro.sched.policies import SyncRoundPolicy


# --------------------------------------------------------------------- helpers
def tiny_config(name, **overrides):
    defaults = dict(
        workload=cifar10_workload(rounds=2, samples_per_class=12, image_size=8),
        clusters=edge_cluster_configs(num_clients=2),
        mode="sync",
        partitioning="iid",
        rounds=2,
        seed=31,
    )
    defaults.update(overrides)
    return ExperimentConfig(name=name, **defaults)


class TestStragglerHandling:
    def test_straggler_model_submitted_next_round(self):
        """A cluster that misses the window still gets its model on chain one round later."""
        runner = ExperimentRunner(tiny_config("straggler", rounds=3))
        runner.build()
        orchestrator = Orchestrator(
            runner.chain,
            runner._driver_account,
            runner.aggregators,
            runner.timing_model,
            partial(SyncRoundPolicy, training_window=0.5, scoring_window=10.0),
        )
        result = orchestrator.run(3)
        # Every cluster straggled in (at least) the first two rounds...
        assert all(count >= 1 for count in result.straggler_counts.values())
        # ...but late submissions still reach the contract: by the end of round 3
        # each aggregator has published at least one model.
        records = runner.chain.call("unifyfl", "getLatestModelsWithScores")
        submitters = {r["submitter"] for r in records}
        assert submitters == {a.address for a in runner.aggregators}

    def test_straggled_rounds_flagged_in_history(self):
        runner = ExperimentRunner(tiny_config("straggler-flag", rounds=2))
        runner.build()
        orchestrator = Orchestrator(
            runner.chain,
            runner._driver_account,
            runner.aggregators,
            runner.timing_model,
            partial(SyncRoundPolicy, training_window=0.5, scoring_window=10.0),
        )
        orchestrator.run(2)
        flags = [record.straggled for aggregator in runner.aggregators for record in aggregator.history]
        assert any(flags)

    def test_generous_window_produces_no_stragglers(self):
        runner = ExperimentRunner(tiny_config("no-straggler", rounds=2))
        runner.build()
        orchestrator = Orchestrator(
            runner.chain,
            runner._driver_account,
            runner.aggregators,
            runner.timing_model,
            partial(SyncRoundPolicy, training_window=10_000.0, scoring_window=10_000.0),
        )
        result = orchestrator.run(2)
        assert all(count == 0 for count in result.straggler_counts.values())


class TestMultiKRUMEndToEnd:
    def test_multikrum_downranks_byzantine_model_on_chain(self):
        clusters = [
            ClusterConfig(name="h1", num_clients=2, aggregation_policy="above_median"),
            ClusterConfig(name="h2", num_clients=2, aggregation_policy="above_median"),
            ClusterConfig(name="h3", num_clients=2, aggregation_policy="above_median"),
            ClusterConfig(
                name="evil", num_clients=2, aggregation_policy="above_median",
                malicious=True, attack="scaling",
            ),
        ]
        config = tiny_config(
            "multikrum-byzantine",
            clusters=clusters,
            scoring_algorithm="multikrum",
            rounds=2,
            workload=cifar10_workload(rounds=2, samples_per_class=14, image_size=8, learning_rate=0.05),
        )
        runner = ExperimentRunner(config)
        runner.run()
        records = runner.chain.call("unifyfl", "getLatestModelsWithScores")
        evil_address = runner.accounts["evil"].address
        evil_scores = [s for r in records if r["submitter"] == evil_address for s in r["scores"].values()]
        honest_scores = [s for r in records if r["submitter"] != evil_address for s in r["scores"].values()]
        assert evil_scores and honest_scores
        # The scaled (outlier) model sits far from the honest majority in weight
        # space, so MultiKRUM gives it the lowest similarity scores.
        assert np.mean(evil_scores) < np.mean(honest_scores)

    def test_multikrum_scorer_used_by_aggregators(self):
        config = tiny_config("multikrum-wiring", scoring_algorithm="multikrum")
        runner = ExperimentRunner(config)
        runner.build()
        assert all(isinstance(a.scorer, MultiKRUMScorer) for a in runner.aggregators)


class TestChainUnderSustainedLoad:
    def test_many_rounds_grow_and_verify_chain(self):
        result_runner = ExperimentRunner(tiny_config("sustained", rounds=4))
        result_runner.run()
        chain = result_runner.chain
        assert chain.height > 10
        assert chain.verify_chain()
        # Clique rotation: no single validator sealed more than ~2/3 of blocks.
        sealers = [block.header.sealer for block in chain.blocks[1:]]
        most_common = max(sealers.count(s) for s in set(sealers))
        assert most_common <= 2 * len(sealers) / 3

    def test_gas_accounting_grows_with_activity(self):
        short = run_experiment(tiny_config("gas-short", rounds=1))
        long = run_experiment(tiny_config("gas-long", rounds=3))
        assert long.chain_metrics["total_gas_used"] > short.chain_metrics["total_gas_used"]
        assert long.chain_metrics["blocks_mined"] > short.chain_metrics["blocks_mined"]


class TestContractInterleavingInvariants:
    @settings(max_examples=15, deadline=None)
    @given(order=st.permutations([0, 1, 2]), seed=st.integers(0, 1000))
    def test_submission_order_never_changes_scorer_majority(self, order, seed):
        """Whatever order organisations submit in, every model gets exactly
        N//2+1 scorers and never its own submitter."""
        accounts = [Account.create(label=f"a{i}", seed=2000 + seed * 10 + i) for i in range(3)]
        chain = Blockchain(accounts, block_period=1.0)
        chain.deploy_contract(UnifyFLContract(mode="async", scorer_seed=seed))
        for account in accounts:
            chain.send(account, "unifyfl", "registerAggregator")
        chain.mine_until_empty()
        cids = ["Qm" + f"{i}{seed}".ljust(64, "f")[:64] for i in range(3)]
        for index in order:
            chain.send(accounts[index], "unifyfl", "submitModel", {"cid": cids[index]})
            chain.mine_until_empty()
        for index, cid in enumerate(cids):
            submission = chain.call("unifyfl", "getSubmission", {"cid": cid})
            assert len(submission["assigned_scorers"]) == 2
            assert accounts[index].address not in submission["assigned_scorers"]

    @settings(max_examples=10, deadline=None)
    @given(scores=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_all_submitted_scores_are_preserved_exactly(self, scores):
        accounts = [Account.create(label=f"b{i}", seed=3000 + i) for i in range(3)]
        chain = Blockchain(accounts, block_period=1.0)
        chain.deploy_contract(UnifyFLContract(mode="async", scorer_seed=1))
        for account in accounts:
            chain.send(account, "unifyfl", "registerAggregator")
        chain.mine_until_empty()
        cid = "Qm" + "ab" * 32
        chain.send(accounts[0], "unifyfl", "submitModel", {"cid": cid})
        chain.mine_until_empty()
        submission = chain.call("unifyfl", "getSubmission", {"cid": cid})
        by_address = {a.address: a for a in accounts}
        for scorer_address, value in zip(submission["assigned_scorers"], scores):
            chain.send(by_address[scorer_address], "unifyfl", "submitScore", {"cid": cid, "score": value})
        chain.mine_until_empty()
        stored = chain.call("unifyfl", "getSubmission", {"cid": cid})["scores"]
        assert sorted(stored.values()) == sorted(float(v) for v in scores)


class TestTimingModelShapes:
    def test_gpu_round_dominated_by_training_not_chain(self):
        from repro.core.config import gpu_cluster_configs, tiny_imagenet_workload

        timing = ClusterTimingModel(tiny_imagenet_workload(), block_period=2.0, seed=0)
        cluster = gpu_cluster_configs(num_clusters=1)[0]
        training = timing.client_training_time(cluster, jitter=False)
        chain = timing.chain_interaction_time(2)
        assert training > 10 * chain

    def test_edge_rpi_cluster_is_the_straggler(self):
        timing = ClusterTimingModel(cifar10_workload(), seed=0)
        clusters = edge_cluster_configs()
        times = {c.name: timing.client_training_time(c, jitter=False) for c in clusters}
        # agg1 hosts the Raspberry Pi clients in the edge configuration.
        assert times["agg1"] == max(times.values())

    def test_sync_window_covers_straggler_with_margin(self):
        timing = ClusterTimingModel(cifar10_workload(), seed=0)
        clusters = edge_cluster_configs()
        window = timing.expected_training_window(clusters)
        slowest = max(timing.client_training_time(c, jitter=False) for c in clusters)
        assert window >= 1.3 * slowest

