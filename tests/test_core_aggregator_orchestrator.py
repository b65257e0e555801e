"""Tests for the UnifyFL aggregator and the round policies (sync/async/semi) driving it."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.core.aggregator import UnifyFLAggregator
from repro.core.attacks import SignFlipAttack
from repro.core.config import ClusterConfig, cifar10_workload
from repro.core.contract import UnifyFLContract
from repro.core.runner import ExperimentRunner, run_experiment
from repro.core.scorer import AccuracyScorer
from repro.core.timing import ClusterTimingModel
from repro.datasets.partition import IIDPartitioner
from repro.datasets.synthetic import SyntheticCIFAR10
from repro.fl.client import Client, ClientConfig
from repro.ipfs.swarm import IPFSSwarm
from repro.ml.models import SimpleCNN
from repro.ml.tensor_utils import weights_allclose
from repro.sched.actors import CommFabric
from repro.sched.policies import (
    AsyncRoundPolicy,
    GossipRoundPolicy,
    HierarchicalRoundPolicy,
    OrchestrationContext,
    SemiSyncRoundPolicy,
    StaticRoster,
    SyncRoundPolicy,
)
from repro.simnet.hardware import DOCKER_CONTAINER, EDGE_CPU_NODE
from repro.simnet.resources import ResourceMonitor


def policy_context(chain, driver, aggregators, timing, num_rounds=1):
    """The context the runner builds for a dense run."""
    return OrchestrationContext(
        chain=chain,
        driver=driver,
        aggregators=aggregators,
        timing=timing,
        num_rounds=num_rounds,
        roster=StaticRoster(aggregators),
        comm=aggregators[0].comm,
    )


def straggler_count(aggregator):
    """What the runner reports as the aggregator's ``straggler_count``."""
    return sum(record.straggled for record in aggregator.history)


def idle_times(aggregators):
    """What the runner reports as each aggregator's ``idle_time``."""
    return {a.name: sum(r.timing.idle_time for r in a.history) for a in aggregators}


def build_federation(
    mode="sync", num_clusters=3, malicious=(), monitor=None, seed=0, **cluster_options
):
    """Hand-assemble a small federation without the ExperimentRunner.

    ``cluster_options`` override the ``ClusterConfig`` fields of every cluster.
    """
    workload = cifar10_workload(rounds=2, samples_per_class=12, image_size=8)
    factory = SyntheticCIFAR10(image_size=8, samples_per_class=12, test_samples_per_class=4, seed=seed)
    train, test = factory.splits()
    model = SimpleCNN(image_size=8, num_classes=10, conv_channels=(4, 8), hidden_dim=16, seed=seed)
    timing = ClusterTimingModel(workload, block_period=1.0, seed=seed)

    accounts = [Account.create(label=f"agg{i}", seed=900 + i + seed * 10) for i in range(num_clusters)]
    driver = Account.create(label="driver", seed=990 + seed * 10)
    chain = Blockchain(accounts, block_period=1.0)
    chain.register_account(driver)
    chain.deploy_contract(UnifyFLContract(mode=mode, scorer_seed=seed))
    swarm = IPFSSwarm()
    # Hand-built federations share the constant-cost fabric; clusters that
    # never attach are priced on its default LAN link.
    comm = CommFabric.constant_cost(timing.nominal_model_bytes, timing.block_period)

    cluster_parts = IIDPartitioner(num_clusters, seed=seed).partition(train)
    score_parts = IIDPartitioner(num_clusters, seed=seed + 1).partition(test)

    options = {"aggregation_policy": "all", **cluster_options}
    aggregators = []
    for i in range(num_clusters):
        config = ClusterConfig(
            name=f"agg{i + 1}",
            num_clients=2,
            aggregator_profile=EDGE_CPU_NODE,
            client_profile=DOCKER_CONTAINER,
            attack="sign_flip" if i in malicious else None,
            **options,
        )
        client_parts = IIDPartitioner(2, seed=seed + 10 + i).partition(cluster_parts[i])
        clients = [
            Client(
                f"{config.name}-c{j}",
                model.clone(),
                part,
                config=ClientConfig(local_epochs=1, batch_size=8, learning_rate=0.05, seed=seed + j),
            )
            for j, part in enumerate(client_parts)
        ]
        aggregators.append(
            UnifyFLAggregator(
                config=config,
                workload=workload,
                account=accounts[i],
                chain=chain,
                ipfs_node=swarm.create_node(f"{config.name}-ipfs"),
                model_template=model,
                clients=clients,
                scorer=AccuracyScorer(model, score_parts[i]),
                eval_data=test,
                comm=comm,
                timing_model=timing,
                attack=SignFlipAttack() if i in malicious else None,
                resource_monitor=monitor,
                seed=seed + i,
            )
        )
    return chain, driver, aggregators, timing, test


class TestAggregatorUnit:
    def test_register_appears_on_contract(self):
        chain, driver, aggregators, timing, _ = build_federation()
        aggregators[0].register()
        assert aggregators[0].address in chain.call("unifyfl", "getAggregators")

    def test_submit_stores_on_ipfs_and_contract(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        for aggregator in aggregators:
            aggregator.register()
        aggregator = aggregators[0]
        cid, timing_record = aggregator.submit_local_model()
        assert timing_record.store_time > 0
        assert aggregator.ipfs.has_local(__import__("repro.ipfs.cid", fromlist=["parse_cid"]).parse_cid(cid))
        submission = chain.call("unifyfl", "getSubmission", {"cid": cid})
        assert submission["submitter"] == aggregator.address

    def test_fetch_weights_round_trip(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        for aggregator in aggregators:
            aggregator.register()
        cid, _ = aggregators[0].submit_local_model()
        fetched = aggregators[1].fetch_weights(cid)
        assert weights_allclose(fetched, aggregators[0].local_weights)

    def test_malicious_aggregator_submits_poisoned_weights(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async", malicious=(0,))
        for aggregator in aggregators:
            aggregator.register()
        cid, _ = aggregators[0].submit_local_model()
        fetched = aggregators[1].fetch_weights(cid)
        # Sign-flip: the stored model is the negation of the honest local model.
        assert weights_allclose(fetched, [-w for w in aggregators[0].local_weights])

    def test_build_global_model_without_peers_keeps_local(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        for aggregator in aggregators:
            aggregator.register()
        aggregator = aggregators[0]
        before = [np.array(w, copy=True) for w in aggregator.local_weights]
        aggregator.build_global_model()
        assert weights_allclose(aggregator.global_weights, before)

    def test_build_global_model_merges_peer(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        for aggregator in aggregators:
            aggregator.register()
        # Peer trains first so its submitted model actually differs from agg0's.
        aggregators[1].local_training_round()
        aggregators[1].submit_local_model()
        aggregators[0].build_global_model()
        # The merged model is no longer identical to agg0's own local model.
        assert not weights_allclose(aggregators[0].global_weights, aggregators[0].local_weights)

    def test_pull_candidates_are_cid_sorted_with_ties_in_contract_order(self, monkeypatch):
        # The contract refuses a CID twice, so the records are handed over
        # directly: three submitters, the first and the last with one CID.
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        records = [
            {"cid": cid, "submitter": submitter, "round": 1, "timestamp": stamp, "scores": {}}
            for cid, submitter, stamp in [("Qm-m", "0xc", 1.0), ("Qm-a", "0xb", 2.0), ("Qm-m", "0xa", 3.0)]
        ]
        monkeypatch.setattr(chain, "call", lambda *args, **kwargs: records)
        candidates = aggregators[0].pull_candidates()
        assert [(c.cid, c.submitter) for c in candidates] == [
            ("Qm-a", "0xb"), ("Qm-m", "0xc"), ("Qm-m", "0xa"),
        ]

    def test_local_training_round_changes_local_weights(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        aggregator = aggregators[0]
        aggregator.register()
        before = [np.array(w, copy=True) for w in aggregator.local_weights]
        timing_record = aggregator.local_training_round()
        assert timing_record.client_training_time > 0
        assert not weights_allclose(before, aggregator.local_weights)

    def test_score_assigned_submits_scores(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        for aggregator in aggregators:
            aggregator.register()
        cid, _ = aggregators[0].submit_local_model()
        submission = chain.call("unifyfl", "getSubmission", {"cid": cid})
        scorer_agg = next(a for a in aggregators if a.address in submission["assigned_scorers"])
        scorer_agg.score_assigned()
        submission = chain.call("unifyfl", "getSubmission", {"cid": cid})
        assert scorer_agg.address in submission["scores"]
        assert 0.0 <= submission["scores"][scorer_agg.address] <= 1.0

    def _assign(self, payload: bytes, stored: bool):
        """Submit a model CID for ``payload`` — held by the submitter's node
        or by nobody — and return the chain, the CID and its assigned scorer."""
        from repro.ipfs.cid import compute_cid

        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        for aggregator in aggregators:
            aggregator.register()
        cid = str(aggregators[0].ipfs.add(payload) if stored else compute_cid(payload))
        chain.send(
            aggregators[0].account, "unifyfl", "submitModel", {"cid": cid, "timestamp": 0.0}
        )
        chain.mine_until_empty()
        submission = chain.call("unifyfl", "getSubmission", {"cid": cid})
        scorer_agg = next(a for a in aggregators if a.address in submission["assigned_scorers"])
        return chain, cid, scorer_agg

    @pytest.mark.parametrize("stored", [False, True])
    def test_an_unavailable_or_malformed_model_goes_unscored(self, stored, monkeypatch):
        # Nobody holds the object (IPFSError), or it is no weight container
        # (SerializationError): the model is skipped, the scorer carries on.
        chain, cid, scorer_agg = self._assign(b"not a weight container", stored)
        fetched = []
        fetch_weights = scorer_agg.fetch_weights
        monkeypatch.setattr(
            scorer_agg, "fetch_weights", lambda c: fetched.append(c) or fetch_weights(c)
        )
        scorer_agg.score_assigned()
        assert fetched == [cid]
        assert chain.call("unifyfl", "getSubmission", {"cid": cid})["scores"] == {}

    def test_a_decoding_bug_is_not_recorded_as_an_unscored_model(self, monkeypatch):
        chain, cid, scorer_agg = self._assign(b"decoded by the broken decoder", stored=True)

        def broken_decoder(payload):
            raise TypeError("a bug, not an unavailable model")

        monkeypatch.setattr("repro.ml.serialization.weights_views", broken_decoder)
        with pytest.raises(TypeError, match="a bug"):
            scorer_agg.score_assigned()

    def test_record_round_tracks_metrics(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        aggregator = aggregators[0]
        aggregator.register()
        aggregator.build_global_model()
        aggregator.local_training_round()
        from repro.core.timing import RoundTiming

        record = aggregator.record_round(1, RoundTiming())
        assert 0.0 <= record.global_accuracy <= 1.0
        assert record.round_number == 1
        assert aggregator.final_record is record

    def test_clock_advances_with_activity(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        aggregator = aggregators[0]
        aggregator.register()
        assert aggregator.total_time() == 0.0
        aggregator.local_training_round()
        assert aggregator.total_time() > 0.0

    def test_resource_monitor_receives_samples(self):
        monitor = ResourceMonitor()
        chain, driver, aggregators, timing, _ = build_federation(mode="async", monitor=monitor)
        aggregator = aggregators[0]
        aggregator.register()
        aggregator.local_training_round()
        assert "client" in monitor.process_types()
        assert "agg" in monitor.process_types()

    def test_resource_sampling_moves_no_simulated_decision(self):
        # random_k selection and the availability draw share the decision
        # generator; sampling resources must not advance it.
        def histories(monitor):
            chain, driver, aggregators, timing, _ = build_federation(
                mode="async",
                monitor=monitor,
                aggregation_policy="random_k",
                policy_k=1,
                availability=0.6,
            )
            AsyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=3)).run()
            return [a.history for a in aggregators]

        monitor = ResourceMonitor()
        with_monitor = histories(monitor)
        assert len(monitor) > 0
        assert with_monitor == histories(None)
        assert any(r.offline for history in with_monitor for r in history)

    def _cidless_fingerprints(self, aggregator, monkeypatch):
        """Record the CID of every fingerprint the run's evaluator takes."""
        seen = []
        fingerprint = aggregator.evaluator._fingerprint
        monkeypatch.setattr(
            aggregator.evaluator,
            "_fingerprint",
            lambda weights, cid: seen.append(cid) or fingerprint(weights, cid),
        )
        return seen

    def test_record_round_names_the_published_local_model(self, monkeypatch):
        from repro.core.timing import RoundTiming

        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        aggregator = aggregators[0]
        aggregator.register()
        aggregator.local_training_round()
        cid, _ = aggregator.submit_local_model()
        seen = self._cidless_fingerprints(aggregator, monkeypatch)
        aggregator.record_round(1, RoundTiming())
        # The global model was never published; the local one was, under ``cid``.
        assert seen == [None, cid]
        # Trained again (on the next round's global model), the local
        # weights are no longer what ``cid`` names.
        aggregator.build_global_model()
        aggregator.local_training_round()
        aggregator.record_round(2, RoundTiming())
        assert seen[2:] == [None, None]

    def test_record_round_hashes_a_poisoned_clusters_local_model(self, monkeypatch):
        from repro.core.timing import RoundTiming

        chain, driver, aggregators, timing, _ = build_federation(mode="async", malicious=(0,))
        aggregator = aggregators[0]
        aggregator.register()
        aggregator.submit_local_model()
        seen = self._cidless_fingerprints(aggregator, monkeypatch)
        aggregator.record_round(1, RoundTiming())
        # What was published is the poisoned model, not ``local_weights``.
        assert seen == [None, None]


class TestSyncOrchestrator:
    def test_two_rounds_complete(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        SyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=2)).run()
        assert all(len(a.history) == 2 for a in aggregators)

    def test_all_aggregators_share_the_same_total_time(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        SyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=2)).run()
        times = [a.total_time() for a in aggregators]
        assert max(times) - min(times) < 1e-6

    def test_idle_time_recorded(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        SyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=1)).run()
        assert any(idle > 0 for idle in idle_times(aggregators).values())

    def test_every_aggregator_scored_peers(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        SyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=1)).run()
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        assert len(records) == 3
        assert all(len(r["scores"]) == 2 for r in records)

    def test_tight_window_causes_stragglers(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        SyncRoundPolicy(
            policy_context(chain, driver, aggregators, timing, num_rounds=2),
            training_window=0.5,
            scoring_window=5.0,
        ).run()
        assert sum(straggler_count(a) for a in aggregators) > 0

    def test_requires_aggregators(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        with pytest.raises(ValueError, match="at least one aggregator"):
            OrchestrationContext(
                chain=chain,
                driver=driver,
                aggregators=[],
                timing=timing,
                num_rounds=1,
                roster=StaticRoster([]),
                comm=aggregators[0].comm,
            )

    def test_rejects_duplicate_aggregator_names(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        aggregators[1].config = dataclasses.replace(aggregators[1].config, name=aggregators[0].name)
        with pytest.raises(ValueError, match="aggregator names must be unique"):
            policy_context(chain, driver, aggregators, timing)

    def test_rejects_aggregators_on_different_fabrics(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        aggregators[2].comm = CommFabric.constant_cost(
            timing.nominal_model_bytes, timing.block_period
        )
        with pytest.raises(ValueError, match="share one CommFabric"):
            policy_context(chain, driver, aggregators, timing)

    def test_rejects_zero_rounds(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        with pytest.raises(ValueError, match="num_rounds must be positive"):
            policy_context(chain, driver, aggregators, timing, num_rounds=0)

    def test_runner_does_not_mistake_zero_rounds_for_the_default(self, tiny_experiment_config):
        # Regression: `rounds or config.rounds` silently ran config.rounds.
        from repro.core.runner import ExperimentRunner

        runner = ExperimentRunner(tiny_experiment_config)
        for run in (runner.run, runner.run_no_collab_baseline, runner.run_centralized_baseline):
            with pytest.raises(ValueError, match="num_rounds must be positive"):
                run(rounds=0)


class TestSyncStragglerPath:
    """The straggler/late-submission path (Section 3.2's missed windows)."""

    def test_stragglers_submit_their_stale_model_next_round(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        SyncRoundPolicy(
            policy_context(chain, driver, aggregators, timing, num_rounds=2),
            training_window=0.5,
            scoring_window=5.0,
        ).run()
        # The window is far too tight for anyone: every cluster straggles in
        # round 1, so no model reaches the contract during that round...
        assert chain.call("unifyfl", "roundSubmissionCount", {"round_number": 1}) == 0
        assert all(a.history[0].straggled for a in aggregators)
        # ...and every cluster opens round 2 by submitting its stale model.
        assert chain.call("unifyfl", "roundSubmissionCount", {"round_number": 2}) == len(aggregators)
        for aggregator in aggregators:
            assert aggregator.history[0].timing.store_time == 0.0
            assert aggregator.history[1].timing.store_time > 0.0
        assert all(straggler_count(a) == 2 for a in aggregators)

    def test_late_submissions_carry_the_next_round_number(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        SyncRoundPolicy(
            policy_context(chain, driver, aggregators, timing, num_rounds=2),
            training_window=0.5,
            scoring_window=5.0,
        ).run()
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        assert records and all(r["round"] == 2 for r in records)

    def test_explicit_zero_training_window_is_honoured(self):
        # Regression: `training_window=0.0` used to be silently replaced by the
        # provisioned default because of a truthiness check.
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        policy = SyncRoundPolicy(
            policy_context(chain, driver, aggregators, timing),
            training_window=0.0,
            scoring_window=0.0,
        )
        assert policy.training_window == 0.0
        assert policy.scoring_window == 0.0
        policy.run()
        # A zero-length window means nobody can ever submit in time.
        assert all(straggler_count(a) == 1 for a in aggregators)

    def test_generous_window_produces_no_stragglers(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        SyncRoundPolicy(
            policy_context(chain, driver, aggregators, timing, num_rounds=2),
            training_window=10_000.0,
            scoring_window=10_000.0,
        ).run()
        assert all(straggler_count(a) == 0 for a in aggregators)
        assert not any(r.straggled for a in aggregators for r in a.history)


class TestPolicyConstructorDefaults:
    """Defaults and range checks live in the policy that uses them."""

    def _context(self, mode):
        chain, driver, aggregators, timing, _ = build_federation(mode=mode)
        return policy_context(chain, driver, aggregators, timing), aggregators, timing

    def test_sync_windows_default_to_the_provisioned_ones(self):
        ctx, aggregators, timing = self._context("sync")
        clusters = [a.config for a in aggregators]
        policy = SyncRoundPolicy(ctx, scoring_algorithm="multikrum")
        assert policy.training_window == timing.expected_training_window(clusters)
        assert policy.scoring_window == timing.expected_scoring_window(
            clusters, algorithm="multikrum"
        )

    def test_semi_defaults_to_a_majority_quorum_and_one_training_window(self):
        ctx, aggregators, timing = self._context("semi")
        policy = SemiSyncRoundPolicy(ctx)
        assert policy.quorum_k == len(aggregators) // 2 + 1
        assert policy.max_staleness == timing.expected_training_window(
            [a.config for a in aggregators]
        )

    def test_hierarchical_rejects_out_of_range_parameters(self):
        ctx, aggregators, _ = self._context("hierarchical")
        with pytest.raises(ValueError, match="num_sites"):
            HierarchicalRoundPolicy(ctx, num_sites=0)
        with pytest.raises(ValueError, match="local_rounds_per_global"):
            HierarchicalRoundPolicy(ctx, local_rounds_per_global=0)
        with pytest.raises(ValueError, match="round_budget"):
            HierarchicalRoundPolicy(ctx, round_budget=0)
        # More sites than clusters is clamped, not rejected.
        assert HierarchicalRoundPolicy(ctx, num_sites=99).num_sites == len(aggregators)

    def test_gossip_rejects_a_negative_fanout(self):
        ctx, _, _ = self._context("gossip")
        with pytest.raises(ValueError, match="fanout"):
            GossipRoundPolicy(ctx, fanout=-1)


class TestAsyncOrchestrator:
    def test_two_rounds_complete(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        AsyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=2)).run()
        assert all(len(a.history) == 2 for a in aggregators)

    def test_async_total_times_differ_across_clusters(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        # Make the hardware heterogeneous so clusters genuinely diverge in time.
        from repro.simnet.hardware import RASPBERRY_PI_400

        aggregators[0].config = ClusterConfig(
            name=aggregators[0].config.name, num_clients=2, client_profile=RASPBERRY_PI_400
        )
        AsyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=2)).run()
        times = sorted(a.total_time() for a in aggregators)
        assert times[-1] > times[0]

    def test_async_faster_than_sync(self):
        def makespan(mode, policy):
            chain, driver, aggregators, timing, _ = build_federation(mode=mode, seed=2)
            policy(policy_context(chain, driver, aggregators, timing, num_rounds=2)).run()
            return max(a.total_time() for a in aggregators)

        assert makespan("async", AsyncRoundPolicy) < makespan("sync", SyncRoundPolicy)

    def test_scores_eventually_submitted(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        AsyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=2)).run()
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        assert any(len(r["scores"]) > 0 for r in records)

    def test_no_idle_time_in_async(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        AsyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=2)).run()
        assert idle_times(aggregators) == {a.name: 0.0 for a in aggregators}

    def test_round_timings_account_for_every_clock_second(self):
        # Regression: the end-of-run scoring drain advanced each cluster's
        # clock but recorded no timing, so summed round records understated
        # the cluster's total time.  The drain is now folded into the last
        # round record and the books balance exactly.
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        AsyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=2)).run()
        for aggregator in aggregators:
            recorded = sum(r.timing.total_time for r in aggregator.history)
            assert recorded == pytest.approx(aggregator.total_time(), abs=1e-9)

    def test_scheduling_goes_through_the_event_kernel(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        policy = AsyncRoundPolicy(policy_context(chain, driver, aggregators, timing, num_rounds=2))
        policy.run()
        assert policy.kernel is not None
        # One activation event per cluster round, all dispatched via the heap.
        assert policy.kernel.events_processed == len(aggregators) * 2
        stats = policy.kernel.queue.stats
        assert stats["pushes"] == stats["pops"] == len(aggregators) * 2


class TestSemiSyncOrchestrator:
    def _heterogeneous(self, seed=0):
        chain, driver, aggregators, timing, test = build_federation(mode="semi", seed=seed)
        # Slow one cluster down so clocks genuinely diverge and quorum waits occur.
        from repro.simnet.hardware import RASPBERRY_PI_400

        aggregators[0].config = ClusterConfig(
            name=aggregators[0].config.name, num_clients=2, client_profile=RASPBERRY_PI_400
        )
        return chain, driver, aggregators, timing

    def _run(self, chain, driver, aggregators, timing, num_rounds, **options):
        """Run semi-sync to completion; returns the context and the policy."""
        ctx = policy_context(chain, driver, aggregators, timing, num_rounds=num_rounds)
        policy = SemiSyncRoundPolicy(ctx, **options)
        policy.run()
        return ctx, policy

    def test_rounds_complete_for_every_cluster(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        _, policy = self._run(chain, driver, aggregators, timing, 2)
        assert policy.mode == "semi"
        assert all(len(a.history) == 2 for a in aggregators)

    def test_quorum_waits_produce_bounded_idle(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        self._run(chain, driver, aggregators, timing, 3, quorum_k=2)
        # Someone waited for a round to close (unlike async)...
        assert sum(idle_times(aggregators).values()) > 0.0
        # ...but nobody waited longer than the default staleness bound (one
        # provisioned sync training window) per round.
        bound = timing.expected_training_window([a.config for a in aggregators])
        for aggregator in aggregators:
            for record in aggregator.history:
                assert record.timing.idle_time <= bound + 1e-9

    def test_quorum_of_one_degenerates_to_async(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        _, policy = self._run(chain, driver, aggregators, timing, 2, quorum_k=1)
        assert idle_times(aggregators) == {a.name: 0.0 for a in aggregators}
        assert policy.extras()["staleness_closures"] == 0

    def test_small_staleness_bound_forces_staleness_closures(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        _, policy = self._run(
            chain, driver, aggregators, timing, 2, quorum_k=3, max_staleness=4.0
        )
        assert policy.extras()["staleness_closures"] > 0

    def test_expired_deadline_closes_at_the_first_landing(self):
        # With a staleness bound far smaller than any round, every deadline
        # expires on an empty round; the round must then close as soon as one
        # submission lands, never by quorum.
        chain, driver, aggregators, timing = self._heterogeneous()
        _, policy = self._run(
            chain, driver, aggregators, timing, 2, quorum_k=3, max_staleness=0.5
        )
        extras = policy.extras()
        assert extras["quorum_closures"] == 0
        assert extras["staleness_closures"] == extras["rounds_closed"] > 0

    def test_closures_are_recorded_in_time_order(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        _, policy = self._run(chain, driver, aggregators, timing, 3)
        extras = policy.extras()
        closures = extras["closures"]
        assert len(closures) == extras["rounds_closed"] >= 1
        close_times = [c[1] for c in closures]
        assert close_times == sorted(close_times)
        assert all(c[2] in ("quorum", "staleness") for c in closures)

    def test_round_timings_account_for_every_clock_second(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        self._run(chain, driver, aggregators, timing, 2)
        for aggregator in aggregators:
            recorded = sum(r.timing.total_time for r in aggregator.history)
            assert recorded == pytest.approx(aggregator.total_time(), abs=1e-9)

    def test_deterministic_for_a_fixed_seed(self):
        def run(seed):
            chain, driver, aggregators, timing = self._heterogeneous(seed=seed)
            _, policy = self._run(chain, driver, aggregators, timing, 2)
            return (
                {a.name: a.total_time() for a in aggregators},
                idle_times(aggregators),
                {a.name: [r.global_accuracy for r in a.history] for a in aggregators},
                policy.extras()["closures"],
            )

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_invalid_parameters_rejected(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        ctx = policy_context(chain, driver, aggregators, timing)
        with pytest.raises(ValueError, match="quorum_k"):
            SemiSyncRoundPolicy(ctx, quorum_k=0)
        with pytest.raises(ValueError, match="quorum_k"):
            SemiSyncRoundPolicy(ctx, quorum_k=len(aggregators) + 1)
        with pytest.raises(ValueError, match="max_staleness"):
            SemiSyncRoundPolicy(ctx, max_staleness=0.0)

    def test_scores_eventually_submitted(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        self._run(chain, driver, aggregators, timing, 2)
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        assert any(len(r["scores"]) > 0 for r in records)

    def test_extras_reach_the_experiment_result_and_json(self, tmp_path):
        from repro.core.config import ExperimentConfig, edge_cluster_configs
        from repro.core.reporting import load_result_json, save_result_json
        from repro.core.runner import ExperimentRunner

        config = ExperimentConfig(
            name="semi-extras",
            workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
            clusters=edge_cluster_configs(num_clients=2),
            mode="semi",
            rounds=2,
            seed=1,
        )
        result = ExperimentRunner(config).run()
        extras = result.orchestration_extras
        assert extras["semi_quorum_k"] == 2
        assert extras["rounds_closed"] == len(extras["closures"]) >= 1
        document = load_result_json(save_result_json(result, tmp_path / "semi.json"))
        assert document["orchestration_extras"]["rounds_closed"] == extras["rounds_closed"]


class TestOrchestrationResultBookkeeping:
    def test_histories_and_totals_consistent(self, tiny_experiment_config):
        result = ExperimentRunner(dataclasses.replace(tiny_experiment_config, rounds=3)).run()
        for aggregator in result.aggregators:
            assert len(aggregator.history) == 3
            # Simulated time is monotonically non-decreasing across rounds.
            times = [record.sim_time for record in aggregator.history]
            assert times == sorted(times)
            # The reported total time matches the aggregator's final clock.
            assert aggregator.total_time == pytest.approx(times[-1])

    def test_idle_time_only_reported_for_sync(self, tiny_experiment_config):
        sync_result = run_experiment(tiny_experiment_config)
        async_result = run_experiment(dataclasses.replace(tiny_experiment_config, mode="async"))
        assert any(a.idle_time > 0 for a in sync_result.aggregators)
        assert all(a.idle_time == 0 for a in async_result.aggregators)
