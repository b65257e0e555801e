"""Tests for the UnifyFL aggregator and the orchestrator under the sync/async/semi policies."""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.core.aggregator import UnifyFLAggregator
from repro.core.attacks import SignFlipAttack
from repro.core.config import ClusterConfig, cifar10_workload
from repro.core.contract import UnifyFLContract
from repro.core.orchestrator import Orchestrator
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
    """The context an orchestrator would hand a policy builder for a dense run."""
    return OrchestrationContext(
        chain=chain,
        driver=driver,
        aggregators=aggregators,
        timing=timing,
        num_rounds=num_rounds,
        roster=StaticRoster(aggregators),
        comm=aggregators[0].comm,
    )


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

        monkeypatch.setattr("repro.ml.serialization.weights_from_bytes", broken_decoder)
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
            Orchestrator(chain, driver, aggregators, timing, AsyncRoundPolicy).run(3)
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
        orchestrator = Orchestrator(chain, driver, aggregators, timing, SyncRoundPolicy)
        result = orchestrator.run(2)
        assert result.rounds_completed == 2
        assert all(len(h) == 2 for h in result.histories.values())

    def test_all_aggregators_share_the_same_total_time(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        orchestrator = Orchestrator(chain, driver, aggregators, timing, SyncRoundPolicy)
        result = orchestrator.run(2)
        times = list(result.total_times.values())
        assert max(times) - min(times) < 1e-6

    def test_idle_time_recorded(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        orchestrator = Orchestrator(chain, driver, aggregators, timing, SyncRoundPolicy)
        result = orchestrator.run(1)
        assert any(idle > 0 for idle in result.idle_times.values())

    def test_every_aggregator_scored_peers(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        Orchestrator(chain, driver, aggregators, timing, SyncRoundPolicy).run(1)
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        assert len(records) == 3
        assert all(len(r["scores"]) == 2 for r in records)

    def test_tight_window_causes_stragglers(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        orchestrator = Orchestrator(
            chain, driver, aggregators, timing,
            partial(SyncRoundPolicy, training_window=0.5, scoring_window=5.0),
        )
        result = orchestrator.run(2)
        assert sum(result.straggler_counts.values()) > 0

    def test_requires_aggregators(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        with pytest.raises(ValueError):
            Orchestrator(chain, driver, [], timing, SyncRoundPolicy)

    def test_rejects_zero_rounds(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        orchestrator = Orchestrator(chain, driver, aggregators, timing, SyncRoundPolicy)
        with pytest.raises(ValueError):
            orchestrator.run(0)

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
        orchestrator = Orchestrator(
            chain, driver, aggregators, timing,
            partial(SyncRoundPolicy, training_window=0.5, scoring_window=5.0),
        )
        result = orchestrator.run(2)
        # The window is far too tight for anyone: every cluster straggles in
        # round 1, so no model reaches the contract during that round...
        assert chain.call("unifyfl", "roundSubmissionCount", {"round_number": 1}) == 0
        assert all(h[0].straggled for h in result.histories.values())
        # ...and every cluster opens round 2 by submitting its stale model.
        assert chain.call("unifyfl", "roundSubmissionCount", {"round_number": 2}) == len(aggregators)
        for history in result.histories.values():
            assert history[0].timing.store_time == 0.0
            assert history[1].timing.store_time > 0.0
        assert all(count == 2 for count in result.straggler_counts.values())

    def test_late_submissions_carry_the_next_round_number(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        Orchestrator(
            chain, driver, aggregators, timing,
            partial(SyncRoundPolicy, training_window=0.5, scoring_window=5.0),
        ).run(2)
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        assert records and all(r["round"] == 2 for r in records)

    def test_explicit_zero_training_window_is_honoured(self):
        # Regression: `training_window=0.0` used to be silently replaced by the
        # provisioned default because of a truthiness check.
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        zero_windows = partial(SyncRoundPolicy, training_window=0.0, scoring_window=0.0)
        policy = zero_windows(policy_context(chain, driver, aggregators, timing))
        assert policy.training_window == 0.0
        assert policy.scoring_window == 0.0
        result = Orchestrator(chain, driver, aggregators, timing, zero_windows).run(1)
        # A zero-length window means nobody can ever submit in time.
        assert all(count == 1 for count in result.straggler_counts.values())

    def test_generous_window_produces_no_stragglers(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="sync")
        result = Orchestrator(
            chain, driver, aggregators, timing,
            partial(SyncRoundPolicy, training_window=10_000.0, scoring_window=10_000.0),
        ).run(2)
        assert all(count == 0 for count in result.straggler_counts.values())
        assert not any(h.straggled for history in result.histories.values() for h in history)


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
        orchestrator = Orchestrator(chain, driver, aggregators, timing, AsyncRoundPolicy)
        result = orchestrator.run(2)
        assert result.rounds_completed == 2
        assert all(len(h) == 2 for h in result.histories.values())

    def test_async_total_times_differ_across_clusters(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        # Make the hardware heterogeneous so clusters genuinely diverge in time.
        from repro.simnet.hardware import RASPBERRY_PI_400

        aggregators[0].config = ClusterConfig(
            name=aggregators[0].config.name, num_clients=2, client_profile=RASPBERRY_PI_400
        )
        result = Orchestrator(chain, driver, aggregators, timing, AsyncRoundPolicy).run(2)
        times = sorted(result.total_times.values())
        assert times[-1] > times[0]

    def test_async_faster_than_sync(self):
        sync_chain, sync_driver, sync_aggs, sync_timing, _ = build_federation(mode="sync", seed=2)
        sync_result = Orchestrator(sync_chain, sync_driver, sync_aggs, sync_timing, SyncRoundPolicy).run(2)
        async_chain, async_driver, async_aggs, async_timing, _ = build_federation(mode="async", seed=2)
        async_result = Orchestrator(async_chain, async_driver, async_aggs, async_timing, AsyncRoundPolicy).run(2)
        assert max(async_result.total_times.values()) < max(sync_result.total_times.values())

    def test_scores_eventually_submitted(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        Orchestrator(chain, driver, aggregators, timing, AsyncRoundPolicy).run(2)
        records = chain.call("unifyfl", "getLatestModelsWithScores")
        assert any(len(r["scores"]) > 0 for r in records)

    def test_no_idle_time_in_async(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        result = Orchestrator(chain, driver, aggregators, timing, AsyncRoundPolicy).run(2)
        assert all(idle == 0.0 for idle in result.idle_times.values())

    def test_round_timings_account_for_every_clock_second(self):
        # Regression: the end-of-run scoring drain advanced each cluster's
        # clock but recorded no timing, so summed round records understated
        # the cluster's total time.  The drain is now folded into the last
        # round record and the books balance exactly.
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        result = Orchestrator(chain, driver, aggregators, timing, AsyncRoundPolicy).run(2)
        for aggregator in aggregators:
            recorded = sum(r.timing.total_time for r in result.histories[aggregator.name])
            assert recorded == pytest.approx(aggregator.total_time(), abs=1e-9)

    def test_scheduling_goes_through_the_event_kernel(self):
        chain, driver, aggregators, timing, _ = build_federation(mode="async")
        orchestrator = Orchestrator(chain, driver, aggregators, timing, AsyncRoundPolicy)
        orchestrator.run(2)
        assert orchestrator.kernel is not None
        # One activation event per cluster round, all dispatched via the heap.
        assert orchestrator.kernel.events_processed == len(aggregators) * 2
        stats = orchestrator.kernel.queue.stats
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

    def test_rounds_complete_for_every_cluster(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        result = Orchestrator(chain, driver, aggregators, timing, SemiSyncRoundPolicy).run(2)
        assert result.mode == "semi"
        assert result.rounds_completed == 2
        assert all(len(h) == 2 for h in result.histories.values())

    def test_quorum_waits_produce_bounded_idle(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        result = Orchestrator(
            chain, driver, aggregators, timing,
            partial(SemiSyncRoundPolicy, quorum_k=2),
        ).run(3)
        # Someone waited for a round to close (unlike async)...
        assert sum(result.idle_times.values()) > 0.0
        # ...but nobody waited longer than the default staleness bound (one
        # provisioned sync training window) per round.
        bound = timing.expected_training_window([a.config for a in aggregators])
        for history in result.histories.values():
            for record in history:
                assert record.timing.idle_time <= bound + 1e-9

    def test_quorum_of_one_degenerates_to_async(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        result = Orchestrator(
            chain, driver, aggregators, timing,
            partial(SemiSyncRoundPolicy, quorum_k=1),
        ).run(2)
        assert all(idle == 0.0 for idle in result.idle_times.values())
        assert result.extras["staleness_closures"] == 0

    def test_small_staleness_bound_forces_staleness_closures(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        result = Orchestrator(
            chain, driver, aggregators, timing,
            partial(SemiSyncRoundPolicy, quorum_k=3, max_staleness=4.0),
        ).run(2)
        assert result.extras["staleness_closures"] > 0

    def test_expired_deadline_closes_at_the_first_landing(self):
        # With a staleness bound far smaller than any round, every deadline
        # expires on an empty round; the round must then close as soon as one
        # submission lands, never by quorum.
        chain, driver, aggregators, timing = self._heterogeneous()
        result = Orchestrator(
            chain, driver, aggregators, timing,
            partial(SemiSyncRoundPolicy, quorum_k=3, max_staleness=0.5),
        ).run(2)
        assert result.extras["quorum_closures"] == 0
        assert result.extras["staleness_closures"] == result.extras["rounds_closed"] > 0

    def test_closures_are_recorded_in_time_order(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        result = Orchestrator(chain, driver, aggregators, timing, SemiSyncRoundPolicy).run(3)
        closures = result.extras["closures"]
        assert len(closures) == result.extras["rounds_closed"] >= 1
        close_times = [c[1] for c in closures]
        assert close_times == sorted(close_times)
        assert all(c[2] in ("quorum", "staleness") for c in closures)

    def test_round_timings_account_for_every_clock_second(self):
        chain, driver, aggregators, timing = self._heterogeneous()
        result = Orchestrator(chain, driver, aggregators, timing, SemiSyncRoundPolicy).run(2)
        for aggregator in aggregators:
            recorded = sum(r.timing.total_time for r in result.histories[aggregator.name])
            assert recorded == pytest.approx(aggregator.total_time(), abs=1e-9)

    def test_deterministic_for_a_fixed_seed(self):
        def run(seed):
            chain, driver, aggregators, timing = self._heterogeneous(seed=seed)
            result = Orchestrator(chain, driver, aggregators, timing, SemiSyncRoundPolicy).run(2)
            return (
                result.total_times,
                result.idle_times,
                {n: [r.global_accuracy for r in h] for n, h in result.histories.items()},
                result.extras["closures"],
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
        Orchestrator(chain, driver, aggregators, timing, SemiSyncRoundPolicy).run(2)
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
