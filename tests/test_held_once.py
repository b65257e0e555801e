"""Tests for what a run holds: each model once, each data row once, each
chain record once.

Weight lists are shared, read-only values: every aggregator starts on the
runner's one initial list, policies hand models over by reference, and an
in-place write raises instead of changing the model under another holder.
An honest cluster holds its published model as the run's one decoded copy,
and a decoded model is a set of views into the payload the IPFS block
stores already hold.  A runner-built client holds its partition as row
indices into its cluster's shard and gathers the rows only while it fits.
A cluster's global model lives only until ``record_round`` closes its
round.  The baselines train on the runner's one network and score with its
one evaluator.  A sealed contract event is one object, held by its receipt
and the event log alike; a receipt keeps no snapshot of contract state, and
the per-event records carry no instance ``__dict__``.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.chain.events import Event
from repro.chain.transaction import Transaction, TransactionReceipt
from repro.core.aggregator import UnifyFLAggregator
from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
from repro.core.contract import UnifyFLContract
from repro.core.runner import ExperimentRunner
from repro.core.timing import RoundTiming
from repro.datasets.partition import IIDPartitioner
from repro.ipfs.cid import compute_cid, parse_cid
from repro.ipfs.swarm import TransferRecord
from repro.ml.evaluation import Evaluator
from repro.ml.models import Model
from repro.ml.serialization import DecodedModels, weights_to_bytes
from repro.sched.actors import ChainOp, ResilienceDecision
from repro.simnet.network import ScheduledTransfer

ALL_MODES = ("sync", "async", "semi", "hierarchical", "gossip")


def config(mode: str = "sync", sampled: bool = False) -> ExperimentConfig:
    kwargs = dict(
        name=f"held-once-{mode}",
        workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
        clusters=gpu_cluster_configs(num_clusters=3, num_clients=2),
        mode=mode,
        rounds=2,
        seed=0,
        storage_replicas=2,
    )
    if sampled:
        kwargs.update(population=1000, clients_per_round=6)
    return ExperimentConfig(**kwargs)


def assert_read_only(weights) -> None:
    for tensor in weights:
        assert not tensor.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tensor.flat[0] = 0.0


class TestOneInitialList:
    @pytest.mark.parametrize("sampled", [False, True], ids=["dense", "sampled"])
    def test_every_cluster_starts_on_the_runners_read_only_list(self, sampled):
        runner = ExperimentRunner(config(sampled=sampled))
        runner.build()
        aggregators = (
            runner.population.round_aggregators(1) if sampled else runner.aggregators
        )
        assert len(aggregators) >= 2
        for aggregator in aggregators:
            assert aggregator.global_weights is runner.initial_weights
            assert aggregator.local_weights is runner.initial_weights
        assert_read_only(runner.initial_weights)
        # The one list holds the template's weights, which stay writeable.
        template = runner.model_template.get_weights()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(runner.initial_weights, template))

    def test_an_aggregator_built_alone_still_shares_one_list(self):
        runner = ExperimentRunner(config())
        runner.build()
        built = runner.aggregators[0]
        alone = UnifyFLAggregator(
            config=built.config,
            workload=built.workload,
            account=built.account,
            chain=built.chain,
            ipfs_node=built.ipfs,
            model_template=runner.model_template,
            clients=built.clients,
            scorer=built.scorer,
            eval_data=built.eval_data,
            comm=built.comm,
        )
        assert alone.global_weights is alone.local_weights
        assert_read_only(alone.local_weights)


class TestHeldWeightsAreReadOnly:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_every_model_a_round_holds_rejects_a_write(self, mode, monkeypatch):
        """Whatever the policy hands over -- built, broadcast, merged or
        aliased -- is read-only when a cluster trains on it and after."""
        train = UnifyFLAggregator.local_training_round
        trained = []

        def checked_train(aggregator):
            assert_read_only(aggregator.global_weights)
            timing = train(aggregator)
            assert_read_only(aggregator.local_weights)
            trained.append(aggregator.name)
            return timing

        monkeypatch.setattr(UnifyFLAggregator, "local_training_round", checked_train)
        runner = ExperimentRunner(config(mode, sampled=True))
        runner.run()
        assert trained
        for aggregator in runner.aggregators:
            assert_read_only(aggregator.local_weights)


class TestIndexHeldPartitions:
    @staticmethod
    def assert_same_arrays(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sampled", [False, True], ids=["dense", "sampled"])
    def test_a_gathered_partition_is_the_subset_in_bytes(self, sampled):
        runner = ExperimentRunner(config(sampled=sampled))
        runner.build()
        aggregators = (
            runner.population.round_aggregators(1) if sampled else runner.aggregators
        )
        shards = {id(shard) for shard in runner.cluster_train_data.values()}
        for aggregator in aggregators:
            for client in aggregator.clients:
                # The client holds its cluster's shard and indices, no rows.
                assert id(client.train_data) in shards
                assert client.indices is not None
                x, y = client.partition()
                subset = client.train_data.subset(client.indices)
                self.assert_same_arrays(x, subset.x)
                self.assert_same_arrays(y, subset.y)
                assert client.num_samples == len(subset)

    def test_a_virtual_clusters_partitions_are_the_partitioners(self):
        runner = ExperimentRunner(config(sampled=True))
        runner.build()
        index = runner.population.sampler.cohort(1)[0]
        aggregator = runner.population.round_aggregators(1)[0]
        template = runner.config.clusters[index % len(runner.config.clusters)]
        parts = IIDPartitioner(
            template.num_clients, seed=runner.config.seed + 100 + index
        ).partition(runner.cluster_train_data[template.name])
        assert len(parts) == len(aggregator.clients)
        for client, part in zip(aggregator.clients, parts):
            x, y = client.partition()
            self.assert_same_arrays(x, part.x)
            self.assert_same_arrays(y, part.y)


class TestRoundScopedGlobalModel:
    def test_record_round_releases_it_and_an_offline_record_reports_it(self):
        runner = ExperimentRunner(config())
        runner.build()
        aggregator = runner.aggregators[0]
        aggregator.register()
        aggregator.build_global_model()
        # No peer has submitted: the global model is the local one, not a copy.
        assert aggregator.global_weights is aggregator.local_weights
        saved = [np.array(w, copy=True) for w in aggregator.global_weights]
        aggregator.local_training_round()
        online = aggregator.record_round(1, RoundTiming())
        assert aggregator.global_weights is None

        offline = aggregator.record_round(2, RoundTiming(), offline=True)
        # A fresh evaluator remembers nothing: this is a recomputation.
        loss, accuracy = Evaluator(runner.model_template).evaluate(saved, runner.test_data)
        assert (offline.global_loss, offline.global_accuracy) == (loss, accuracy)
        assert (online.global_loss, online.global_accuracy) == (loss, accuracy)
        assert aggregator.global_weights is None

    def test_training_without_a_global_model_raises(self):
        runner = ExperimentRunner(config())
        runner.build()
        aggregator = runner.aggregators[0]
        aggregator.register()
        aggregator.local_training_round()
        aggregator.record_round(1, RoundTiming())
        with pytest.raises(RuntimeError, match="build_global_model"):
            aggregator.local_training_round()
        aggregator.build_global_model()
        aggregator.local_training_round()


class TestPublishedOnce:
    @staticmethod
    def trained_aggregator(attack=None):
        cfg = config()
        if attack is not None:
            first = dataclasses.replace(cfg.clusters[0], attack=attack)
            cfg = dataclasses.replace(cfg, clusters=[first] + cfg.clusters[1:])
        runner = ExperimentRunner(cfg)
        runner.build()
        aggregator = runner.aggregators[0]
        aggregator.register()
        aggregator.build_global_model()
        aggregator.local_training_round()
        return aggregator

    def test_an_honest_submission_holds_the_decoded_copy(self):
        aggregator = self.trained_aggregator()
        trained = aggregator.local_weights
        cid, _ = aggregator.submit_local_model()
        # The local model is the list every peer's fetch of ``cid`` reads...
        assert aggregator.local_weights is aggregator.fetch_weights(cid)
        assert aggregator.local_weights is not trained
        # ...with the trained bits, and still named by ``cid``.
        assert [w.tobytes() for w in aggregator.local_weights] == [w.tobytes() for w in trained]
        assert aggregator._local_cid == cid
        assert_read_only(aggregator.local_weights)
        # ...and views the payload the silo's block store holds under it.
        stored = np.frombuffer(aggregator.ipfs.get(parse_cid(cid)), dtype=np.uint8)
        assert all(np.shares_memory(w, stored) for w in aggregator.local_weights)

    def test_a_poisoned_submission_keeps_the_trained_list(self):
        aggregator = self.trained_aggregator(attack="sign_flip")
        trained = aggregator.local_weights
        cid, _ = aggregator.submit_local_model()
        # What was published is the poisoned model, not the local one.
        assert aggregator.local_weights is trained
        assert aggregator.fetch_weights(cid) is not trained
        assert aggregator._local_cid is None


class TestBaselinesHoldNoNetwork:
    @pytest.mark.parametrize(
        "baseline",
        ["run_no_collab_baseline", "run_centralized_baseline", "run_single_level_baseline"],
    )
    def test_a_baseline_clones_no_model(self, baseline, monkeypatch):
        runner = ExperimentRunner(config())
        clones = []
        clone = Model.clone
        monkeypatch.setattr(Model, "clone", lambda self: clones.append(self) or clone(self))
        getattr(runner, baseline)()
        assert clones == []


# ------------------------------------------------------ models and records
def views_the_payload(weights, payload: bytes) -> bool:
    buffer = np.frombuffer(payload, dtype=np.uint8)
    return all(
        not tensor.flags.writeable and np.shares_memory(tensor, buffer) for tensor in weights
    )


class TestDecodedModelsViewThePayload:
    def test_a_miss_and_a_hit_return_views_of_the_payload(self):
        weights = [np.arange(6.0).reshape(2, 3), np.ones(4, dtype=np.float32), np.int64(7)]
        payload = weights_to_bytes(weights)
        table = DecodedModels(capacity=2)
        decoded = table.decode("cid-a", payload)
        assert views_the_payload(decoded, payload)
        assert table.decode("cid-a", payload) is decoded
        assert [t.tobytes() for t in decoded] == [np.asarray(w).tobytes() for w in weights]

    def test_every_model_a_wide_run_fetches_views_its_payload(self):
        runner = ExperimentRunner(config())
        runner.run()
        for aggregator in runner.aggregators:
            for cid in aggregator.own_cids[-1:]:
                payload = aggregator.ipfs.get(parse_cid(cid))
                assert views_the_payload(aggregator.fetch_weights(cid), payload)


def scored_chain():
    """An async UnifyFL chain after one submission and one score, and the
    hashes of every transaction it sealed."""
    accounts = [Account.create(label=f"held{i}", seed=300 + i) for i in range(3)]
    chain = Blockchain(accounts, block_period=1.0)
    chain.deploy_contract(UnifyFLContract(mode="async", scorer_seed=1))
    hashes = [chain.send(account, "unifyfl", "registerAggregator") for account in accounts]
    chain.mine_until_empty()
    cid = "Qm" + "4" * 64
    hashes.append(chain.send(accounts[0], "unifyfl", "submitModel", {"cid": cid}))
    chain.mine_until_empty()
    scorer_address = chain.call("unifyfl", "getSubmission", {"cid": cid})["assigned_scorers"][0]
    scorer = next(a for a in accounts if a.address == scorer_address)
    score_hash = chain.send(scorer, "unifyfl", "submitScore", {"cid": cid, "score": 0.5})
    chain.mine_until_empty()
    return chain, hashes + [score_hash]


class TestChainRecordsHeldOnce:
    def test_a_receipts_events_are_the_logs_own_objects(self):
        chain, hashes = scored_chain()
        log = chain.event_bus.events
        held = 0
        for tx_hash in hashes:
            receipt = chain.receipt(tx_hash)
            assert receipt.success and receipt.events
            for event in receipt.events:
                assert log[event.log_index] is event
                assert event.block_number == receipt.block_number
                assert event.tx_hash == tx_hash
                held += 1
        assert held == len(log)

    def test_a_score_receipt_keeps_no_submission_snapshot(self):
        chain, hashes = scored_chain()
        for tx_hash in hashes[-2:]:  # submitModel, submitScore
            assert chain.receipt(tx_hash).return_value is None

    def test_the_per_event_records_carry_no_instance_dict(self):
        account = Account.create(label="slots", seed=7)
        cid = compute_cid(b"slots")
        records = [
            ScheduledTransfer("a", "b", 1, 0.0, 0.0, 1.0),
            TransferRecord(cid, "a", "b", 1),
            cid,
            Event("unifyfl", "ModelSubmitted", {}),
            Transaction.create(account, "unifyfl", "submitModel", {"cid": str(cid)}),
            TransactionReceipt("0x0", 1, True, 21_000),
            ChainOp("submitModel", "agg1", 1, 0.0, 1.0, 0),
            ResilienceDecision("retry", 0.0, "agg1", "replica0"),
        ]
        assert len({type(record) for record in records}) == 8
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__


class TestRetainedBytesPerSubmission:
    @staticmethod
    def wide_config(rounds: int) -> ExperimentConfig:
        """The federation of CI's wide Multi-KRUM leg: 12 single-client
        clusters, sync, four storage replicas of capacity 2, least-loaded."""
        return ExperimentConfig(
            name=f"held-wide-{rounds}",
            workload=cifar10_workload(rounds=rounds, samples_per_class=8, image_size=8),
            clusters=gpu_cluster_configs(num_clusters=12, num_clients=1),
            mode="sync",
            scoring_algorithm="multikrum",
            rounds=rounds,
            seed=0,
            storage_replicas=4,
            replica_capacity=2,
            replica_selection="least-loaded",
        )

    def test_a_submission_costs_under_95_kib_of_retained_memory(self):
        """What a wide run holds per published model, host-independent.

        ``tracemalloc`` counts the bytes a finished run (its runner and
        result) still holds after a ``gc.collect()``, at 2 and at 4 rounds
        of the CI wide shape; their difference over the submissions added
        (14 to 37) is what one published model and its chain records cost.
        A payload is 46.9 KiB.  It read 108.8 KiB while every decoded model
        was a copy of its payload, each score receipt kept a submission
        snapshot, each event was held twice and the per-event records had
        an instance ``__dict__``; 78.7 KiB without them (Python 3.11.7,
        numpy 2.4.6).  The ceiling sits between the two.
        """
        ExperimentRunner(self.wide_config(2)).run()
        held, submissions = {}, {}
        for rounds in (2, 4):
            was_tracing = tracemalloc.is_tracing()
            if not was_tracing:
                tracemalloc.start()
            try:
                gc.collect()
                before, _ = tracemalloc.get_traced_memory()
                runner = ExperimentRunner(self.wide_config(rounds))
                result = runner.run()
                gc.collect()
                after, _ = tracemalloc.get_traced_memory()
            finally:
                if not was_tracing:
                    tracemalloc.stop()
            held[rounds] = after - before
            submissions[rounds] = sum(len(a.own_cids) for a in runner.aggregators)
            del runner, result
        assert (submissions[2], submissions[4]) == (14, 37)
        kib = (held[4] - held[2]) / 1024 / (submissions[4] - submissions[2])
        assert kib <= 95, kib
