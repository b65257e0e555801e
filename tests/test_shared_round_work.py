"""Tests for what a wide round shares: decoded models and the round analysis.

Content addressing makes the ``n`` models of a round identical for all of
its ``n`` scorers.  The run therefore keeps one decoded copy per CID
(:class:`repro.ml.serialization.DecodedModels`) and analyses each round once
(one shared full-round scorer).  Both must be invisible — every result equals
what private copies and private scorers produce — and the counters must be
exact: nothing modelled (every fetch's IPFS read) is skipped, and the store's
bound decides how often a model is decoded, never a result.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SanitizerViolation, SimulationSanitizer
from repro.core.aggregator import UnifyFLAggregator
from repro.core.config import (
    ExperimentConfig,
    cifar10_workload,
    edge_cluster_configs,
    gpu_cluster_configs,
)
from repro.core.reporting import result_to_dict
from repro.core.runner import ExperimentRunner
from repro.core.scorer import (
    FULL_ROUND_SCORERS,
    SCORERS,
    CosineSimilarityScorer,
    MultiKRUMScorer,
    _FullRoundScorer,
    build_scorer,
)
from repro.core.timing import ClusterTimingModel
from repro.ipfs.node import IPFSNode
from repro.ml import serialization
from repro.ml.serialization import DecodedModels, weights_to_bytes
from repro.simnet.units import bytes_over_scaled_bandwidth


def wide_config(seed: int = 0, scoring: str = "multikrum", **overrides) -> ExperimentConfig:
    """12 single-client clusters, sync, two rounds: a small ``wide_sync``."""
    kwargs = dict(
        name=f"wide-{scoring}-{seed}",
        workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
        clusters=gpu_cluster_configs(num_clusters=12, num_clients=1),
        mode="sync",
        scoring_algorithm=scoring,
        rounds=2,
        seed=seed,
        storage_replicas=2,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def built_aggregators(num_clusters: int = 3):
    """The registered aggregators of a small built (not run) federation."""
    runner = ExperimentRunner(
        wide_config(
            scoring="accuracy", clusters=gpu_cluster_configs(num_clusters=num_clusters, num_clients=1)
        )
    )
    runner.build()
    for aggregator in runner.aggregators:
        aggregator.register()
    return runner, runner.aggregators


def same_tensors(first, second) -> bool:
    """Equal in count, dtype, shape and bytes."""
    return len(first) == len(second) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(first, second)
    )


def small_weights(seed: int, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(dtype) for shape in ((4, 3), (3,), (2, 1, 2))]


# ------------------------------------------------------------ exact counters
class TestExactCountersOnAWideRun:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_round_is_analysed_once_and_a_stored_model_decoded_once(self, seed, monkeypatch):
        analysed, requested, decodes = [], [], []
        runner = ExperimentRunner(wide_config(seed))
        score_round, score = MultiKRUMScorer.score_round, _FullRoundScorer.score
        decode, views = DecodedModels.decode, serialization.weights_views
        decoding = []

        def counting_score_round(self, round_weights):
            analysed.append(tuple(sorted(round_weights)))
            return score_round(self, round_weights)

        def recording_score(self, weights, context=None):
            requested.append(tuple(sorted(context["round_weights"])))
            return score(self, weights, context)

        def tracking_decode(self, cid, payload):
            decoding.append((cid, cid in self))
            try:
                return decode(self, cid, payload)
            finally:
                decoding.pop()

        def counting_views(payload):
            decodes.append(decoding[-1])
            return views(payload)

        monkeypatch.setattr(MultiKRUMScorer, "score_round", counting_score_round)
        monkeypatch.setattr(_FullRoundScorer, "score", recording_score)
        monkeypatch.setattr(DecodedModels, "decode", tracking_decode)
        monkeypatch.setattr(serialization, "weights_views", counting_views)
        runner.run()

        # One analysis per distinct round, however many scorers asked.
        assert sorted(analysed) == sorted(set(requested))
        assert len(requested) > len(analysed) >= 2
        # Two rounds of twelve submissions fit the store (2 x 12 slots): no
        # model is decoded while the store holds its CID, and none twice.
        submitted = {cid for a in runner.aggregators for cid in a.own_cids}
        assert len(submitted) <= runner.decoded_models.capacity == 24
        assert not any(stored for _, stored in decodes)
        assert sorted(cid for cid, _ in decodes) == sorted(submitted)

    def test_every_fetch_reads_once_through_its_own_node(self, monkeypatch):
        # The store shares decoded lists, never IPFS reads: each fetch gets
        # its payload from the fetching silo's node.  Re-reading a CID the
        # silo already holds is local, so the result (storage metrics
        # included) equals that of a run whose silos read each CID once.
        fetches, gets = [], []
        fetch, get = UnifyFLAggregator.fetch_weights, IPFSNode.get

        def counting_fetch(self, cid):
            fetches.append((self.ipfs, cid))
            return fetch(self, cid)

        def counting_get(self, cid):
            gets.append((self, str(cid)))
            return get(self, cid)

        monkeypatch.setattr(IPFSNode, "get", counting_get)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(UnifyFLAggregator, "fetch_weights", counting_fetch)
            every_fetch_reads = ExperimentRunner(wide_config()).run()
        assert fetches and gets == fetches
        fetch_reads = len(gets)

        held = {}

        def read_once_per_silo(self, cid):
            if (self.name, cid) not in held:
                held[self.name, cid] = fetch(self, cid)
            return held[self.name, cid]

        gets.clear()
        monkeypatch.setattr(UnifyFLAggregator, "fetch_weights", read_once_per_silo)
        read_once = ExperimentRunner(wide_config()).run()
        assert len(gets) < fetch_reads
        assert read_once.storage_metrics == every_fetch_reads.storage_metrics
        assert result_to_dict(read_once) == result_to_dict(every_fetch_reads)

    def test_every_aggregator_reads_the_same_read_only_tensors(self):
        runner = ExperimentRunner(wide_config())
        runner.run()
        for cid in (a.own_cids[-1] for a in runner.aggregators[:3]):
            fetched = [a.fetch_weights(cid) for a in runner.aggregators]
            assert all(weights is fetched[0] for weights in fetched)
            for tensor in fetched[0]:
                assert not tensor.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    tensor[...] = 0.0

    def test_the_bound_never_changes_a_result(self, monkeypatch):
        decodes = []
        views = serialization.weights_views

        def counting_views(payload):
            decodes.append(payload)
            return views(payload)

        monkeypatch.setattr(serialization, "weights_views", counting_views)
        default = ExperimentRunner(wide_config()).run()
        default_decodes = len(decodes)
        decodes.clear()
        starved = ExperimentRunner(wide_config())
        starved.decoded_models.capacity = 1
        result = starved.run()
        assert len(decodes) > default_decodes  # evicted models were decoded again
        assert result_to_dict(result) == result_to_dict(default)

    @pytest.mark.parametrize("mode", ["sync", "async", "semi", "hierarchical", "gossip"])
    def test_no_host_counter_reaches_the_result(self, mode):
        config = ExperimentConfig(
            name=f"extras-{mode}",
            workload=cifar10_workload(rounds=2, samples_per_class=6, image_size=8),
            clusters=edge_cluster_configs(num_clients=2),
            mode=mode,
            rounds=2,
            seed=1,
        )
        extras = ExperimentRunner(config).run().orchestration_extras
        assert not [key for key in extras if key.startswith("weights_cache")]


# ---------------------------------------------------------------- the store
class TestDecodedModelStore:
    def test_the_runner_bounds_the_store_at_two_rounds_of_slots(self):
        assert ExperimentRunner(wide_config()).decoded_models.capacity == 2 * 12
        sampled = wide_config(population=40, clients_per_round=5)
        assert ExperimentRunner(sampled).decoded_models.capacity == 2 * 5

    def test_one_model_past_the_bound_evicts_the_oldest(self):
        runner, (publisher, first, second) = built_aggregators()
        table = runner.decoded_models
        assert table.capacity == 2 * 3
        cids = [
            str(publisher.ipfs.add(weights_to_bytes(small_weights(seed))))
            for seed in range(table.capacity + 1)
        ]
        for cid in cids[:-1]:
            assert first.fetch_weights(cid) is second.fetch_weights(cid)
        assert len(table) == table.capacity
        first.fetch_weights(cids[-1])
        assert cids[0] not in table and cids[-1] in table
        assert len(table) == table.capacity
        # A re-fetch decodes the payload again, to an equal read-only model,
        # and that entry now pushes out the next oldest.
        again = second.fetch_weights(cids[0])
        assert same_tensors(again, small_weights(0))
        assert not any(tensor.flags.writeable for tensor in again)
        assert cids[0] in table and cids[1] not in table

    def test_a_hit_refreshes_its_entry(self):
        table = DecodedModels(capacity=2)
        payloads = [weights_to_bytes(small_weights(seed)) for seed in range(3)]
        held = table.decode("cid-0", payloads[0])
        table.decode("cid-1", payloads[1])
        assert table.decode("cid-0", payloads[0]) is held
        table.decode("cid-2", payloads[2])
        assert "cid-0" in table and "cid-1" not in table

    def test_a_malformed_payload_enters_nothing(self):
        table = DecodedModels(capacity=2)
        with pytest.raises(serialization.SerializationError):
            table.decode("cid-a", b"not a weight container")
        assert len(table) == 0

    def test_a_submitter_holds_the_model_its_peers_decode(self):
        # The container coerces float16 to float64: under one CID the
        # submitter must hold what everybody else decodes, not its
        # pre-serialization tensors.
        _, (submitter, peer, _) = built_aggregators()
        submitter.local_weights = [w.astype(np.float16) for w in submitter.local_weights]
        cid, _ = submitter.submit_local_model()
        own, pulled = submitter.fetch_weights(cid), peer.fetch_weights(cid)
        assert same_tensors(own, pulled)
        assert not any(w.flags.writeable for w in own)


# ---------------------------------------------------------- the shared scorer
def rounds_and_calls():
    """Two rounds with disjoint CIDs (n <= 8, D = 6, duplicate vectors
    allowed) and an interleaved sequence of (caller, round, model) requests."""
    vector = st.lists(
        st.floats(-4.0, 4.0, allow_nan=False, width=32), min_size=6, max_size=6
    )
    one_round = st.lists(vector, min_size=1, max_size=8)
    call = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 7))
    return given(
        first=one_round,
        second=one_round,
        calls=st.lists(call, min_size=1, max_size=24),
        tolerance=st.integers(0, 2),
    )


def as_round(prefix: str, vectors):
    return {
        f"{prefix}{i}": [np.array(v[:4]).reshape(2, 2), np.array(v[4:])]
        for i, v in enumerate(vectors)
    }


class TestSharedScorerIsInvisible:
    @settings(max_examples=60, deadline=None)
    @rounds_and_calls()
    def test_any_interleaving_of_two_rounds_matches_the_reference(
        self, first, second, calls, tolerance
    ):
        rounds = [as_round("a", first), as_round("b", second)]
        for shared in (MultiKRUMScorer(byzantine_tolerance=tolerance), CosineSimilarityScorer()):
            reference = [shared.score_round_reference(r) for r in rounds]
            # Three callers, one scorer: which of them asks is irrelevant
            # to the scorer, so a caller is just a private copy of the round
            # dict (same CIDs, same tensors, different mapping object).
            views = [[dict(r) for r in rounds] for _ in range(3)]
            for caller, which, index in calls:
                round_weights = views[caller][which]
                cid = sorted(round_weights)[index % len(round_weights)]
                score = shared.score(
                    round_weights[cid], context={"round_weights": round_weights, "cid": cid}
                )
                assert score == reference[which][cid]
                assert shared._round_scores(round_weights) == reference[which]

    @pytest.mark.parametrize("churn_rate", [0.0, 0.2])
    def test_a_run_is_the_same_with_one_scorer_or_one_per_cluster(self, churn_rate):
        shared_runner = ExperimentRunner(wide_config(churn_rate=churn_rate))
        shared = shared_runner.run()
        scorers = {id(a.scorer) for a in shared_runner.aggregators}
        assert scorers == {id(shared_runner.round_scorer)}

        private_runner = ExperimentRunner(wide_config(churn_rate=churn_rate))
        private_runner.build()
        for aggregator in private_runner.aggregators:
            aggregator.scorer = MultiKRUMScorer()
        private = private_runner.run()
        assert result_to_dict(shared) == result_to_dict(private)
        if churn_rate:
            # A scorer that sat round 1 out is still assigned round-1 models
            # in round 2, whose round it cannot analyse them in: they stay
            # pending instead of failing the run.
            chain = shared_runner.chain
            stale = [
                chain.call("unifyfl", "getSubmission", {"cid": cid})["round"]
                for a in shared_runner.aggregators
                if a.history[0].offline and not a.history[1].offline
                for cid in chain.call("unifyfl", "getAssignedModels", {"scorer": a.address})
            ]
            assert stale and set(stale) == {1}

    def test_runners_share_neither_table_nor_scorer(self):
        first_runner = ExperimentRunner(wide_config())
        second_runner = ExperimentRunner(wide_config())
        assert first_runner.decoded_models is not second_runner.decoded_models
        assert first_runner.round_scorer is not second_runner.round_scorer
        first = first_runner.run()
        assert len(second_runner.decoded_models) == 0
        assert second_runner.round_scorer._round_memo is None
        second = second_runner.run()
        assert result_to_dict(first) == result_to_dict(second)
        assert all(
            a.decoded_models is second_runner.decoded_models for a in second_runner.aggregators
        )

    def test_held_out_set_scorers_stay_per_cluster(self):
        runner = ExperimentRunner(wide_config(scoring="accuracy", rounds=1))
        runner.build()
        assert runner.round_scorer is None
        assert len({id(a.scorer) for a in runner.aggregators}) == len(runner.aggregators)


class TestFullRoundScorersAreDeclaredOnce:
    def test_the_set_is_read_off_the_classes(self):
        assert FULL_ROUND_SCORERS == {
            name for name, cls in SCORERS.items() if cls.requires_full_round
        }
        assert FULL_ROUND_SCORERS == {"multikrum", "cosine"}
        assert all(build_scorer(name).name == name for name in FULL_ROUND_SCORERS)

    @pytest.mark.parametrize("name", sorted(FULL_ROUND_SCORERS))
    def test_a_full_round_scorer_is_sync_only_bandwidth_priced_and_shared(self, name):
        with pytest.raises(ValueError, match="only supported in sync mode"):
            wide_config(scoring=name, mode="async")
        config = wide_config(scoring=name)
        timing = ClusterTimingModel(config.workload)
        cluster = config.clusters[0]
        per_model = bytes_over_scaled_bandwidth(
            timing.nominal_model_bytes,
            cluster.aggregator_profile.bandwidth_mbytes_per_s,
            timing.SIMILARITY_BANDWIDTH_SCALE,
        )
        assert timing.scoring_time(cluster, 3, algorithm=name) == 3 * max(per_model, 0.05)
        runner = ExperimentRunner(config)
        runner.build()
        assert Counter(id(a.scorer) for a in runner.aggregators) == {
            id(runner.round_scorer): len(runner.aggregators)
        }


# ------------------------------------------------- the sanitizer is the oracle
class TestSanitizerIsTheOracle:
    def test_an_honest_round_hit_is_recomputed_and_passes(self):
        scorer = MultiKRUMScorer()
        scorer.sanitizer = SimulationSanitizer()
        round_weights = {f"cid{i}": small_weights(i) for i in range(4)}
        first = scorer._round_scores(round_weights)
        assert scorer.sanitizer.checks["round_scores"] == 0
        assert scorer._round_scores(dict(round_weights)) is first
        assert scorer.sanitizer.checks["round_scores"] == 1

    def test_a_tampered_round_score_raises_naming_the_cid(self):
        scorer = CosineSimilarityScorer()
        scorer.sanitizer = SimulationSanitizer()
        round_weights = {f"cid{i}": small_weights(i) for i in range(4)}
        scorer._round_scores(round_weights)["cid2"] += 0.125
        with pytest.raises(SanitizerViolation, match="cid2") as raised:
            scorer.score(round_weights["cid0"], {"round_weights": round_weights, "cid": "cid0"})
        assert "cid1" not in str(raised.value)

    def test_a_repeated_nan_score_is_not_a_violation(self):
        sanitizer = SimulationSanitizer()
        sanitizer.check_round_scores(("a", "b"), {"a": float("nan"), "b": 0.5}, {"a": float("nan"), "b": 0.5})
        with pytest.raises(SanitizerViolation, match="a"):
            sanitizer.check_round_scores(("a", "b"), {"a": float("nan"), "b": 0.5}, {"a": 0.25, "b": 0.5})

    def test_an_honest_table_hit_is_decoded_again_and_passes(self):
        table = DecodedModels(capacity=2)
        table.sanitizer = SimulationSanitizer()
        payload = weights_to_bytes(small_weights(1, np.float32))
        held = table.decode("cid-a", payload)
        assert table.sanitizer.checks["decoded_model"] == 0
        assert table.decode("cid-a", payload) is held
        assert table.sanitizer.checks["decoded_model"] == 1

    def test_a_sanitized_run_checks_every_store_hit(self, monkeypatch):
        lookups = []
        decode = DecodedModels.decode

        def counting_decode(self, cid, payload):
            lookups.append(cid in self)
            return decode(self, cid, payload)

        monkeypatch.setattr(DecodedModels, "decode", counting_decode)
        runner = ExperimentRunner(wide_config(sanitize=True))
        runner.run()
        assert runner.sanitizer.checks["decoded_model"] == sum(lookups) > 0

    def test_a_tampered_tensor_raises_naming_the_cid(self):
        table = DecodedModels(capacity=2)
        table.sanitizer = SimulationSanitizer()
        payload = weights_to_bytes(small_weights(1))
        held = table.decode("cid-a", payload)
        # The held tensors view the payload's bytes and cannot be written:
        # tamper by putting a changed copy in the held list.
        held[1] = held[1] + 1.0
        with pytest.raises(SanitizerViolation, match="cid-a.*tensor 1"):
            table.decode("cid-a", payload)

    def test_a_payload_of_another_dtype_or_shape_is_a_violation(self):
        sanitizer = SimulationSanitizer()
        stored = small_weights(2)
        sanitizer.check_decoded_model("cid-a", stored, [w.copy() for w in stored])
        with pytest.raises(SanitizerViolation, match="cid-a"):
            sanitizer.check_decoded_model("cid-a", stored, [w.astype(np.float32) for w in stored])
        with pytest.raises(SanitizerViolation, match="cid-a"):
            sanitizer.check_decoded_model("cid-a", stored, [w.reshape(-1) for w in stored])
        with pytest.raises(SanitizerViolation, match="3 tensors.*decodes to 2"):
            sanitizer.check_decoded_model("cid-a", stored, stored[:2])
