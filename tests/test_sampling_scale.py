"""Sampled federations and vectorised scoring.

Covers the cross-device-scale layer end to end:

* :class:`~repro.core.sampling.ClientSampler` — seeded, call-order-independent
  cohorts that never perturb the fault plan's churn stream;
* the vectorised MultiKRUM / cosine ``score_round`` implementations against
  their retained reference loops, with ``==`` per score;
* the lazy cluster factory — sampled experiments materialise O(cohort)
  clusters across every registered mode, reproducibly, merge pulled models
  with the same ``average_weights`` arithmetic as a dense run, and export
  their sampling metadata in the (version 2) JSON document.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.aggregator import UnifyFLAggregator
from repro.core.config import (
    ExperimentConfig,
    cifar10_workload,
    gpu_cluster_configs,
)
from repro.core.reporting import load_result_json, result_to_dict, save_result_json
from repro.core.runner import ExperimentRunner
from repro.core.sampling import ClientSampler
from repro.core.scorer import CosineSimilarityScorer, MultiKRUMScorer
from repro.ml.models import SimpleCNN
from repro.ml.tensor_utils import average_weights
from repro.simnet.faults import FaultPlan


# ------------------------------------------------------------------ sampler
class TestClientSampler:
    def test_cohorts_are_call_order_independent(self):
        natural = ClientSampler(population=1000, cohort_size=16, seed=3)
        shuffled = ClientSampler(population=1000, cohort_size=16, seed=3)
        forward = {r: natural.cohort(r) for r in range(1, 6)}
        for r in (5, 3, 1, 4, 2):
            assert shuffled.cohort(r) == forward[r]

    def test_round_three_before_round_one_on_a_fresh_sampler(self):
        natural = ClientSampler(population=1000, cohort_size=16, seed=3)
        first, third = natural.cohort(1), natural.cohort(3)
        fresh = ClientSampler(population=1000, cohort_size=16, seed=3)
        assert (fresh.cohort(3), fresh.cohort(1)) == (third, first)

    def test_cohorts_are_repeatable_and_well_formed(self):
        sampler = ClientSampler(population=100, cohort_size=10, seed=0)
        cohort = sampler.cohort(2)
        assert sampler.cohort(2) == cohort
        assert len(cohort) == 10
        assert len(set(cohort)) == 10
        assert list(cohort) == sorted(cohort)
        assert all(0 <= i < 100 for i in cohort)

    def test_different_seeds_draw_different_cohorts(self):
        a = ClientSampler(population=10_000, cohort_size=32, seed=0)
        b = ClientSampler(population=10_000, cohort_size=32, seed=1)
        assert any(a.cohort(r) != b.cohort(r) for r in range(1, 4))

    def test_different_rounds_draw_different_cohorts(self):
        sampler = ClientSampler(population=10_000, cohort_size=32, seed=0)
        assert sampler.cohort(1) != sampler.cohort(2)

    def test_rejects_invalid_shapes(self):
        with pytest.raises(ValueError):
            ClientSampler(population=0, cohort_size=1, seed=0)
        with pytest.raises(ValueError):
            ClientSampler(population=10, cohort_size=11, seed=0)
        with pytest.raises(ValueError):
            ClientSampler(population=10, cohort_size=0, seed=0)
        with pytest.raises(ValueError):
            ClientSampler(population=10, cohort_size=5, seed=0).cohort(0)

    def test_cohort_draws_do_not_shift_the_churn_stream(self):
        """Interleaving cohort draws must not move a single churn variate."""
        clusters = [f"agg{i}" for i in range(6)]
        baseline_plan = FaultPlan(seed=7, churn_rate=0.4)
        baseline = {
            (c, r): baseline_plan.cluster_offline(c, r)
            for c in clusters
            for r in range(1, 8)
        }
        interleaved_plan = FaultPlan(seed=7, churn_rate=0.4)
        sampler = ClientSampler(population=5000, cohort_size=64, seed=7)
        for r in range(1, 8):
            sampler.cohort(r)  # the draw the churn stream must not feel
            for c in clusters:
                assert interleaved_plan.cluster_offline(c, r) == baseline[(c, r)]


# ------------------------------------------------------ vectorised scoring
def _random_round(rng, n, scale=1.0):
    shapes = [(5, 2), (3,), (2, 4)]
    return {
        f"cid{i:03d}": [
            (rng.standard_normal(shape) * scale).astype(
                np.float32 if i % 2 else np.float64
            )
            for shape in shapes
        ]
        for i in range(n)
    }


def _cnn_round(rng, n, dtype=np.float64):
    """``n`` perturbed copies of the benchmark's CNN (D = 5 858 parameters)."""
    template = SimpleCNN(image_size=8, seed=0).get_weights()
    return {
        f"cid{i:03d}": [
            (w + 0.05 * rng.standard_normal(w.shape)).astype(dtype) for w in template
        ]
        for i in range(n)
    }


class TestVectorisedScorers:
    @pytest.mark.parametrize("tolerance", [0, 1, 3])
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
    def test_multikrum_exactly_matches_the_reference(self, n, tolerance):
        rng = np.random.default_rng(n * 31 + tolerance)
        scorer = MultiKRUMScorer(byzantine_tolerance=tolerance)
        round_weights = _random_round(rng, n)
        fast = scorer.score_round(round_weights)
        slow = scorer.score_round_reference(round_weights)
        assert fast.keys() == slow.keys()
        for cid in fast:
            assert fast[cid] == slow[cid]

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_triangular_multikrum_equals_the_tensor_reference(self, n):
        """Row-by-row upper-triangle distances vs the ``(n, n, D)`` oracle, at a
        reduction length where numpy's pairwise summation actually blocks."""
        rng = np.random.default_rng(1000 + n)
        one_duplicate = _cnn_round(rng, n)
        one_duplicate["cid001"] = [w.copy() for w in one_duplicate["cid000"]]
        identical = dict.fromkeys(one_duplicate, one_duplicate["cid000"])
        rounds = {
            "float64": _cnn_round(rng, n),
            "float32": _cnn_round(rng, n, np.float32),
            "one duplicate pair": one_duplicate,
            "all identical (all-zero distances)": identical,
        }
        for tolerance in (0, 1, n):
            scorer = MultiKRUMScorer(byzantine_tolerance=tolerance)
            for label, round_weights in rounds.items():
                fast = scorer.score_round(round_weights)
                assert fast == scorer.score_round_reference(round_weights), (label, tolerance)
        assert set(MultiKRUMScorer().score_round(identical).values()) == {1.0}

    def test_multikrum_round_never_builds_the_difference_tensor(self):
        """n = 40, D = 5 858: the ``(n, n, D)`` tensor and its square are
        2 x 75 MB (144.8 MiB traced); the triangular rows stay under 6 MiB."""
        round_weights = _cnn_round(np.random.default_rng(7), 40)
        scorer = MultiKRUMScorer()
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            scorer.score_round(round_weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak - before < 16 * 2**20

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 16])
    def test_cosine_exactly_matches_the_reference(self, n):
        rng = np.random.default_rng(n * 13)
        scorer = CosineSimilarityScorer()
        round_weights = _random_round(rng, n)
        fast = scorer.score_round(round_weights)
        slow = scorer.score_round_reference(round_weights)
        assert fast.keys() == slow.keys()
        for cid in fast:
            assert fast[cid] == slow[cid]

    def test_equality_holds_with_an_outlier_model(self):
        rng = np.random.default_rng(99)
        round_weights = _random_round(rng, 6)
        round_weights["cid_outlier"] = [
            (w * -40.0).astype(w.dtype) for w in round_weights["cid000"]
        ]
        for scorer in (MultiKRUMScorer(byzantine_tolerance=1), CosineSimilarityScorer()):
            fast = scorer.score_round(round_weights)
            slow = scorer.score_round_reference(round_weights)
            for cid in fast:
                assert fast[cid] == slow[cid]
            # The outlier must rank strictly below every honest model.
            honest_floor = min(v for c, v in fast.items() if c != "cid_outlier")
            assert fast["cid_outlier"] < honest_floor

    def test_score_memoises_the_round_analysis(self):
        calls = {"count": 0}

        class CountingScorer(MultiKRUMScorer):
            def score_round(self, round_weights):
                calls["count"] += 1
                return super().score_round(round_weights)

        rng = np.random.default_rng(1)
        round_weights = _random_round(rng, 8)
        scorer = CountingScorer()
        for cid, weights in round_weights.items():
            scorer.score(weights, context={"round_weights": round_weights, "cid": cid})
        assert calls["count"] == 1

        # A different round (different CID set) recomputes exactly once.
        next_round = {f"next{i}": w for i, (_, w) in enumerate(round_weights.items())}
        for cid, weights in next_round.items():
            scorer.score(weights, context={"round_weights": next_round, "cid": cid})
        assert calls["count"] == 2


# ------------------------------------------------------ sampled experiments
def _sampled_config(mode, population=30, cohort=5, rounds=2, seed=0, **overrides):
    kwargs = dict(
        name=f"sampled-{mode}",
        workload=cifar10_workload(rounds=rounds, samples_per_class=8, image_size=8),
        clusters=gpu_cluster_configs(num_clusters=3, num_clients=2),
        mode=mode,
        rounds=rounds,
        seed=seed,
        event_streams=True,
        storage_replicas=2,
        population=population,
        clients_per_round=cohort,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestSampledExperiments:
    @pytest.mark.parametrize("mode", ["sync", "async", "semi", "hierarchical", "gossip"])
    def test_every_mode_runs_sampled_and_materialises_o_cohort(self, mode):
        config = _sampled_config(mode)
        runner = ExperimentRunner(config)
        result = runner.run()
        materialized = int(result.sampling["materialized_clusters"])
        assert materialized == len(runner.aggregators)
        # At most one fresh cohort per round, never the population.
        assert materialized <= config.clients_per_round * config.rounds
        assert materialized < config.population
        assert result.sampling["population"] == float(config.population)
        assert result.sampling["clients_per_round"] == float(config.clients_per_round)
        assert all(a.history for a in result.aggregators)

    def test_virtual_clusters_merge_through_average_weights(self, monkeypatch):
        """One aggregation arithmetic: a virtual cluster's global model is,
        bit for bit, ``average_weights`` of exactly the models it pulled
        followed by its local model -- what a dense cluster computes."""
        build = UnifyFLAggregator.build_global_model
        fetch = UnifyFLAggregator.fetch_weights
        merged = []

        def checked_build(aggregator, *args, **kwargs):
            pulled = []

            def recording_fetch(cid):
                weights = fetch(aggregator, cid)
                pulled.append(weights)
                return weights

            local = aggregator.local_weights
            aggregator.fetch_weights = recording_fetch
            try:
                timing = build(aggregator, *args, **kwargs)
            finally:
                del aggregator.fetch_weights
            if pulled:
                expected = average_weights(pulled + [local])
                assert len(aggregator.global_weights) == len(expected)
                for got, want in zip(aggregator.global_weights, expected):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    assert got.tobytes() == want.tobytes(), aggregator.name
                merged.append(aggregator.name)
            return timing

        monkeypatch.setattr(UnifyFLAggregator, "build_global_model", checked_build)
        ExperimentRunner(_sampled_config("sync", population=40, cohort=6)).run()
        assert merged and all("-p" in name for name in merged), merged

    def test_peak_memory_per_cluster_does_not_grow_with_the_population(self):
        """The O(cohort) memory claim, host-independent: ``tracemalloc`` counts
        Python allocations, not the allocator's or the OS's view of them.

        Per cluster is the marginal slope of the run's traced peak, measured
        from before ``build()`` (which already materialises the first
        cohort): the peak at cohort 32 minus the peak at cohort 16, over the
        32 more clusters the larger run materialises.  What does not grow
        with the cohort -- datasets, template, evaluator, the training
        network -- cancels out; an untraced run first builds the tables a
        process's first run allocates once.  A cluster owns no network and
        no data rows, and between rounds one model: its local one.  What it
        costs is that model, its clients' row indices and generators, its
        IPFS node, and its share of the run's one decoded copy of each
        pulled model.  About 90 KiB per cluster at either population (152--164
        while each cluster kept its own initial weight lists, copied
        partitions and last round's global model); the ceiling is 15 %
        above.
        """
        ExperimentRunner(_sampled_config("sync")).run()
        kib_per_cluster = {}
        for population in (1_000, 100_000):
            peaks = {}
            for cohort in (16, 32):
                runner = ExperimentRunner(
                    _sampled_config("sync", population=population, cohort=cohort)
                )
                was_tracing = tracemalloc.is_tracing()
                if not was_tracing:
                    tracemalloc.start()
                try:
                    before, _ = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                    runner.build()
                    result = runner.run()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    if not was_tracing:
                        tracemalloc.stop()
                materialized = int(result.sampling["materialized_clusters"])
                assert materialized == 2 * cohort  # two cohorts, whatever the population
                peaks[materialized] = peak - before
            kib_per_cluster[population] = (peaks[64] - peaks[32]) / 1024 / (64 - 32)
        small, large = kib_per_cluster[1_000], kib_per_cluster[100_000]
        assert abs(large - small) <= 0.05 * small, kib_per_cluster
        assert max(small, large) <= 105, kib_per_cluster

    def test_sampled_runs_are_reproducible(self):
        first = ExperimentRunner(_sampled_config("sync")).run()
        second = ExperimentRunner(_sampled_config("sync")).run()
        assert result_to_dict(first) == result_to_dict(second)

    def test_sampling_seed_changes_the_cohorts_only_when_set(self):
        default = ExperimentRunner(_sampled_config("sync")).run()
        reseeded = ExperimentRunner(_sampled_config("sync", sampling_seed=99)).run()
        assert {a.name for a in default.aggregators} != {a.name for a in reseeded.aggregators}

    def test_json_export_carries_sampling_keys_and_schema_2(self, tmp_path):
        result = ExperimentRunner(_sampled_config("sync")).run()
        path = save_result_json(result, tmp_path / "sampled.json")
        document = load_result_json(path)
        assert document["schema_version"] == 2
        sampling = document["sampling"]
        assert sampling["population"] == 30.0
        assert sampling["clients_per_round"] == 5.0
        assert sampling["materialized_clusters"] >= 5.0

    def test_non_sampled_export_stays_version_1_without_sampling_block(self, tmp_path):
        config = ExperimentConfig(
            name="classic",
            workload=cifar10_workload(rounds=1, samples_per_class=8, image_size=8),
            clusters=gpu_cluster_configs(num_clusters=2, num_clients=2),
            mode="sync",
            rounds=1,
        )
        result = ExperimentRunner(config).run()
        document = load_result_json(save_result_json(result, tmp_path / "classic.json"))
        assert document["schema_version"] == 1
        assert "sampling" not in document


class TestSamplingConfigValidation:
    def _base(self, **overrides):
        kwargs = dict(
            name="validation",
            workload=cifar10_workload(rounds=1, samples_per_class=8, image_size=8),
            clusters=gpu_cluster_configs(num_clusters=2, num_clients=2),
            rounds=1,
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    def test_sampling_knobs_require_population(self):
        with pytest.raises(ValueError):
            self._base(clients_per_round=8)
        with pytest.raises(ValueError):
            self._base(sampling_seed=1)

    def test_population_needs_clients_per_round(self):
        with pytest.raises(ValueError, match="clients_per_round"):
            self._base(population=100)

    def test_cohort_bounds_are_validated(self):
        with pytest.raises(ValueError):
            self._base(population=100, clients_per_round=101)
        config = self._base(population=100, clients_per_round=8)
        assert config.has_sampling
