"""Tests for scoring algorithms, aggregation/scoring policies and attacks."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attacks import (
    GaussianNoiseAttack,
    ScalingAttack,
    SignFlipAttack,
    ZeroAttack,
    available_attacks,
    build_attack,
)
from repro.core.config import ClusterConfig, cifar10_workload, edge_cluster_configs
from repro.core.selection import (
    AboveAverage,
    AboveMedian,
    AboveSelf,
    CandidateModel,
    MaxScore,
    MeanScore,
    MedianScore,
    MinScore,
    PickAll,
    PickSelf,
    RandomK,
    TopK,
    available_aggregation_policies,
    available_scoring_policies,
    build_aggregation_policy,
    build_scoring_policy,
)
from repro.core.runner import ExperimentRunner, run_experiment
from repro.core.scorer import AccuracyScorer, MultiKRUMScorer, build_scorer
from repro.ml.models import MLP


# --------------------------------------------------------------------------- helpers
def make_candidates(scores):
    """Build candidates with pre-resolved scores."""
    candidates = []
    for i, score in enumerate(scores):
        candidate = CandidateModel(cid=f"cid{i}", submitter=f"agg{i}", round_number=1, scores={"s": score})
        candidate.resolved_score = score
        candidates.append(candidate)
    return candidates


# ------------------------------------------------------------------------ scoring policies
class TestScoringPolicies:
    def test_mean_median_min_max(self):
        scores = [0.2, 0.4, 0.9]
        assert MeanScore().resolve(scores) == pytest.approx(0.5)
        assert MedianScore().resolve(scores) == pytest.approx(0.4)
        assert MinScore().resolve(scores) == pytest.approx(0.2)
        assert MaxScore().resolve(scores) == pytest.approx(0.9)

    def test_apply_populates_resolved_scores(self):
        candidates = [CandidateModel(cid="a", submitter="x", round_number=1, scores={"s1": 0.2, "s2": 0.8})]
        resolved = MeanScore().apply(candidates)
        assert resolved[0].resolved_score == pytest.approx(0.5)

    def test_apply_handles_missing_scores(self):
        candidates = [CandidateModel(cid="a", submitter="x", round_number=1, scores={})]
        resolved = MedianScore().apply(candidates)
        assert np.isnan(resolved[0].resolved_score)

    def test_median_robust_to_one_outlier_scorer(self):
        """The paper's rationale: a malicious scorer cannot swing the median."""
        honest = [0.75, 0.8, 0.78]
        with_outlier = honest + [0.0]
        assert abs(MedianScore().resolve(with_outlier) - MedianScore().resolve(honest)) < 0.05
        assert abs(MeanScore().resolve(with_outlier) - MeanScore().resolve(honest)) > 0.1

    def test_build_scoring_policy(self):
        for name in available_scoring_policies():
            assert build_scoring_policy(name).name == name
        with pytest.raises(ValueError):
            build_scoring_policy("mode")


# --------------------------------------------------------------------- aggregation policies
class TestAggregationPolicies:
    def test_pick_all_includes_everything(self):
        candidates = make_candidates([0.1, 0.2, 0.3])
        self_candidate = CandidateModel(cid="self", submitter="me", round_number=1, is_self=True)
        chosen = PickAll().select(candidates, self_candidate)
        assert len(chosen) == 4

    def test_pick_self_excludes_peers(self):
        candidates = make_candidates([0.9, 0.8])
        self_candidate = CandidateModel(cid="self", submitter="me", round_number=1, is_self=True)
        chosen = PickSelf().select(candidates, self_candidate)
        assert chosen == [self_candidate]

    def test_top_k_orders_by_score(self):
        candidates = make_candidates([0.1, 0.9, 0.5, 0.7])
        chosen = TopK(k=2).select(candidates)
        assert {c.resolved_score for c in chosen} == {0.9, 0.7}

    def test_top_k_with_self_appended(self):
        candidates = make_candidates([0.1, 0.9])
        self_candidate = CandidateModel(cid="self", submitter="me", round_number=1, is_self=True)
        chosen = TopK(k=1).select(candidates, self_candidate)
        assert self_candidate in chosen and len(chosen) == 2

    def test_random_k_respects_k(self, rng):
        candidates = make_candidates([0.1] * 6)
        chosen = RandomK(k=3).select(candidates, rng=rng)
        assert len(chosen) == 3

    def test_random_k_fewer_candidates_than_k(self, rng):
        candidates = make_candidates([0.1, 0.2])
        chosen = RandomK(k=5).select(candidates, rng=rng)
        assert len(chosen) == 2

    def test_above_average(self):
        candidates = make_candidates([0.2, 0.4, 0.9])
        chosen = AboveAverage().select(candidates)
        assert {c.resolved_score for c in chosen} == {0.9}

    def test_above_median(self):
        candidates = make_candidates([0.2, 0.4, 0.9])
        chosen = AboveMedian().select(candidates)
        assert {c.resolved_score for c in chosen} == {0.4, 0.9}

    def test_above_self(self):
        candidates = make_candidates([0.2, 0.6, 0.9])
        self_candidate = CandidateModel(cid="self", submitter="me", round_number=1, is_self=True)
        self_candidate.resolved_score = 0.5
        chosen = AboveSelf().select(candidates, self_candidate)
        peer_scores = {c.resolved_score for c in chosen if not c.is_self}
        assert peer_scores == {0.6, 0.9}
        assert self_candidate in chosen

    def test_above_average_empty_candidates_returns_self(self):
        self_candidate = CandidateModel(cid="self", submitter="me", round_number=1, is_self=True)
        assert AboveAverage().select([], self_candidate) == [self_candidate]

    def test_unscored_candidates_ignored_by_performance_policies(self):
        candidate = CandidateModel(cid="a", submitter="x", round_number=1, scores={})
        candidate.resolved_score = float("nan")
        assert TopK(k=2).select([candidate]) == []

    def test_build_aggregation_policy_all_names(self):
        for name in available_aggregation_policies():
            policy = build_aggregation_policy(name, k=3)
            assert policy.name == name

    def test_build_rejects_unknown(self):
        with pytest.raises(ValueError):
            build_aggregation_policy("best_effort")

    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopK(k=0)
        with pytest.raises(ValueError):
            RandomK(k=-1)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10), st.integers(1, 5))
    def test_property_top_k_returns_highest(self, scores, k):
        candidates = make_candidates(scores)
        chosen = TopK(k=k).select(candidates)
        chosen_scores = sorted((c.resolved_score for c in chosen), reverse=True)
        expected = sorted(scores, reverse=True)[:k]
        assert chosen_scores == pytest.approx(expected)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
    def test_property_above_median_keeps_at_least_half(self, scores):
        candidates = make_candidates(scores)
        chosen = AboveMedian().select(candidates)
        assert len(chosen) >= len(scores) / 2


# ----------------------------------------------------------------------------- scorers
class TestAccuracyScorer:
    def test_trained_model_scores_higher_than_random(self, tabular_dataset):
        model = MLP(input_dim=10, hidden_dims=(32,), num_classes=3, seed=0)
        scorer = AccuracyScorer(model, tabular_dataset)
        random_score = scorer.score(model.get_weights())
        trained = model.clone()
        trained.fit(tabular_dataset.x, tabular_dataset.y, epochs=15, batch_size=32)
        trained_score = scorer.score(trained.get_weights())
        assert trained_score > random_score

    def test_score_in_unit_interval(self, tabular_dataset):
        model = MLP(input_dim=10, hidden_dims=(8,), num_classes=3, seed=1)
        scorer = AccuracyScorer(model, tabular_dataset)
        assert 0.0 <= scorer.score(model.get_weights()) <= 1.0

    def test_rejects_empty_test_data(self, tabular_dataset):
        model = MLP(input_dim=10, num_classes=3, seed=0)
        empty = tabular_dataset.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            AccuracyScorer(model, empty)

    def test_does_not_require_full_round(self, tabular_dataset):
        model = MLP(input_dim=10, num_classes=3, seed=0)
        assert AccuracyScorer(model, tabular_dataset).requires_full_round is False


class TestMultiKRUM:
    def _weights(self, offset, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(4, 4)) * 0.01 + offset, np.full(3, offset)]

    def test_outlier_gets_lowest_score(self):
        scorer = MultiKRUMScorer()
        round_weights = {
            "honest1": self._weights(0.0, seed=1),
            "honest2": self._weights(0.02, seed=2),
            "honest3": self._weights(-0.02, seed=3),
            "attacker": self._weights(5.0, seed=4),
        }
        scores = scorer.score_round(round_weights)
        assert min(scores, key=scores.get) == "attacker"

    def test_requires_round_context(self):
        scorer = MultiKRUMScorer()
        with pytest.raises(ValueError):
            scorer.score(self._weights(0.0))

    def test_score_via_context_matches_round_score(self):
        scorer = MultiKRUMScorer()
        round_weights = {"a": self._weights(0.0, 1), "b": self._weights(0.1, 2), "c": self._weights(5.0, 3)}
        scores = scorer.score_round(round_weights)
        direct = scorer.score(round_weights["c"], context={"round_weights": round_weights, "cid": "c"})
        assert direct == pytest.approx(scores["c"])

    def test_single_model_scores_one(self):
        scorer = MultiKRUMScorer()
        assert scorer.score_round({"only": self._weights(0.0)}) == {"only": 1.0}

    def test_scores_positive_and_bounded(self):
        scorer = MultiKRUMScorer()
        round_weights = {f"m{i}": self._weights(i * 0.5, seed=i) for i in range(5)}
        scores = scorer.score_round(round_weights)
        assert all(0.0 < s <= 1.0 for s in scores.values())

    def test_requires_full_round_flag(self):
        assert MultiKRUMScorer().requires_full_round is True

    def test_byzantine_tolerance_validation(self):
        with pytest.raises(ValueError):
            MultiKRUMScorer(byzantine_tolerance=-1)


class TestBuildScorer:
    def test_accuracy_requires_model_and_data(self):
        with pytest.raises(ValueError):
            build_scorer("accuracy")

    def test_build_both_kinds(self, tabular_dataset):
        model = MLP(input_dim=10, num_classes=3, seed=0)
        assert isinstance(build_scorer("accuracy", model, tabular_dataset), AccuracyScorer)
        assert isinstance(build_scorer("multikrum"), MultiKRUMScorer)

    def test_unknown_scorer(self):
        with pytest.raises(ValueError):
            build_scorer("loss")


# ----------------------------------------------------------------------------- attacks
class TestAttacks:
    def _weights(self):
        return [np.arange(6.0).reshape(2, 3), np.array([1.0, -2.0])]

    def test_sign_flip_negates(self):
        poisoned = SignFlipAttack().poison(self._weights())
        assert np.allclose(poisoned[0], -self._weights()[0])

    def test_scaling_scales(self):
        poisoned = ScalingAttack(factor=10.0).poison(self._weights())
        assert np.allclose(poisoned[1], 10.0 * self._weights()[1])

    def test_zero_attack(self):
        poisoned = ZeroAttack().poison(self._weights())
        assert all(np.allclose(w, 0.0) for w in poisoned)

    def test_gaussian_noise_changes_weights(self, rng):
        poisoned = GaussianNoiseAttack(noise_scale=2.0).poison(self._weights(), rng=rng)
        assert not np.allclose(poisoned[0], self._weights()[0])
        assert poisoned[0].shape == (2, 3)

    def test_original_weights_untouched(self):
        weights = self._weights()
        SignFlipAttack().poison(weights)
        assert np.allclose(weights[0], np.arange(6.0).reshape(2, 3))

    def test_build_attack_registry(self):
        for name in available_attacks():
            attack = build_attack(name)
            assert attack.name == name
        with pytest.raises(ValueError):
            build_attack("backdoor")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SignFlipAttack(scale=0.0)
        with pytest.raises(ValueError):
            GaussianNoiseAttack(noise_scale=0.0)
        with pytest.raises(ValueError):
            ScalingAttack(factor=0.0)


class TestRemainingPoliciesEndToEnd:
    @pytest.mark.parametrize("policy", ["random_k", "above_self", "above_median"])
    def test_policy_runs_in_full_experiment(self, policy, tiny_experiment_config):
        clusters = edge_cluster_configs(num_clients=2)
        for cluster in clusters:
            cluster.aggregation_policy = policy
            cluster.policy_k = 2
        result = run_experiment(dataclasses.replace(tiny_experiment_config, clusters=clusters))
        assert len(result.aggregators) == 3
        assert all(policy in a.policy for a in result.aggregators)

    @pytest.mark.parametrize("scoring_policy", ["median", "min", "max"])
    def test_scoring_policy_runs_in_full_experiment(self, scoring_policy, tiny_experiment_config):
        clusters = edge_cluster_configs(num_clients=2)
        for cluster in clusters:
            cluster.scoring_policy = scoring_policy
        result = run_experiment(dataclasses.replace(tiny_experiment_config, clusters=clusters))
        assert all(scoring_policy in a.policy for a in result.aggregators)

    def test_mixed_policies_within_one_federation(self, tiny_experiment_config):
        clusters = [
            ClusterConfig(name="a", num_clients=2, aggregation_policy="random_k", policy_k=1, scoring_policy="min"),
            ClusterConfig(name="b", num_clients=2, aggregation_policy="above_self", scoring_policy="max"),
            ClusterConfig(name="c", num_clients=2, aggregation_policy="above_median", scoring_policy="median"),
        ]
        result = run_experiment(dataclasses.replace(tiny_experiment_config, clusters=clusters))
        labels = {a.policy for a in result.aggregators}
        assert len(labels) == 3


class TestMultiKRUMEndToEnd:
    def test_multikrum_downranks_byzantine_model_on_chain(self, tiny_experiment_config):
        clusters = [
            ClusterConfig(name="h1", num_clients=2, aggregation_policy="above_median"),
            ClusterConfig(name="h2", num_clients=2, aggregation_policy="above_median"),
            ClusterConfig(name="h3", num_clients=2, aggregation_policy="above_median"),
            ClusterConfig(
                name="evil", num_clients=2, aggregation_policy="above_median",
                attack="scaling",
            ),
        ]
        config = dataclasses.replace(
            tiny_experiment_config,
            name="multikrum-byzantine",
            clusters=clusters,
            scoring_algorithm="multikrum",
            workload=cifar10_workload(rounds=2, samples_per_class=14, image_size=8, learning_rate=0.05),
            seed=31,
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

    def test_multikrum_scorer_used_by_aggregators(self, tiny_experiment_config):
        runner = ExperimentRunner(
            dataclasses.replace(tiny_experiment_config, scoring_algorithm="multikrum", seed=31)
        )
        runner.build()
        assert all(isinstance(a.scorer, MultiKRUMScorer) for a in runner.aggregators)
