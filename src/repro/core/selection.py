"""Aggregation and scoring policies (Section 3.4.4 of the paper).

When an aggregator pulls the list of available global models and their score
lists from the smart contract, two decisions remain:

1. **Scoring policy** — how to collapse the list of scores (one per scorer)
   attached to each model into a single number.  Implemented: mean, median,
   min, max.
2. **Aggregation policy** — which models to pull and aggregate with the local
   model.  Implemented, following the paper exactly:

   * Sampling-based: *Random k*, *All*, *Self*.
   * Performance-based: *Top k*, *Above Average*, *Above Median*, *Above Self*.

Policies operate on :class:`CandidateModel` records so they are independent of
how the models were retrieved (contract + IPFS in production, in-memory in the
unit tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class CandidateModel:
    """One model available for cross-silo aggregation."""

    cid: str
    submitter: str
    round_number: int
    scores: Dict[str, float] = field(default_factory=dict)
    #: resolved by the scoring policy before the aggregation policy runs.
    resolved_score: float = float("nan")
    #: True when this record is the aggregator's own local model.
    is_self: bool = False


# --------------------------------------------------------------------------- scoring policies
class ScoringPolicy:
    """Collapse a model's per-scorer score list into a single number."""

    name = "scoring-policy"

    def resolve(self, scores: Sequence[float]) -> float:
        raise NotImplementedError

    def apply(self, candidates: Sequence[CandidateModel]) -> List[CandidateModel]:
        """Return candidates with ``resolved_score`` populated."""
        resolved = []
        for candidate in candidates:
            values = list(candidate.scores.values())
            candidate.resolved_score = self.resolve(values) if values else float("nan")
            resolved.append(candidate)
        return list(resolved)


class MeanScore(ScoringPolicy):
    """Average of all submitted scores."""

    name = "mean"

    def resolve(self, scores: Sequence[float]) -> float:
        return float(np.mean(scores))


class MedianScore(ScoringPolicy):
    """Median score — robust to a single malicious or poorly split scorer."""

    name = "median"

    def resolve(self, scores: Sequence[float]) -> float:
        return float(np.median(scores))


class MinScore(ScoringPolicy):
    """Most pessimistic scorer wins."""

    name = "min"

    def resolve(self, scores: Sequence[float]) -> float:
        return float(np.min(scores))


class MaxScore(ScoringPolicy):
    """Most optimistic scorer wins."""

    name = "max"

    def resolve(self, scores: Sequence[float]) -> float:
        return float(np.max(scores))


_SCORING_POLICIES = {
    "mean": MeanScore,
    "median": MedianScore,
    "min": MinScore,
    "max": MaxScore,
}


def build_scoring_policy(name: str) -> ScoringPolicy:
    """Construct a scoring policy by name."""
    key = name.lower()
    if key not in _SCORING_POLICIES:
        raise ValueError(f"unknown scoring policy '{name}'; available: {sorted(_SCORING_POLICIES)}")
    return _SCORING_POLICIES[key]()


# ----------------------------------------------------------------------- aggregation policies
class AggregationPolicy:
    """Select which candidate models participate in the cross-silo aggregation."""

    name = "aggregation-policy"
    #: whether selection reads the candidates' scores: a policy that does is
    #: only shown models at least one scorer has scored, and prefers a peer's
    #: latest scored submission over a newer unscored one.
    needs_scores = True

    def select(
        self,
        candidates: Sequence[CandidateModel],
        self_candidate: Optional[CandidateModel] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> List[CandidateModel]:
        """Return the chosen subset (may include the aggregator's own model)."""
        raise NotImplementedError

    @staticmethod
    def _scored(candidates: Sequence[CandidateModel]) -> List[CandidateModel]:
        return [c for c in candidates if not np.isnan(c.resolved_score)]


class PickAll(AggregationPolicy):
    """Aggregate every available model (the paper's *All* policy)."""

    name = "all"
    needs_scores = False

    def select(self, candidates, self_candidate=None, rng=None):
        chosen = list(candidates)
        if self_candidate is not None:
            chosen.append(self_candidate)
        return chosen


class PickSelf(AggregationPolicy):
    """Do not collaborate: keep only the local model (the paper's *Self* policy)."""

    name = "self"
    needs_scores = False

    def select(self, candidates, self_candidate=None, rng=None):
        return [self_candidate] if self_candidate is not None else []


class RandomK(AggregationPolicy):
    """Randomly sample ``k`` of the available peer models."""

    name = "random_k"
    needs_scores = False

    def __init__(self, k: int = 2):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def select(self, candidates, self_candidate=None, rng=None):
        rng = rng or np.random.default_rng(0)
        pool = list(candidates)
        if len(pool) > self.k:
            picked_idx = rng.choice(len(pool), size=self.k, replace=False)
            pool = [pool[i] for i in sorted(picked_idx)]
        if self_candidate is not None:
            pool.append(self_candidate)
        return pool


class TopK(AggregationPolicy):
    """Keep the ``k`` best models by resolved score (the paper's *Top k*)."""

    name = "top_k"

    def __init__(self, k: int = 2):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def select(self, candidates, self_candidate=None, rng=None):
        scored = sorted(self._scored(candidates), key=lambda c: -c.resolved_score)
        chosen = scored[: self.k]
        if self_candidate is not None:
            chosen = chosen + [self_candidate]
        return chosen


class AboveAverage(AggregationPolicy):
    """Keep models scoring at or above the mean of all resolved scores."""

    name = "above_average"

    def select(self, candidates, self_candidate=None, rng=None):
        scored = self._scored(candidates)
        if not scored:
            return [self_candidate] if self_candidate is not None else []
        threshold = float(np.mean([c.resolved_score for c in scored]))
        chosen = [c for c in scored if c.resolved_score >= threshold]
        if self_candidate is not None:
            chosen.append(self_candidate)
        return chosen


class AboveMedian(AggregationPolicy):
    """Keep models scoring at or above the median of all resolved scores."""

    name = "above_median"

    def select(self, candidates, self_candidate=None, rng=None):
        scored = self._scored(candidates)
        if not scored:
            return [self_candidate] if self_candidate is not None else []
        threshold = float(np.median([c.resolved_score for c in scored]))
        chosen = [c for c in scored if c.resolved_score >= threshold]
        if self_candidate is not None:
            chosen.append(self_candidate)
        return chosen


class AboveSelf(AggregationPolicy):
    """Keep models that score at least as well as the aggregator's own model."""

    name = "above_self"

    def select(self, candidates, self_candidate=None, rng=None):
        scored = self._scored(candidates)
        if self_candidate is None or np.isnan(self_candidate.resolved_score):
            chosen = scored
        else:
            chosen = [c for c in scored if c.resolved_score >= self_candidate.resolved_score]
        if self_candidate is not None:
            chosen.append(self_candidate)
        return chosen


_AGGREGATION_POLICIES = {
    "all": PickAll,
    "self": PickSelf,
    "random_k": RandomK,
    "top_k": TopK,
    "above_average": AboveAverage,
    "above_median": AboveMedian,
    "above_self": AboveSelf,
}


def build_aggregation_policy(name: str, k: int = 2) -> AggregationPolicy:
    """Construct an aggregation policy by name.

    ``k`` is forwarded to the policies that take it (*Random k*, *Top k*); it
    is ignored otherwise, which keeps experiment configuration uniform.
    """
    key = name.lower()
    if key not in _AGGREGATION_POLICIES:
        raise ValueError(
            f"unknown aggregation policy '{name}'; available: {sorted(_AGGREGATION_POLICIES)}"
        )
    policy_cls = _AGGREGATION_POLICIES[key]
    if key in ("random_k", "top_k"):
        return policy_cls(k=k)
    return policy_cls()


def available_aggregation_policies() -> List[str]:
    """Names accepted by :func:`build_aggregation_policy`."""
    return sorted(_AGGREGATION_POLICIES)


def available_scoring_policies() -> List[str]:
    """Names accepted by :func:`build_scoring_policy`."""
    return sorted(_SCORING_POLICIES)
