"""Model scoring algorithms (Section 2.6 of the paper).

Two scorers are implemented, matching the paper's implementation:

* :class:`AccuracyScorer` — evaluate the candidate model on the scorer's own
  held-out test set; the score is the accuracy.  Works in both Sync and Async
  modes (and is the paper's default for exactly that reason) but is the more
  computationally expensive option.
* :class:`MultiKRUMScorer` — similarity-based scoring following Multi-KRUM
  (Blanchard et al.): a model's score is derived from the sum of squared
  distances to its closest neighbours among all models submitted in the same
  round.  Cheap to compute, but requires every model of the round at once,
  so it is only available in Sync mode.

Scores are normalised so that *higher is better* for both algorithms, which
lets the performance-based aggregation policies treat them uniformly.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Type

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.ml.evaluation import Evaluator
from repro.ml.models import Model
from repro.ml.tensor_utils import flatten_weights

Weights = List[np.ndarray]


class Scorer:
    """Base class for scoring algorithms."""

    name = "scorer"

    #: whether the algorithm needs every model of the round simultaneously.
    requires_full_round = False

    def score(self, weights: Weights, context: Optional[Dict] = None) -> float:
        """Score a single model (higher is better)."""
        raise NotImplementedError

    def score_round(self, round_weights: Dict[str, Weights]) -> Dict[str, float]:
        """Score every model submitted in a round (cid -> score)."""
        return {cid: self.score(w) for cid, w in round_weights.items()}


class _HeldOutSetScorer(Scorer):
    """Shared plumbing for scorers that evaluate a model on the scorer's own
    held-out test set.

    Evaluations go through the run's shared
    :class:`~repro.ml.evaluation.Evaluator`; a scorer built on its own gets
    a private one over ``model_template``.  ``context["cid"]``, when given,
    is the CID the weights were fetched under; the evaluator takes it for
    the weights' fingerprint.
    """

    requires_full_round = False

    def __init__(
        self,
        model_template: Model,
        test_data: Dataset,
        evaluator: Optional[Evaluator] = None,
    ):
        if len(test_data) == 0:
            raise ValueError(f"{type(self).__name__} needs a non-empty test dataset")
        self._evaluator = evaluator if evaluator is not None else Evaluator(model_template)
        self._test_data = test_data

    def _evaluate(self, weights: Weights, context: Optional[Dict]) -> Tuple[float, float]:
        """``(loss, accuracy)`` of ``weights`` on the scorer's test set."""
        cid = context.get("cid") if context else None
        return self._evaluator.evaluate(weights, self._test_data, cid)


class AccuracyScorer(_HeldOutSetScorer):
    """Score a model by its accuracy on the scorer's local test dataset."""

    name = "accuracy"

    def score(self, weights: Weights, context: Optional[Dict] = None) -> float:
        _, accuracy = self._evaluate(weights, context)
        return float(accuracy)


class _FullRoundScorer(Scorer):
    """Shared plumbing for similarity scorers that need the whole round.

    ``score`` used to call ``score_round`` once *per model*, so scoring a
    full round of ``n`` models recomputed the whole pairwise round analysis ``n``
    times — O(n²) flattenings and O(n³) distance work.  The fix is a
    round-keyed memo: the sorted tuple of round CIDs fingerprints the round
    (CIDs are content hashes, so identical CID sets mean identical weights),
    and a repeated ``score`` call against the same round reuses the cached
    per-CID scores instead of re-running ``score_round``.

    Such a scorer holds no dataset, no model, nothing per cluster, so the
    runner hands one instance to every cluster: the memo is then the run's,
    and the ``n`` scorers of a wide round share one analysis of it.
    """

    requires_full_round = True

    #: per-class error message kept for backwards-compatible diagnostics.
    _context_error = "scoring requires the full set of round models via context['round_weights']"

    def __init__(self) -> None:
        self._round_memo: Optional[Tuple[Tuple[str, ...], Dict[str, float]]] = None
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, every memo hit is recomputed and compared.
        self.sanitizer: Optional[Any] = None

    def _round_scores(self, round_weights: Dict[str, Weights]) -> Dict[str, float]:
        fingerprint = tuple(sorted(round_weights))
        if self._round_memo is not None and self._round_memo[0] == fingerprint:
            if self.sanitizer is not None:
                self.sanitizer.check_round_scores(
                    fingerprint, self._round_memo[1], self.score_round(round_weights)
                )
            return self._round_memo[1]
        scores = self.score_round(round_weights)
        self._round_memo = (fingerprint, scores)
        return scores

    def score(self, weights: Weights, context: Optional[Dict] = None) -> float:
        if not context or "round_weights" not in context:
            raise ValueError(self._context_error)
        round_weights: Dict[str, Weights] = context["round_weights"]
        target_cid: Optional[str] = context.get("cid")
        scores = self._round_scores(round_weights)
        if target_cid is not None and target_cid in scores:
            return scores[target_cid]
        # Fall back to matching by value when the CID was not supplied.
        flat_target = flatten_weights(weights)
        for cid, candidate in round_weights.items():
            if np.allclose(flatten_weights(candidate), flat_target):
                return scores[cid]
        raise ValueError("the model being scored is not part of the provided round")


class MultiKRUMScorer(_FullRoundScorer):
    """Multi-KRUM similarity scoring over the models of one round.

    For each candidate model, compute the squared L2 distances to every other
    model of the round, sum the smallest ``n - f - 2`` of them (``f`` is the
    assumed number of Byzantine participants), and convert the sum to a
    score where smaller distance sums (models closer to the majority) rank
    higher.  Scores are mapped into (0, 1] so they are comparable with
    accuracy-based scores for the aggregation policies.

    The distance matrix is filled row by row over its upper triangle and
    mirrored, so the largest temporary is ``(n - 1, D)`` rather than the
    reference's ``(n, n, D)`` difference tensor (75 MB at n = 40 on the
    benchmark CNN).  The per-row selection is vectorised: the diagonal of
    the distance matrix holds ``inf`` (self-distance is zero and would
    otherwise always win), ``np.partition`` pulls each row's ``m`` nearest
    neighbours without a full sort, and a final ascending sort of just those
    ``m`` columns reproduces the reference loop's summation order so the
    result is bit-identical to :meth:`score_round_reference`.
    """

    name = "multikrum"

    _context_error = (
        "MultiKRUM requires the full set of round models via context['round_weights']"
    )

    def __init__(self, byzantine_tolerance: int = 0):
        super().__init__()
        if byzantine_tolerance < 0:
            raise ValueError("byzantine_tolerance must be non-negative")
        self.byzantine_tolerance = byzantine_tolerance

    def score_round(self, round_weights: Dict[str, Weights]) -> Dict[str, float]:
        if not round_weights:
            return {}
        cids = sorted(round_weights)
        vectors = np.stack([flatten_weights(round_weights[c]) for c in cids])
        n = len(cids)
        if n == 1:
            return {cids[0]: 1.0}
        # Pairwise squared distances, one upper-triangle row at a time: the
        # (n, n, D) difference tensor of the reference is never built.  Each
        # entry is the same contiguous length-D reduction and (a-b)² == (b-a)²
        # exactly, so the mirrored matrix equals the reference's bit for bit.
        # The diagonal stays inf (self-distance is zero and would otherwise
        # always win), so partition only sees peers.
        sq_dists = np.full((n, n), np.inf)
        for i in range(n - 1):
            row = ((vectors[i + 1 :] - vectors[i]) ** 2).sum(axis=1)
            sq_dists[i, i + 1 :] = row
            sq_dists[i + 1 :, i] = row
        closest = max(1, n - self.byzantine_tolerance - 2)
        m = min(closest, n - 1)
        nearest = np.partition(sq_dists, m - 1, axis=1)[:, :m]
        # Ascending sort of the m selected columns matches the reference
        # loop's `others.sort()` summation order, keeping sums bit-identical.
        krum_sums = np.sort(nearest, axis=1).sum(axis=1)
        return self._normalise(cids, krum_sums)

    def score_round_reference(self, round_weights: Dict[str, Weights]) -> Dict[str, float]:
        """The original ``(n, n, D)`` difference tensor and per-row selection
        loop, retained as the equivalence oracle."""
        if not round_weights:
            return {}
        cids = sorted(round_weights)
        vectors = np.stack([flatten_weights(round_weights[c]) for c in cids])
        n = len(cids)
        if n == 1:
            return {cids[0]: 1.0}
        diffs = vectors[:, None, :] - vectors[None, :, :]
        sq_dists = (diffs**2).sum(axis=2)
        closest = max(1, n - self.byzantine_tolerance - 2)
        krum_sums = np.empty(n)
        for i in range(n):
            others = np.delete(sq_dists[i], i)
            others.sort()
            krum_sums[i] = others[: min(closest, len(others))].sum()
        return self._normalise(cids, krum_sums)

    @staticmethod
    def _normalise(cids: List[str], krum_sums: np.ndarray) -> Dict[str, float]:
        # Smaller distance sum -> higher score, mapped into (0, 1].
        scale = krum_sums.max()
        if scale <= 0:
            return {cid: 1.0 for cid in cids}
        scores = 1.0 - (krum_sums / (scale * (1.0 + 1e-9)))
        # Keep strictly positive so "above zero" style policies behave sensibly.
        scores = 0.01 + 0.99 * scores
        return {cid: float(s) for cid, s in zip(cids, scores)}


class LossScorer(_HeldOutSetScorer):
    """Score a model by the inverse of its loss on the scorer's test dataset.

    Like accuracy-based scoring, this works in both Sync and Async modes and
    needs a local evaluation set; unlike accuracy it stays informative when
    accuracy saturates (early rounds near the random-guess floor, or late
    rounds near the ceiling).  The loss is mapped to ``1 / (1 + loss)`` so
    higher is better and the range is (0, 1], comparable with the other
    scorers.
    """

    name = "loss"

    def score(self, weights: Weights, context: Optional[Dict] = None) -> float:
        loss, _ = self._evaluate(weights, context)
        return float(1.0 / (1.0 + max(loss, 0.0)))


class CosineSimilarityScorer(_FullRoundScorer):
    """Score a model by its mean cosine similarity to the other round models.

    A cheap similarity-based alternative to MultiKRUM: an honest model points
    in roughly the same direction as the honest majority, while a poisoned
    (sign-flipped, scaled or random) model does not.  Like MultiKRUM it needs
    every model of the round at once and is therefore Sync-only.  Scores are
    mapped from [-1, 1] into [0, 1].

    The mean-of-others loop is vectorised by masking the diagonal of the
    similarity matrix and reshaping to ``(n, n - 1)`` before a row-wise
    mean.  Note this deliberately does NOT use the row-sum identity
    ``(row_sum - 1) / (n - 1)``: subtracting the self-similarity from an
    accumulated row sum changes the floating-point summation order and is
    not bit-identical to the reference ``np.delete(...).mean()`` loop,
    whereas the masked reshape preserves the exact operand order.
    """

    name = "cosine"

    _context_error = (
        "cosine scoring requires the full set of round models via context['round_weights']"
    )

    def score_round(self, round_weights: Dict[str, Weights]) -> Dict[str, float]:
        if not round_weights:
            return {}
        cids = sorted(round_weights)
        similarity = self._similarity_matrix(round_weights, cids)
        n = len(cids)
        if n == 1:
            return {cids[0]: 1.0}
        mask = ~np.eye(n, dtype=bool)
        means = similarity[mask].reshape(n, n - 1).mean(axis=1)
        return {cid: float((mean + 1.0) / 2.0) for cid, mean in zip(cids, means)}

    def score_round_reference(self, round_weights: Dict[str, Weights]) -> Dict[str, float]:
        """The original per-row loop, retained as the equivalence oracle."""
        if not round_weights:
            return {}
        cids = sorted(round_weights)
        similarity = self._similarity_matrix(round_weights, cids)
        n = len(cids)
        if n == 1:
            return {cids[0]: 1.0}
        scores = {}
        for i, cid in enumerate(cids):
            others = np.delete(similarity[i], i)
            scores[cid] = float((others.mean() + 1.0) / 2.0)
        return scores

    @staticmethod
    def _similarity_matrix(round_weights: Dict[str, Weights], cids: List[str]) -> np.ndarray:
        vectors = np.stack([flatten_weights(round_weights[c]) for c in cids])
        norms = np.linalg.norm(vectors, axis=1)
        norms[norms == 0] = 1.0
        unit = vectors / norms[:, None]
        return unit @ unit.T


#: every scoring algorithm, by the name configurations use.
SCORERS: Dict[str, Type[Scorer]] = {
    cls.name: cls
    for cls in (AccuracyScorer, LossScorer, MultiKRUMScorer, CosineSimilarityScorer)
}

#: the algorithms that analyse a whole round at once — therefore Sync-only
#: (``sched.policies``), priced as a bandwidth-bound pass over flattened
#: weights (``ClusterTimingModel.scoring_time``) and built once per run
#: (``ExperimentRunner``).  Read off the classes: a scorer declaring
#: ``requires_full_round = True`` is all three.
FULL_ROUND_SCORERS: FrozenSet[str] = frozenset(
    name for name, cls in SCORERS.items() if cls.requires_full_round
)


def build_scorer(
    name: str,
    model_template: Optional[Model] = None,
    test_data: Optional[Dataset] = None,
    byzantine_tolerance: int = 0,
    evaluator: Optional[Evaluator] = None,
) -> Scorer:
    """Construct a scorer by name (``accuracy``, ``loss``, ``multikrum`` or ``cosine``).

    ``evaluator`` is the run's shared evaluator for the two scorers that
    evaluate models; without one each builds its own.
    """
    key = name.lower()
    cls = SCORERS.get(key)
    if cls is None:
        raise ValueError(f"unknown scoring algorithm '{name}'")
    if issubclass(cls, _HeldOutSetScorer):
        if model_template is None or test_data is None:
            raise ValueError(f"{key} scoring requires a model template and a test dataset")
        return cls(model_template, test_data, evaluator)
    if cls is MultiKRUMScorer:
        return MultiKRUMScorer(byzantine_tolerance=byzantine_tolerance)
    return cls()
