"""Evaluate each (weights, dataset) pair once per run.

Every UnifyFL aggregator evaluates its global and local model each round and
every assigned scorer evaluates the models it pulls — and content addressing
means equal bytes are equal models.  In a sampled run the virtual clusters
cloned from one template share its scorer test set and start from identical
weights, so most of a cohort's scores and global evaluations repeat an earlier
(weights, dataset) pair exactly.  The simulator keeps *charging* each of them
(``ClusterTimingModel.scoring_time`` is per scorer); the host has no reason to
*recompute* them.

One :class:`Evaluator` serves one run: it owns the run's single
evaluation-mode model and a bounded LRU from
(:func:`~repro.ml.serialization.weights_fingerprint`, dataset identity) to the
``(loss, accuracy)`` tuple ``Model.evaluate`` returned.  Evaluation is a pure
function of that pair (evaluation mode consumes no randomness and retains
nothing), so a hit can never change a result; the sanitizer recomputes every
hit and compares, so that is checked rather than trusted.

A computed evaluation pays only for the weights:

* the model stays in evaluation mode for the whole run, so no call toggles
  it;
* a request that names the model's CID (every scorer's does) takes the
  fingerprint the CID was first seen with instead of hashing the weights
  again.  The memo stays keyed by fingerprint, so a model requested with
  and without its CID shares one entry;
* the :class:`~repro.ml.models.EvaluationPlan` of a dataset — its
  first-layer im2col columns, checked labels and row index per batch — is
  built on the first evaluation on that dataset and kept for the two most
  recently evaluated ones: the two an aggregator evaluates on, the run's
  test set (``record_round``) and its own score set (scoring).

Under the sanitizer every planned evaluation is recomputed by a plan-free
``Model.evaluate`` and compared, and every CID that names a fingerprint has
its weights fingerprinted again and compared.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

import numpy as np

from repro.ml.models import EvaluationPlan, Model
from repro.ml.serialization import weights_fingerprint

if TYPE_CHECKING:
    from repro.datasets.synthetic import Dataset

Weights = List[np.ndarray]

#: (weights, dataset) pairs remembered per run.  An entry is two floats, and
#: the largest working set of the benchmark workloads (a sampled cohort's
#: round) is a few hundred pairs.  The CID -> fingerprint table has the same
#: bound.
EVALUATION_MEMO_CAPACITY = 1024


class Evaluator:
    """Loss and accuracy of weight sets on datasets, each pair computed once."""

    def __init__(self, model_template: Model):
        self._model = model_template.clone()
        self._model.network.eval()
        #: (fingerprint, id(dataset)) -> (dataset, (loss, accuracy)).  The
        #: entry holds the dataset itself so its id cannot be recycled for
        #: another object while the entry lives.
        self._memo: "OrderedDict[Tuple[str, int], Tuple[Dataset, Tuple[float, float]]]" = (
            OrderedDict()
        )
        #: CID -> the fingerprint of the weights first evaluated under it.
        self._fingerprints: "OrderedDict[str, str]" = OrderedDict()
        #: id(dataset) -> (dataset, its evaluation plan), most recent last.
        self._plans: "OrderedDict[int, Tuple[Dataset, EvaluationPlan]]" = OrderedDict()
        #: evaluations requested / answered from the memo.
        self.calls = 0
        self.hits = 0
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, every hit is recomputed and compared with what is stored,
        #: every planned evaluation with a plan-free one and every CID's
        #: fingerprint with a fresh one.
        self.sanitizer: Optional[Any] = None

    def evaluate(
        self, weights: Weights, data: "Dataset", cid: Optional[str] = None
    ) -> Tuple[float, float]:
        """``(loss, accuracy)`` of ``weights`` on ``data``.

        ``cid``, when given, is the content address ``weights`` were fetched
        under.
        """
        self.calls += 1
        fingerprint = self._fingerprint(weights, cid)
        key = (fingerprint, id(data))
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
            self.hits += 1
            if self.sanitizer is not None:
                self.sanitizer.check_evaluation(
                    fingerprint, data.name, entry[1], self._compute_plan_free(weights, data)
                )
            return entry[1]
        result = self._compute(weights, data)
        if self.sanitizer is not None:
            self.sanitizer.check_evaluation_plan(
                fingerprint, data.name, result, self._compute_plan_free(weights, data)
            )
        self._memo[key] = (data, result)
        if len(self._memo) > EVALUATION_MEMO_CAPACITY:
            self._memo.popitem(last=False)
        return result

    def _fingerprint(self, weights: Weights, cid: Optional[str]) -> str:
        if cid is None:
            return weights_fingerprint(weights)
        fingerprint = self._fingerprints.get(cid)
        if fingerprint is None:
            fingerprint = weights_fingerprint(weights)
            self._fingerprints[cid] = fingerprint
            if len(self._fingerprints) > EVALUATION_MEMO_CAPACITY:
                self._fingerprints.popitem(last=False)
            return fingerprint
        self._fingerprints.move_to_end(cid)
        if self.sanitizer is not None:
            self.sanitizer.check_evaluation_cid(cid, fingerprint, weights_fingerprint(weights))
        return fingerprint

    def _plan(self, data: "Dataset") -> EvaluationPlan:
        entry = self._plans.get(id(data))
        if entry is not None:
            self._plans.move_to_end(id(data))
            return entry[1]
        plan = self._model.evaluation_plan(data.x, data.y)
        self._plans[id(data)] = (data, plan)
        if len(self._plans) > 2:
            self._plans.popitem(last=False)
        return plan

    def _compute(self, weights: Weights, data: "Dataset") -> Tuple[float, float]:
        self._model.set_weights(weights)
        return self._model.evaluate(data.x, data.y, plan=self._plan(data))

    def _compute_plan_free(self, weights: Weights, data: "Dataset") -> Tuple[float, float]:
        self._model.set_weights(weights)
        return self._model.evaluate(data.x, data.y)
