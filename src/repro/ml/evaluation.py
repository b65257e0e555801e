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
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

import numpy as np

from repro.ml.models import Model
from repro.ml.serialization import weights_fingerprint

if TYPE_CHECKING:
    from repro.datasets.synthetic import Dataset

Weights = List[np.ndarray]

#: (weights, dataset) pairs remembered per run.  An entry is two floats, and
#: the largest working set of the benchmark workloads (a sampled cohort's
#: round) is a few hundred pairs.
EVALUATION_MEMO_CAPACITY = 1024


class Evaluator:
    """Loss and accuracy of weight sets on datasets, each pair computed once."""

    def __init__(self, model_template: Model):
        self._model = model_template.clone()
        #: (fingerprint, id(dataset)) -> (dataset, (loss, accuracy)).  The
        #: entry holds the dataset itself so its id cannot be recycled for
        #: another object while the entry lives.
        self._memo: "OrderedDict[Tuple[str, int], Tuple[Dataset, Tuple[float, float]]]" = (
            OrderedDict()
        )
        #: evaluations requested / answered from the memo.
        self.calls = 0
        self.hits = 0
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, every hit is recomputed and compared with what is stored.
        self.sanitizer: Optional[Any] = None

    def evaluate(self, weights: Weights, data: "Dataset") -> Tuple[float, float]:
        """``(loss, accuracy)`` of ``weights`` on ``data``."""
        self.calls += 1
        fingerprint = weights_fingerprint(weights)
        key = (fingerprint, id(data))
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
            self.hits += 1
            if self.sanitizer is not None:
                self.sanitizer.check_evaluation(
                    fingerprint, data.name, entry[1], self._compute(weights, data)
                )
            return entry[1]
        result = self._compute(weights, data)
        self._memo[key] = (data, result)
        if len(self._memo) > EVALUATION_MEMO_CAPACITY:
            self._memo.popitem(last=False)
        return result

    def _compute(self, weights: Weights, data: "Dataset") -> Tuple[float, float]:
        self._model.set_weights(weights)
        return self._model.evaluate(data.x, data.y)
