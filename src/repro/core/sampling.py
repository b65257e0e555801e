"""Per-round client sampling for cross-device-scale federations.

A cross-silo federation draws every configured cluster every round; a
realistic cross-device one (10⁵–10⁶ clients, of which a few hundred
participate per round) cannot afford to build its whole population.  Two
concerns are kept apart:

* :class:`ClientSampler` (this module) decides *who* participates in each
  round — a seeded draw without replacement, keyed on ``[seed, round]`` in
  the same style as the fault plan's churn stream, so the cohort of round
  ``r`` is a pure function of ``(seed, r)`` and therefore independent of
  the order in which round policies ask for it;
* the roster in :mod:`repro.core.runner`
  (:class:`~repro.core.runner.ClientPopulation`) decides *what* gets built
  — only drawn members materialise actors, models and datasets, so peak
  memory is O(active cohort).  A cross-silo run is its degenerate case: a
  population of the configured clusters, each round's cohort all of them.

The sampler draws from its own stream tag with its own seed knob
(``sampling_seed``), deliberately disjoint from the fault plan's streams:
layering cohort sampling onto a churn-injecting run must not shift the
churn Bernoulli draws by a single variate.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: stream tag folded into the sampler's RNG key, so cohort draws can never
#: collide with another subsystem keying on the same ``(seed, round)`` pair.
_COHORT_STREAM = 0x5A


class ClientSampler:
    """Seeded per-round cohort draw over a virtual population.

    Cohorts are drawn without replacement and returned as sorted virtual
    indices.  Each draw seeds its own generator from ``(seed, stream,
    round)``, so asking for round 3 before round 1 yields exactly the same
    cohorts as the natural order.
    """

    def __init__(self, population: int, cohort_size: int, seed: int):
        if population < 1:
            raise ValueError("population must be at least 1")
        if not 1 <= cohort_size <= population:
            raise ValueError("cohort_size must be in [1, population]")
        self.population = population
        self.cohort_size = cohort_size
        self.seed = seed

    def cohort(self, round_number: int) -> Tuple[int, ...]:
        """Sorted virtual-cluster indices participating in ``round_number``."""
        if round_number < 1:
            raise ValueError("round_number must be at least 1")
        rng = np.random.default_rng([self.seed, _COHORT_STREAM, round_number])
        drawn = rng.choice(self.population, size=self.cohort_size, replace=False)
        return tuple(int(i) for i in np.sort(drawn))
