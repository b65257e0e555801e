"""Orchestration of a UnifyFL federation (Sections 3.2 / 3.3).

The orchestrator in UnifyFL is logically the smart contract; the one
:class:`Orchestrator` here drives the protocol steps against the contract
and manages the simulated time of every cluster.  It owns the plumbing every
mode shares — contract registration, the
:class:`~repro.sched.kernel.SimulationKernel`, the result document — and is
handed a *policy builder*: any callable that turns the run's
:class:`~repro.sched.policies.OrchestrationContext` into a
:class:`~repro.sched.policies.RoundPolicy`.  What a mode *is* (lock-step
windows, free-running slots, quorum closes, site leaders, gossip fanout)
lives entirely in its policy; a policy class itself is a valid builder
(``Orchestrator(..., AsyncRoundPolicy)``), ``functools.partial`` or a lambda
binds constructor arguments, and the
:class:`~repro.sched.registry.PolicySpec` factories the experiment runner
dispatches through are builders too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.core.aggregator import AggregatorRoundRecord, UnifyFLAggregator
from repro.core.config import ExperimentConfig
from repro.core.timing import ClusterTimingModel
from repro.sched.actors import CommFabric
from repro.sched.kernel import SimulationKernel
from repro.sched.policies import OrchestrationContext, Roster, RoundPolicy, StaticRoster


@dataclass
class OrchestrationResult:
    """Outcome of driving a federation for a number of rounds."""

    mode: str
    rounds_completed: int
    #: per-aggregator history, keyed by cluster name.
    histories: Dict[str, List[AggregatorRoundRecord]] = field(default_factory=dict)
    #: per-aggregator total simulated time.
    total_times: Dict[str, float] = field(default_factory=dict)
    #: per-aggregator cumulative idle (barrier / quorum-wait) time — zero in async mode.
    idle_times: Dict[str, float] = field(default_factory=dict)
    #: count of straggler incidents per aggregator.
    straggler_counts: Dict[str, int] = field(default_factory=dict)
    #: policy-specific annotations (semi-sync quorum/staleness closures, ...).
    extras: Dict[str, object] = field(default_factory=dict)


class Orchestrator:
    """Drives one federation under whatever round policy it is handed."""

    def __init__(
        self,
        chain: Blockchain,
        driver_account: Account,
        aggregators: Sequence[UnifyFLAggregator],
        timing_model: ClusterTimingModel,
        policy: Callable[[OrchestrationContext], RoundPolicy],
        roster: Optional[Roster] = None,
        config: Optional[ExperimentConfig] = None,
    ):
        if not aggregators:
            raise ValueError("an orchestrator needs at least one aggregator")
        names = [a.name for a in aggregators]
        if len(set(names)) != len(names):
            raise ValueError("aggregator names must be unique")
        self.chain = chain
        self.driver = driver_account
        #: kept by reference: a sampled roster appends the clusters it
        #: materialises mid-run to this list, so they show up in the results.
        self.aggregators = aggregators
        self.timing = timing_model
        self.policy_builder = policy
        #: the communication fabric the aggregators charge through; the
        #: policies price the driver's phase control and their peer exchanges
        #: on the same one.
        self.comm: CommFabric = aggregators[0].comm
        if any(a.comm is not self.comm for a in aggregators):
            raise ValueError("the aggregators of one federation must share one CommFabric")
        #: who occupies which slot per round; a dense federation is the
        #: identity roster over ``aggregators``.
        self.roster = roster if roster is not None else StaticRoster(aggregators)
        self.config = config
        self._idle_totals: Dict[str, float] = {a.name: 0.0 for a in aggregators}
        self._straggles: Dict[str, int] = {a.name: 0 for a in aggregators}
        self.kernel: Optional[SimulationKernel] = None
        #: optional simulation sanitizer, installed on every kernel this
        #: orchestrator creates (set by the runner before :meth:`run`).
        self.sanitizer = None

    def register_all(self) -> None:
        """Register every aggregator with the contract (idempotent per run)."""
        registered = set(self.chain.call("unifyfl", "getAggregators"))
        for aggregator in self.aggregators:
            if aggregator.address not in registered:
                aggregator.register(mine=False)
        self.chain.mine_until_empty()

    def run(self, num_rounds: int) -> OrchestrationResult:
        """Drive the federation until every slot completed ``num_rounds``."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        self.register_all()
        self.kernel = SimulationKernel()
        self.kernel.sanitizer = self.sanitizer
        policy = self.policy_builder(
            OrchestrationContext(
                chain=self.chain,
                driver=self.driver,
                aggregators=self.aggregators,
                timing=self.timing,
                num_rounds=num_rounds,
                roster=self.roster,
                comm=self.comm,
                idle_totals=self._idle_totals,
                straggles=self._straggles,
                config=self.config,
            )
        )
        policy.install(self.kernel)
        self.kernel.run()
        policy.finalize()
        extras = dict(policy.extras())
        return OrchestrationResult(
            mode=policy.mode,
            rounds_completed=num_rounds,
            histories={a.name: list(a.history) for a in self.aggregators},
            total_times={a.name: a.total_time() for a in self.aggregators},
            idle_times=dict(self._idle_totals),
            straggler_counts=dict(self._straggles),
            extras=extras,
        )
