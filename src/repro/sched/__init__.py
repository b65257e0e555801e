"""Discrete-event scheduling engine for federation orchestration.

This package turns the orchestration layer into a classic discrete-event
simulation: a :class:`~repro.sched.kernel.SimulationKernel` owns a global
simulated clock and a heap-backed event queue
(:class:`~repro.simnet.events.EventQueue`), and *round policies* decide what
happens when — lock-step phases (sync), free-running clusters (async), or
quorum/staleness-bounded rounds (semi-sync).

* :mod:`repro.sched.kernel` — the engine: event scheduling, deterministic
  ordering, O(log n) dispatch.
* :mod:`repro.sched.policies` — the five built-in round policies (sync,
  async, semi-sync, hierarchical, gossip) plus the
  :class:`~repro.sched.policies.RoundPolicy` base class for writing new ones.
* :mod:`repro.sched.registry` — the pluggable round-policy registry:
  policies register a name, a config-validation hook and a factory that
  builds the policy from one
  :class:`~repro.sched.policies.OrchestrationContext`; runner dispatch,
  config validation, CLI mode choices and the contract's behaviour profile
  all derive from the registrations.
* :mod:`repro.sched.actors` — network and chain actors that promote model
  transfers and contract calls to first-class event streams (link contention
  over a replicated storage topology with on-the-books replication traffic —
  eager pushes, lazy fetches, availability-gated downloads — block-interval
  quantisation, Clique consensus delay); ``event_streams=False`` runs the
  same actors in their constant-cost configuration.

See ``docs/scheduling.md`` and ``docs/architecture.md`` for the design and a
guide to custom policies.
"""

from repro.sched.actors import ChainActor, ChainOp, CommFabric, NetworkActor
from repro.sched.kernel import SimulationKernel
from repro.sched.policies import (
    AsyncRoundPolicy,
    GossipRoundPolicy,
    HierarchicalRoundPolicy,
    OrchestrationContext,
    Roster,
    RoundPolicy,
    SemiSyncRoundPolicy,
    StaticRoster,
    SyncRoundPolicy,
)
from repro.sched.registry import (
    ContractProfile,
    PolicySpec,
    get_policy,
    register_policy,
    registered_modes,
    validate_mode_config,
)

__all__ = [
    "SimulationKernel",
    "AsyncRoundPolicy",
    "ChainActor",
    "ChainOp",
    "CommFabric",
    "ContractProfile",
    "GossipRoundPolicy",
    "HierarchicalRoundPolicy",
    "NetworkActor",
    "OrchestrationContext",
    "PolicySpec",
    "Roster",
    "RoundPolicy",
    "SemiSyncRoundPolicy",
    "StaticRoster",
    "SyncRoundPolicy",
    "get_policy",
    "register_policy",
    "registered_modes",
    "validate_mode_config",
]
