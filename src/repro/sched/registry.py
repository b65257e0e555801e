"""The round-policy registry: orchestration modes as pluggable plugins.

One source of truth for "what modes exist": a mode *registers* a name, a
factory that builds its :class:`~repro.sched.policies.RoundPolicy`, an
optional config-validation hook and the contract-behaviour profile it needs
— and every consumer derives its view from the registration:

* :class:`~repro.core.runner.ExperimentRunner` looks the configured mode up
  with :func:`get_policy`, calls the spec's ``factory`` with the run's
  :class:`~repro.sched.policies.OrchestrationContext` and runs the policy it
  returns (:meth:`~repro.sched.policies.RoundPolicy.run`);
* :class:`~repro.core.config.ExperimentConfig` validates ``mode`` against
  :func:`registered_modes` at construction time and runs the spec's
  ``validate`` hook, so an unknown mode fails fast with the list of
  registered names instead of deep inside orchestration;
* the CLI builds its ``--mode`` choices from :func:`registered_modes`;
* :class:`~repro.core.contract.UnifyFLContract` reads the spec's
  :class:`ContractProfile` to decide whether submissions are phase-gated,
  whether scorers are assigned at submission time, and whether the semi-sync
  buffer machinery is live.

The registry itself is domain-agnostic and imports nothing from ``repro`` at
module level.  The built-in modes register themselves at the bottom of
:mod:`repro.sched.policies`, which the ``repro.sched`` package imports — so
they are present before anything can reach this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.config import ExperimentConfig
    from repro.sched.policies import OrchestrationContext, RoundPolicy


@dataclass(frozen=True)
class ContractProfile:
    """How the orchestrator contract behaves under one mode.

    The contract used to switch on hard-coded mode names; these three flags
    are the actual behavioural axes those names selected:

    Attributes:
        phase_gated: submissions/scores are only accepted inside the matching
            sync phase window, and the ``startScoring``/``endRound`` phase
            control flow is live (the sync mode).
        assigns_scorers_on_submit: scorers are sampled the moment a model CID
            lands, instead of in batch at ``startScoring`` (async, semi and
            hierarchical).  Gossip turns this off: exchanges are scored by
            nobody — each cluster judges what it merges.
        buffered: the semi-sync round buffer is live — submissions accumulate
            until ``closeSemiRound`` advances the round counter, and
            ``getSemiRoundStatus``/``configureSemiRound`` are callable.
    """

    phase_gated: bool = False
    assigns_scorers_on_submit: bool = False
    buffered: bool = False


@dataclass(frozen=True)
class PolicySpec:
    """One registered orchestration mode.

    Attributes:
        name: the mode string (``ExperimentConfig.mode`` / CLI ``--mode``).
        factory: builds the mode's round policy from the run's
            :class:`~repro.sched.policies.OrchestrationContext` (whose
            ``config`` carries the experiment's knobs).
        description: one-line summary surfaced by CLI help and docs.
        validate: optional hook run at ``ExperimentConfig`` construction;
            raises ``ValueError`` on a configuration the mode cannot run.
        contract: the contract behaviour this mode needs.
    """

    name: str
    factory: Callable[["OrchestrationContext"], "RoundPolicy"]
    description: str = ""
    validate: Optional[Callable[["ExperimentConfig"], None]] = None
    contract: ContractProfile = field(default_factory=ContractProfile)


#: the registry proper, in registration order (which fixes CLI choice order).
_REGISTRY: Dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Register one round policy; duplicate names are a hard error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"round policy '{spec.name}' is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_policy(name: str) -> None:
    """Remove a registration (test plumbing; built-ins should stay put)."""
    _REGISTRY.pop(name, None)


def registered_modes() -> List[str]:
    """Names of every registered mode, in registration order."""
    return list(_REGISTRY)


def get_policy(name: str) -> PolicySpec:
    """Look up one mode's spec; unknown names list what *is* registered."""
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(f"'{mode}'" for mode in _REGISTRY)
        raise ValueError(f"unknown orchestration mode '{name}'; registered modes: {known}")
    return spec


def validate_mode_config(config: "ExperimentConfig") -> None:
    """Fail fast on an unknown mode or a config the mode cannot run."""
    spec = get_policy(config.mode)
    if spec.validate is not None:
        spec.validate(config)
