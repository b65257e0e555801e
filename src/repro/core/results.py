"""Result records and table formatting for UnifyFL experiments.

The benchmark harness prints tables in the same shape as the paper's
Tables 1, 5, 6 and 7: one row per aggregator with the time, policy, and the
global/local accuracy and loss, plus resource-overhead rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.aggregator import AggregatorRoundRecord
from repro.sched.metrics import comm_table
from repro.simnet.resources import ResourceReport


@dataclass
class AggregatorResult:
    """Final metrics of one aggregator in a UnifyFL run (a Table 5/6 row)."""

    name: str
    policy: str
    strategy: str
    total_time: float
    global_accuracy: float
    global_loss: float
    local_accuracy: float
    local_loss: float
    #: seconds the cluster's clock advanced with no work done: the sum of its
    #: records' ``timing.idle_time`` (barriers, phase windows, quorum closes,
    #: site leaders, and offline rounds' downtime).  The round records are
    #: the one ledger of a cluster's time.
    idle_time: float = 0.0
    #: rounds whose record is ``straggled`` (missed the sync submission window).
    straggler_count: int = 0
    history: List[AggregatorRoundRecord] = field(default_factory=list)

    def accuracy_series(self) -> List[float]:
        """Global accuracy over rounds (for Figure-7-style time series)."""
        return [r.global_accuracy for r in self.history]

    def time_series(self) -> List[float]:
        """Simulated completion time of each round."""
        return [r.sim_time for r in self.history]


@dataclass
class ExperimentResult:
    """Everything measured in one UnifyFL experiment."""

    name: str
    mode: str
    scoring_algorithm: str
    partitioning: str
    rounds: int
    aggregators: List[AggregatorResult]
    chain_metrics: Dict[str, float] = field(default_factory=dict)
    storage_metrics: Dict[str, float] = field(default_factory=dict)
    resource_reports: Dict[str, ResourceReport] = field(default_factory=dict)
    #: mode-specific annotations from the round policy (e.g. semi-sync
    #: quorum/staleness closure statistics).
    orchestration_extras: Dict[str, object] = field(default_factory=dict)
    #: per-phase communication/chain accounting from the run's fabric
    #: (``CommFabric.summary``; queueing is zero on the constant-cost one).
    comm_metrics: Dict[str, float] = field(default_factory=dict)
    #: sampled-federation metadata — population size, per-round cohort size,
    #: sampling seed and how many virtual clusters actually materialised.
    #: Empty for the classic fully-materialised cross-silo shape.
    sampling: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_global_accuracy(self) -> float:
        """Average final global accuracy across aggregators."""
        return sum(a.global_accuracy for a in self.aggregators) / len(self.aggregators)

    @property
    def max_total_time(self) -> float:
        """Slowest aggregator's total simulated time (the federation makespan)."""
        return max(a.total_time for a in self.aggregators)

    def aggregator(self, name: str) -> AggregatorResult:
        """Look up one aggregator's result by cluster name."""
        for result in self.aggregators:
            if result.name == name:
                return result
        raise KeyError(f"no aggregator named '{name}' in experiment '{self.name}'")


def format_run_table(result: ExperimentResult, percent: bool = True) -> str:
    """Render an experiment in the layout of the paper's Tables 5/6."""
    scale = 100.0 if percent else 1.0
    header = (
        f"{'Aggregator':<12}{'Time':>8}  {'Policy':<16}"
        f"{'Glob Acc':>9}{'Loc Acc':>9}{'Glob Loss':>10}{'Loc Loss':>10}"
    )
    lines = [f"Run: {result.name}  (mode={result.mode}, scoring={result.scoring_algorithm}, "
             f"partition={result.partitioning}, rounds={result.rounds})", header, "-" * len(header)]
    for agg in result.aggregators:
        lines.append(
            f"{agg.name:<12}{agg.total_time:>8.0f}  {agg.policy:<16}"
            f"{agg.global_accuracy * scale:>9.2f}{agg.local_accuracy * scale:>9.2f}"
            f"{agg.global_loss:>10.2f}{agg.local_loss:>10.2f}"
        )
    return "\n".join(lines)


def format_resource_table(reports: Dict[str, ResourceReport]) -> str:
    """Render the Table 7 system-overhead layout."""
    header = f"{'Process':<12}{'Type':<12}{'Mean':>12}{'Std/Dev':>12}"
    lines = ["System metrics (Table 7 layout)", header, "-" * len(header)]
    for process_type in sorted(reports):
        report = reports[process_type]
        lines.append(f"{process_type:<12}{'cpu %':<12}{report.cpu_mean:>12.3f}{report.cpu_std:>12.3f}")
        lines.append(f"{'':<12}{'mem (MB)':<12}{report.mem_mean_mb:>12.3f}{report.mem_std_mb:>12.3f}")
    return "\n".join(lines)


def format_comm_table(result: ExperimentResult) -> str:
    """Render the per-phase communication / chain report.

    Shows wire vs queued seconds for uploads and downloads, the finality wait
    of each chain-interaction kind, and the block span — the observable cost
    of the middle tier (a constant-cost run shows zero queueing and no
    driver rows).  Rows and closing lines come from
    :func:`repro.sched.metrics.comm_table`.
    """
    header = f"{'Stream':<28}{'Time (s)':>12}{'Queued (s)':>12}{'Events':>10}"
    rule = "-" * len(header)

    def render(row) -> str:
        label, (time, queued, events) = row
        queued_cell = f"{'—':>12}" if queued is None else f"{queued:>12.2f}"
        return f"{label:<28}{time:>12.2f}{queued_cell}{events:>10.0f}"

    rows, totals, closing = comm_table(result.comm_metrics)
    lines = [f"Communication / chain event streams ({result.name})", header, rule]
    lines += [render(row) for row in rows] + [rule] + [render(row) for row in totals] + closing
    return "\n".join(lines)


def format_policy_table(result: ExperimentResult) -> str:
    """Render the mode-specific orchestration breakdown, if the mode has one.

    Hierarchical runs report the per-tier split (cheap local-site work vs
    the global WAN/chain coordination tier) plus the leadership rotation;
    gossip runs report the per-exchange totals and the per-cluster
    convergence.  Modes without such extras get an empty string, so callers
    can print unconditionally.
    """
    extras = result.orchestration_extras
    lines: List[str] = []
    if "tier_totals" in extras:
        tiers = extras["tier_totals"]
        header = f"{'Tier / activity':<32}{'Time (s)':>12}"
        lines = [f"Hierarchical tier breakdown ({result.name})", header, "-" * len(header)]
        for key in sorted(tiers):
            tier, _, activity = key.partition("_")
            lines.append(f"{tier + ' ' + activity.replace('_', ' '):<32}{tiers[key]:>12.2f}")
        local = sum(v for k, v in sorted(tiers.items()) if k.startswith("local_"))
        global_ = sum(v for k, v in sorted(tiers.items()) if k.startswith("global_"))
        lines.append("-" * len(header))
        lines.append(f"{'total local tier':<32}{local:>12.2f}")
        lines.append(f"{'total global tier':<32}{global_:>12.2f}")
        leaders = extras.get("leaders", [])
        if leaders:
            rotation = ", ".join(f"r{r}:{name}" for r, _, name in leaders[:8])
            suffix = ", ..." if len(leaders) > 8 else ""
            lines.append(f"leaders: {rotation}{suffix}")
        exhausted = extras.get("budget_exhausted", {})
        if exhausted:
            spent = ", ".join(f"{name}@{at}" for name, at in sorted(exhausted.items()))
            lines.append(f"round budget exhausted: {spent}")
    elif "exchange_count" in extras:
        header = f"{'Cluster':<16}{'Exchanges':>10}{'Final acc %':>12}"
        lines = [f"Gossip exchange breakdown ({result.name})", header, "-" * len(header)]
        per_cluster = extras.get("per_cluster_exchanges", {})
        accuracy = extras.get("per_cluster_final_accuracy", {})
        for name in sorted(per_cluster):
            lines.append(
                f"{name:<16}{per_cluster[name]:>10}{accuracy.get(name, float('nan')) * 100:>12.2f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"fanout {extras.get('gossip_fanout', 0)}: "
            f"{extras['exchange_count']} exchanges, "
            f"{extras.get('exchange_time', 0.0):.2f}s moving models, "
            f"{extras.get('missed_exchanges', 0)} missed"
        )
    return "\n".join(lines)


def format_comparison(
    results: Sequence[ExperimentResult], labels: Optional[Sequence[str]] = None
) -> str:
    """Summarise several experiments side by side (accuracy and makespan)."""
    labels = list(labels) if labels is not None else [r.name for r in results]
    header = f"{'Run':<34}{'Mean Glob Acc %':>16}{'Makespan (s)':>14}"
    lines = [header, "-" * len(header)]
    for label, result in zip(labels, results):
        lines.append(
            f"{label:<34}{result.mean_global_accuracy * 100:>16.2f}{result.max_total_time:>14.0f}"
        )
    return "\n".join(lines)
