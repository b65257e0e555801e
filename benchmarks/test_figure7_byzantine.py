"""Figure 7 — naive vs smart policies under a Byzantine attacker.

The paper's adversarial scenario: two honest aggregators plus one bad actor
submitting malicious models.  With the naive policy (pick the top-3 models
regardless of reliability) the poisoned model enters every aggregation; with
the smart policy (aggregate only above-average models) the malicious
submissions are filtered out and accuracy recovers.

Reproduced shape: the honest aggregators' accuracy under the smart policy ends
at least as high as under the naive policy, and the attacker's submissions
receive lower scores than honest submissions.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.core.config import ClusterConfig, ExperimentConfig, cifar10_workload
from repro.core.runner import ExperimentRunner

OUTPUT_PATH = Path(__file__).parent / "out" / "byzantine_event_streams.json"


def _byzantine_config(
    policy: str, policy_k: int, seed: int = 11, rounds: int = 12, **overrides
) -> ExperimentConfig:
    clusters = [
        ClusterConfig(name="honest1", num_clients=3, aggregation_policy=policy, policy_k=policy_k),
        ClusterConfig(name="honest2", num_clients=3, aggregation_policy=policy, policy_k=policy_k),
        ClusterConfig(
            name="attacker",
            num_clients=3,
            aggregation_policy=policy,
            policy_k=policy_k,
            attack="sign_flip",
        ),
    ]
    return ExperimentConfig(
        name=overrides.pop("name", f"figure7-{policy}"),
        workload=cifar10_workload(rounds=rounds, samples_per_class=30, image_size=8, learning_rate=0.05),
        clusters=clusters,
        mode="sync",
        partitioning="iid",
        rounds=rounds,
        seed=seed,
        **overrides,
    )


def _honest_series(result):
    honest = [result.aggregator("honest1"), result.aggregator("honest2")]
    return np.mean([agg.accuracy_series() for agg in honest], axis=0)


def test_figure7_naive_vs_smart_policy(benchmark, report):
    def run():
        naive_runner = ExperimentRunner(_byzantine_config("top_k", policy_k=3))
        naive = naive_runner.run()
        smart_runner = ExperimentRunner(_byzantine_config("above_average", policy_k=3))
        smart = smart_runner.run()
        return naive_runner, naive, smart_runner, smart

    naive_runner, naive, smart_runner, smart = run_once(benchmark, run)

    naive_series = _honest_series(naive)
    smart_series = _honest_series(smart)
    times = naive.aggregator("honest1").time_series()

    lines = ["Figure 7 — honest-aggregator accuracy over time under a sign-flip attacker"]
    lines.append(f"{'Round':>6}{'Sim time (s)':>14}{'Naive Top-3 %':>16}{'Smart AboveAvg %':>18}")
    lines.append("-" * 54)
    for i, (t, naive_acc, smart_acc) in enumerate(zip(times, naive_series, smart_series), start=1):
        lines.append(f"{i:>6}{t:>14.0f}{naive_acc * 100:>16.2f}{smart_acc * 100:>18.2f}")
    lines.append("")
    lines.append(
        "Paper (Figure 7): the naive policy keeps absorbing the malicious model and stalls, "
        "while the above-average policy excludes it and recovers to a clearly higher accuracy."
    )
    report("\n".join(lines))

    # Final accuracy: the smart policy clearly beats the naive policy, which keeps
    # absorbing the poisoned model (the Figure 7(a) vs 7(b) separation).
    assert smart_series[-1] > naive_series[-1] + 0.1
    # The smart federation learns something real (well above the 10% floor).
    assert smart_series[-1] > 0.3

    # The attacker's models receive scores no better than honest ones under the smart run.
    records = smart_runner.chain.call("unifyfl", "getLatestModelsWithScores")
    attacker_address = smart_runner.accounts["attacker"].address
    attacker_scores = [s for r in records if r["submitter"] == attacker_address for s in r["scores"].values()]
    honest_scores = [s for r in records if r["submitter"] != attacker_address for s in r["scores"].values()]
    assert attacker_scores and honest_scores
    assert np.mean(attacker_scores) <= np.mean(honest_scores) + 1e-9


#: fault scenario layered on the Figure-7 federation for the resilience grid:
#: seeded client churn plus staggered replica outages served by failover.
_FAULT_KNOBS = dict(
    churn_rate=0.1,
    replica_outages=2,
    storage_replicas=2,
    replication_mode="lazy",
    outage_duration_s=120.0,
    replica_selection="least-loaded",
)


def test_figure7_under_event_streams_and_faults(benchmark, report):
    """Figure 7 revisited with the middleware under attack *and* under faults.

    Runs the naive/smart policy pair twice — once clean, once with churned
    clients and staggered replica outages on the event-stream fabric — and
    records the 2x2 grid to ``benchmarks/out/byzantine_event_streams.json``.
    The Byzantine separation (smart > naive) must survive the fault load,
    and the faulted runs must show the resilience machinery actually firing.
    """

    def run():
        grid = {}
        for scenario, knobs in (("clean", {}), ("faults", _FAULT_KNOBS)):
            for label, policy in (("naive", "top_k"), ("smart", "above_average")):
                config = _byzantine_config(
                    policy, policy_k=3, rounds=8,
                    name=f"figure7-{label}-{scenario}", **knobs
                )
                grid[(scenario, label)] = ExperimentRunner(config).run()
        return grid

    grid = run_once(benchmark, run)

    rows = []
    for (scenario, label), result in grid.items():
        comm = result.comm_metrics
        rows.append(
            {
                "scenario": scenario,
                "policy": label,
                "honest_accuracy": float(_honest_series(result)[-1]),
                "makespan": max(a.total_time for a in result.aggregators),
                "dropped_clients": comm.get("dropped_clients", 0.0),
                "retries": comm.get("retries", 0.0),
                "failovers": comm.get("failovers", 0.0),
                "breaker_trips": comm.get("breaker_trips", 0.0),
                "fault_outage_s": comm.get("fault_outage_s", 0.0),
            }
        )
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(rows, indent=2), encoding="utf-8")

    lines = ["Figure 7 x fault injection — honest final accuracy per scenario"]
    lines.append(
        f"{'Scenario':<10}{'Policy':<8}{'Honest acc %':>14}{'Makespan (s)':>14}"
        f"{'Dropped':>9}{'Retries':>9}{'Failovers':>11}"
    )
    lines.append("-" * 75)
    for row in rows:
        lines.append(
            f"{row['scenario']:<10}{row['policy']:<8}{row['honest_accuracy'] * 100:>14.2f}"
            f"{row['makespan']:>14.0f}{row['dropped_clients']:>9.0f}"
            f"{row['retries']:>9.0f}{row['failovers']:>11.0f}"
        )
    lines.append(f"(written to {OUTPUT_PATH})")
    report("\n".join(lines))

    by_key = {(r["scenario"], r["policy"]): r for r in rows}
    # The Byzantine separation survives churn and outages.
    assert by_key[("faults", "smart")]["honest_accuracy"] > by_key[("faults", "naive")]["honest_accuracy"]
    # The fault machinery demonstrably fired: clients were dropped and the
    # outages pushed traffic through retry/failover.
    for label in ("naive", "smart"):
        faulted = by_key[("faults", label)]
        assert faulted["dropped_clients"] > 0
        assert faulted["fault_outage_s"] > 0
        assert faulted["retries"] + faulted["failovers"] > 0
    # Clean runs carry zeroed resilience accounting.
    for label in ("naive", "smart"):
        clean = by_key[("clean", label)]
        assert clean["retries"] == 0 and clean["failovers"] == 0
        assert clean["dropped_clients"] == 0
