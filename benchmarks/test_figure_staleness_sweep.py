"""Figure-style benchmark — semi-sync staleness sweep.

ROADMAP item: the semi-sync mode was only evaluated qualitatively in the
3-way Table-3 benchmark.  This sweep makes it quantitative: it scans the two
semi-sync knobs — ``semi_quorum_k`` (how many clusters must land a
submission before the logical round closes) and ``max_staleness`` (how long
an open round may wait for them) — over otherwise identical edge-cluster
runs, and reports accuracy, makespan, idle time and how each round closed
(quorum vs staleness expiry).

The sweep runs in two variants (ROADMAP open item): ``constant`` uses the
constant-cost timing path, ``event_streams`` replays the identical grid with
the network/chain event streams on — contended links plus block-interval
finality, so the quorum close itself costs consensus time and even a
``quorum_k=1`` run shows idle waits.  Both variants land in the same JSON
(``benchmarks/out/staleness_sweep.json``) with a ``variant`` key per row, so
the two surfaces can be plotted against each other without re-running.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import edge_experiment, run_once
from repro.core.runner import run_experiment
from repro.sched.metrics import flat_row

#: where the sweep's machine-readable results land.
OUTPUT_PATH = Path(__file__).parent / "out" / "staleness_sweep.json"

QUORUMS = (1, 2, 3)
STALENESS_BOUNDS = (40.0, 400.0)
ROUNDS = 3
VARIANTS = {
    "constant": {"event_streams": False},
    "event_streams": {"event_streams": True},
}


def test_semi_staleness_sweep(benchmark, report):
    def run():
        grid = {}
        for variant, extra in VARIANTS.items():
            for quorum_k in QUORUMS:
                for staleness in STALENESS_BOUNDS:
                    result = run_experiment(
                        edge_experiment(
                            f"sweep-{variant}-q{quorum_k}-s{staleness:.0f}",
                            mode="semi",
                            rounds=ROUNDS,
                            seed=2,
                            semi_quorum_k=quorum_k,
                            max_staleness=staleness,
                            **extra,
                        )
                    )
                    grid[(variant, quorum_k, staleness)] = result
        return grid

    grid = run_once(benchmark, run)

    rows = []
    for (variant, quorum_k, staleness), result in grid.items():
        extras = result.orchestration_extras
        rows.append(
            {
                "variant": variant,
                "semi_quorum_k": quorum_k,
                "max_staleness": staleness,
                "mean_global_accuracy": result.mean_global_accuracy,
                "makespan_s": result.max_total_time,
                "total_idle_s": sum(a.idle_time for a in result.aggregators),
                "rounds_closed": extras["rounds_closed"],
                "quorum_closures": extras["quorum_closures"],
                "staleness_closures": extras["staleness_closures"],
                **flat_row(result.comm_metrics, ["network_queued", "chain_wait"]),
            }
        )

    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(rows, indent=2), encoding="utf-8")

    lines = ["Staleness sweep — accuracy/makespan vs semi_quorum_k and max_staleness"]
    lines.append(
        f"{'variant':>14}{'quorum_k':>9}{'staleness':>11}{'acc %':>8}{'makespan':>10}{'idle':>8}"
        f"{'closed':>8}{'quorum':>8}{'expired':>9}"
    )
    lines.append("-" * 85)
    for row in rows:
        lines.append(
            f"{row['variant']:>14}{row['semi_quorum_k']:>9}{row['max_staleness']:>11.0f}"
            f"{row['mean_global_accuracy'] * 100:>8.2f}{row['makespan_s']:>10.0f}"
            f"{row['total_idle_s']:>8.0f}{row['rounds_closed']:>8}"
            f"{row['quorum_closures']:>8}{row['staleness_closures']:>9}"
        )
    lines.append(f"(written to {OUTPUT_PATH})")
    report("\n".join(lines))

    by_key = {(r["variant"], r["semi_quorum_k"], r["max_staleness"]): r for r in rows}
    for staleness in STALENESS_BOUNDS:
        # quorum_k = 1 in constant mode: the first landed submission closes
        # the round instantly, so no cluster ever blocks waiting for peers.
        assert by_key[("constant", 1, staleness)]["total_idle_s"] == 0.0
        for variant in VARIANTS:
            # A stricter quorum can only add blocking, never remove it.
            assert (
                by_key[(variant, 1, staleness)]["total_idle_s"]
                <= by_key[(variant, 2, staleness)]["total_idle_s"]
                <= by_key[(variant, 3, staleness)]["total_idle_s"]
            )
            # Lower quorums close rounds more often: with k=1 every landing
            # closes a round, stricter quorums batch landings into fewer
            # closures.
            assert (
                by_key[(variant, 1, staleness)]["rounds_closed"]
                >= by_key[(variant, 2, staleness)]["rounds_closed"]
                >= by_key[(variant, 3, staleness)]["rounds_closed"]
            )
    for variant in VARIANTS:
        for quorum_k in QUORUMS:
            tight = by_key[(variant, quorum_k, min(STALENESS_BOUNDS))]
            loose = by_key[(variant, quorum_k, max(STALENESS_BOUNDS))]
            # A tight staleness bound can only close rounds earlier (more
            # expiry closures), bounding how long anyone waits.
            assert tight["staleness_closures"] >= loose["staleness_closures"]
            assert tight["total_idle_s"] <= loose["total_idle_s"] + 1e-9
    for quorum_k in QUORUMS:
        for staleness in STALENESS_BOUNDS:
            constant = by_key[("constant", quorum_k, staleness)]
            streamed = by_key[("event_streams", quorum_k, staleness)]
            # Both variants pay for chain finality; only the event-stream
            # one can queue (the constant fabric's endpoints are unbounded).
            assert streamed["chain_wait_s"] > 0.0
            assert constant["chain_wait_s"] > 0.0
            assert constant["network_queued_s"] == 0.0
    # Every configuration keeps accuracy in the same band: bounded staleness
    # trades waiting for freshness, not for model quality.
    accuracies = [row["mean_global_accuracy"] for row in rows]
    assert max(accuracies) - min(accuracies) < 0.25
