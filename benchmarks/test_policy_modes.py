"""Benchmark — 4-way orchestration-mode comparison on a fixed seed.

The round-policy registry makes orchestration modes pluggable; this
benchmark puts the four interesting ones side by side on identical data and
topology: **sync** (lock-step phases), **semi** (quorum/staleness bounded),
**hierarchical** (per-site local rounds, one leader submission per site per
global round) and **gossip** (barrier-free seeded peer exchanges).

All four run with event streams on over a 2-site replicated storage
topology, so the comparison surfaces the *wire* consequences of each
structure: sync pushes every cluster's model cross-site every round, while
hierarchical only ships one leader model per site — its WAN byte count must
come in at or below sync's.  The grid lands in
``benchmarks/out/policy_modes.json`` for plotting.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import edge_experiment, run_once
from repro.core.runner import run_experiment
from repro.sched.metrics import flat_row

#: where the comparison's machine-readable results land.
OUTPUT_PATH = Path(__file__).parent / "out" / "policy_modes.json"

MODES = ("sync", "semi", "hierarchical", "gossip")
ROUNDS = 3
SEED = 4
SITES = 2


def test_policy_mode_comparison(benchmark, report):
    def run():
        results = {}
        for mode in MODES:
            results[mode] = run_experiment(
                edge_experiment(
                    f"modes-{mode}",
                    mode=mode,
                    rounds=ROUNDS,
                    seed=SEED,
                    event_streams=True,
                    storage_replicas=SITES,
                    replication_mode="eager",
                )
            )
        return results

    results = run_once(benchmark, run)

    rows = []
    for mode, result in results.items():
        rows.append(
            {
                "mode": mode,
                "mean_global_accuracy": result.mean_global_accuracy,
                "makespan_s": result.max_total_time,
                "total_idle_s": sum(a.idle_time for a in result.aggregators),
                **flat_row(
                    result.comm_metrics,
                    [
                        "wan_bytes",
                        "upload_count",
                        "exchange_count",
                        "replication_count",
                        "chain_ops",
                        "network_queued",
                        "chain_wait",
                    ],
                ),
            }
        )

    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(rows, indent=2), encoding="utf-8")

    lines = [f"Policy-mode comparison — {SITES} sites, {ROUNDS} rounds, seed {SEED}"]
    lines.append(
        f"{'mode':>14}{'acc %':>8}{'makespan':>10}{'idle':>8}{'WAN MB':>9}"
        f"{'uploads':>9}{'exchanges':>11}{'chain ops':>11}"
    )
    lines.append("-" * 80)
    for row in rows:
        lines.append(
            f"{row['mode']:>14}{row['mean_global_accuracy'] * 100:>8.2f}"
            f"{row['makespan_s']:>10.0f}{row['total_idle_s']:>8.0f}"
            f"{row['wan_bytes'] / 1e6:>9.2f}{row['upload_count']:>9.0f}"
            f"{row['exchange_count']:>11.0f}{row['chain_ops']:>11.0f}"
        )
    lines.append(f"(written to {OUTPUT_PATH})")
    report("\n".join(lines))

    by_mode = {row["mode"]: row for row in rows}
    # The headline claim: with >= 2 sites, hierarchical's thin global tier
    # moves no more WAN bytes than sync's everyone-submits-every-round —
    # only one leader model per site crosses the WAN per global round.
    assert by_mode["hierarchical"]["wan_bytes"] <= by_mode["sync"]["wan_bytes"]
    # Structural counters: sync uploads one model per cluster per round
    # (minus stragglers), hierarchical exactly one per site per round.
    assert by_mode["hierarchical"]["upload_count"] == SITES * ROUNDS
    assert by_mode["hierarchical"]["upload_count"] < by_mode["sync"]["upload_count"] + 1
    # Only the peer-exchange modes move exchange traffic.
    assert by_mode["sync"]["exchange_count"] == 0
    assert by_mode["semi"]["exchange_count"] == 0
    assert by_mode["hierarchical"]["exchange_count"] > 0
    # Gossip has no barrier: its clusters idle less than lock-step sync.
    assert by_mode["gossip"]["total_idle_s"] <= by_mode["sync"]["total_idle_s"]
    # Every mode learns something on the shared data (no mode collapses).
    for row in rows:
        assert 0.0 <= row["mean_global_accuracy"] <= 1.0
