"""Figure-style benchmark — replication-policy sweep (mode × replica count).

ROADMAP item "replication is not free": with several storage sites, *how* an
uploaded model reaches the other replicas is a real policy choice with a real
WAN bill.  This sweep runs an otherwise identical contended workload (six GPU
clusters on a throttled LAN, slow WAN between sites) over every
``replication_mode`` × replica count and reports the federation makespan, the
propagation traffic (wire seconds and transfer count) and the download
queueing — the read-your-writes waits included.

The interesting comparison is eager vs lazy: eager pays the full propagation
bill up front but off the consumers' critical path, lazy moves only what is
actually read but makes the first remote consumer wait behind the fetch.
With every model pulled by remote peers (this workload), eager's makespan
catches up with or beats lazy as soon as there is more than one site, while
lazy never moves more bytes than eager — the crossover the middleware
literature predicts for distribution-dominated deployments.

The full grid is written to ``benchmarks/out/replication_sweep.json`` so the
numbers can be plotted without re-running the sweep.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import run_once
from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
from repro.core.runner import run_experiment
from repro.sched.metrics import flat_row

#: where the sweep's machine-readable results land.
OUTPUT_PATH = Path(__file__).parent / "out" / "replication_sweep.json"

MODES = ("eager", "lazy", "none")
REPLICA_COUNTS = (1, 2, 3)
ROUNDS = 2
CLUSTERS = 6
#: megabytes per simulated second — LAN throttled far below the GPU profile's
#: 125 MB/s so submissions genuinely contend.
LINK_BANDWIDTH = 0.05
#: slow inter-site WAN: each ~248 KB model costs ~5 s to propagate, so the
#: placement of that cost (background push vs on-demand fetch) is visible in
#: the makespan.
WAN_BANDWIDTH = 0.05
WAN_LATENCY = 0.2


def replication_experiment(mode: str, replicas: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"repl-{mode}-r{replicas}",
        workload=cifar10_workload(rounds=ROUNDS, samples_per_class=10, image_size=8, learning_rate=0.05),
        clusters=gpu_cluster_configs(num_clusters=CLUSTERS, num_clients=2),
        mode="async",
        rounds=ROUNDS,
        seed=4,
        event_streams=True,
        link_bandwidth_mbytes_per_s=LINK_BANDWIDTH,
        storage_replicas=replicas,
        replication_mode=mode,
        wan_bandwidth_mbytes_per_s=WAN_BANDWIDTH,
        wan_latency_s=WAN_LATENCY,
    )


def test_replication_mode_sweep(benchmark, report):
    def run():
        return {
            (mode, replicas): run_experiment(replication_experiment(mode, replicas))
            for mode in MODES
            for replicas in REPLICA_COUNTS
        }

    grid = run_once(benchmark, run)

    rows = []
    for (mode, replicas), result in grid.items():
        rows.append(
            {
                "replication_mode": mode,
                "storage_replicas": replicas,
                "makespan_s": result.max_total_time,
                **flat_row(
                    result.comm_metrics,
                    [
                        "replication_count",
                        "replication_time",
                        "replication_queued",
                        "download_queued",
                        "network_queued",
                        "upload_count",
                    ],
                ),
            }
        )

    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(json.dumps(rows, indent=2), encoding="utf-8")

    lines = ["Replication sweep — makespan/propagation vs mode × storage replicas"]
    lines.append(
        f"{'mode':>7}{'replicas':>9}{'makespan':>10}{'repl xfers':>11}"
        f"{'repl wire':>10}{'dl queued':>10}"
    )
    lines.append("-" * 60)
    for row in rows:
        lines.append(
            f"{row['replication_mode']:>7}{row['storage_replicas']:>9}"
            f"{row['makespan_s']:>10.0f}{row['replication_count']:>11.0f}"
            f"{row['replication_time_s']:>10.1f}{row['download_queued_s']:>10.1f}"
        )
    lines.append(f"(written to {OUTPUT_PATH})")
    report("\n".join(lines))

    by_key = {(r["replication_mode"], r["storage_replicas"]): r for r in rows}

    # With one replica there is nothing to replicate: the three modes are
    # bit-identical and no propagation traffic flows.
    for mode in MODES:
        row = by_key[(mode, 1)]
        assert row["replication_count"] == 0
        assert row["makespan_s"] == by_key[("eager", 1)]["makespan_s"]

    for replicas in REPLICA_COUNTS[1:]:
        eager = by_key[("eager", replicas)]
        lazy = by_key[("lazy", replicas)]
        none = by_key[("none", replicas)]
        # Eager pushes every upload to every peer site — the full bill.
        assert eager["replication_count"] == eager["upload_count"] * (replicas - 1)
        assert eager["replication_time_s"] > 0
        # Lazy moves at most what eager moves (one fetch per object and
        # non-origin site, and only when somebody actually reads it there).
        assert 0 < lazy["replication_count"] <= eager["replication_count"]
        # None never propagates anything, in exchange for origin-pinned reads.
        assert none["replication_count"] == 0
        # The crossover: every model here is read remotely, so paying the WAN
        # bill up front and off the critical path beats paying it on demand.
        assert eager["makespan_s"] <= lazy["makespan_s"]
        # Lazy's on-demand fetches sit in the downloaders' critical path as
        # availability-gate queueing eager mostly hides in the background.
        assert lazy["download_queued_s"] > 0
