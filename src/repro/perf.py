"""Perf-trajectory harness behind ``repro bench``.

Runs a fixed grid of hot-path benchmarks and writes ``BENCH_sched.json`` at
the repository root, so every optimisation PR pins its claimed win as a
recorded {commit, events/sec, wall_s, peak RSS} point instead of a prose
claim — the measured dispatch-rate trajectory event-driven middleware
simulators justify their overhead numbers with.

The grid:

* ``sched_800`` — the headline number: an 800-cluster event-stream
  scheduler storm (least-loaded replica selection + per-cluster submission
  estimate + commit + totals read, the sync-mode hot loop) replayed through
  the optimized :class:`~repro.simnet.network.LinkScheduler` *and* the
  from-scratch :class:`~repro.simnet.reference.ReferenceLinkScheduler`.
  Both must produce bit-identical logs; the reference's rate is recorded as
  ``baseline`` and the ratio as ``speedup``.
* ``table3_event_stream`` — a small sync-mode Table-3-style experiment with
  event streams on, end to end through :class:`ExperimentRunner`.
* ``hierarchical_2site`` / ``gossip_2site`` — the two federation modes over
  a 2-site replicated topology.
* ``multikrum_40`` — one wide sync round's scoring: Multi-KRUM
  ``score_round`` (upper-triangle distance rows) against
  ``score_round_reference`` (the ``(n, n, D)`` difference tensor) for 40
  models of the ``SimpleCNN`` the repository benchmark trains.  The two
  score dicts must be equal; same ``baseline`` / ``speedup`` shape.
* ``cnn_step`` — the ML kernels at the shapes every run trains on: 200
  ``train_batch`` calls at batch 5 and 50 ``evaluate`` calls on 100 samples
  of the 8x8 ``SimpleCNN`` (fastest of three alternating passes), against
  a twin built on the loop ``_im2col_reference`` / ``_col2im_reference``
  oracles that ``tests/test_ml_layers.py`` keeps.  Weight bytes must be
  equal; same ``baseline`` / ``speedup`` shape, plus ``retained_kb`` — the
  array bytes the layers still hold after the last ``evaluate`` (0:
  evaluation mode stores nothing, and index tables are geometry, not
  batch data).
* ``sampled_100k`` — a population-sampled cross-device run (100k virtual
  clusters, cohort 128) plus a population-1000 control with the same
  cohort, each in its own subprocess so both legs report their own peak
  RSS; the ``rss_ratio`` between them pins the O(cohort) memory claim and
  ``rss_kb_per_cluster`` (peak minus post-import RSS, per materialised
  cluster) says what one cohort member costs.

Events counted: for ``sched_800`` every scheduler API call the workload
issues (backlog query, estimate, commit, totals read); for ``multikrum_40``
every model scored; for ``cnn_step`` every ``train_batch`` / ``evaluate``
call; for the experiment benchmarks every transfer committed on the
fabric's scheduler.  Peak RSS is ``ru_maxrss`` — a process-wide
high-water mark, so later benchmarks inherit earlier peaks (and a
subprocess its parent's, which is why ``sampled_100k`` runs first).

Use ``--quick`` for the CI smoke grid (same schema, smaller sizes) and
``--profile`` to print cProfile's top cumulative functions per experiment
benchmark.
"""

from __future__ import annotations

import json
import resource
import subprocess
import time
from typing import Dict, List, Optional, Tuple

#: schema 2 adds the ``sampled_100k`` benchmark: a population-sampled
#: cross-device run whose entry carries a ``baseline`` leg at population
#: 1000 (same cohort) and the ``rss_ratio`` between the two — the O(cohort)
#: peak-memory claim, pinned as a number.
SCHEMA_VERSION = 2

#: required keys of every benchmark entry (the CI bench job validates these).
BENCHMARK_KEYS = ("events", "wall_s", "events_per_sec", "peak_rss_kb")


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
        return out.stdout.strip()
    except Exception:
        return "unknown"


def _peak_rss_kb() -> int:
    # Linux reports KiB; macOS bytes.  The trajectory is recorded on Linux
    # CI, so normalise the common case and leave others as-is.
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# --------------------------------------------------------------- sched_800
def _sched_workload(scheduler, clusters: int, rounds: int, replicas: List[str]) -> int:
    """Replay a synthetic scheduler storm; returns the event count.

    Every cluster scores each replica by outstanding backlog + wire time
    (what :class:`~repro.sched.actors.NetworkActor` does), then estimates and
    commits an upload to the winner and reads the running totals.  That is
    not a run's traffic: in a run only an in-window *sync* submission is
    estimated and then uploaded at the same clock, and pulls — which are
    never estimated — make up 97 % or more of the placements; here every
    transfer is such a pair and there are no pulls.
    """
    capacity = {r: scheduler.capacity(r) for r in replicas}
    num_bytes = 25_000_000  # a ~25 MB model update
    events = 0
    for round_index in range(rounds):
        round_start = round_index * 30.0
        for c in range(clusters):
            name = f"c{c}"
            at = round_start + 0.01 * c
            best: Optional[Tuple[float, int]] = None
            for i, replica in enumerate(replicas):
                backlog = scheduler.outstanding_backlog(replica, at)
                wire = scheduler.network.transfer_time(name, replica, num_bytes)
                cost = backlog / capacity[replica] + wire
                events += 1
                if best is None or (cost, i) < best:
                    best = (cost, i)
            target = replicas[best[1]]
            scheduler.estimate(name, target, num_bytes, at)
            scheduler.transfer(name, target, num_bytes, at)
            _ = scheduler.total_queued_time
            _ = scheduler.total_wire_time
            events += 4
    return events


def _build_sched(scheduler_cls, clusters: int, replicas: int, capacity: int):
    from repro.simnet.network import NetworkLink, NetworkModel

    network = NetworkModel(default_link=NetworkLink(latency_s=0.005, bandwidth_bytes_per_s=100e6))
    names = [f"storage-{i}" for i in range(replicas)]
    return scheduler_cls(network, capacities={name: capacity for name in names}), names


def bench_sched_800(quick: bool = False) -> Dict[str, object]:
    """Optimized vs reference scheduler on the 800-cluster storm."""
    from repro.simnet.network import LinkScheduler
    from repro.simnet.reference import ReferenceLinkScheduler

    clusters = 200 if quick else 800
    rounds = 2 if quick else 5

    fast, replicas = _build_sched(LinkScheduler, clusters, 4, 4)
    start = time.perf_counter()
    events = _sched_workload(fast, clusters, rounds, replicas)
    wall = time.perf_counter() - start

    slow, replicas = _build_sched(ReferenceLinkScheduler, clusters, 4, 4)
    ref_start = time.perf_counter()
    ref_events = _sched_workload(slow, clusters, rounds, replicas)
    ref_wall = time.perf_counter() - ref_start

    if fast.log != slow.log:
        raise AssertionError("optimized and reference schedulers diverged on the bench workload")
    if events != ref_events:
        raise AssertionError("optimized and reference runs issued different event counts")

    return {
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
        "peak_rss_kb": _peak_rss_kb(),
        "baseline": {
            "wall_s": round(ref_wall, 4),
            "events_per_sec": round(ref_events / ref_wall, 1),
        },
        "speedup": round(ref_wall / wall, 2),
        "params": {"clusters": clusters, "rounds": rounds, "replicas": 4, "capacity": 4},
    }


# ------------------------------------------------------------ multikrum_40
def bench_multikrum_40(quick: bool = False) -> Dict[str, object]:
    """Triangular Multi-KRUM scoring vs its ``(n, n, D)`` tensor oracle.

    ``peak_rss_kb`` is read after the optimised pass and before the
    reference one, whose two 75 MB temporaries would otherwise own the
    process high-water mark; the reference's own peak is kept under
    ``baseline``.
    """
    import numpy as np

    from repro.core.scorer import MultiKRUMScorer
    from repro.ml.models import SimpleCNN

    models = 40
    repeats = 3 if quick else 20
    rng = np.random.default_rng(0)
    template = SimpleCNN(image_size=8, seed=0).get_weights()
    round_weights = {
        f"cid{i:03d}": [w + 0.05 * rng.standard_normal(w.shape) for w in template]
        for i in range(models)
    }
    scorer = MultiKRUMScorer()

    start = time.perf_counter()
    for _ in range(repeats):
        scores = scorer.score_round(round_weights)
    wall = time.perf_counter() - start
    peak_rss_kb = _peak_rss_kb()

    ref_start = time.perf_counter()
    for _ in range(repeats):
        ref_scores = scorer.score_round_reference(round_weights)
    ref_wall = time.perf_counter() - ref_start

    if scores != ref_scores:
        raise AssertionError("triangular and reference Multi-KRUM scores diverged")

    events = repeats * models
    return {
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
        "peak_rss_kb": peak_rss_kb,
        "baseline": {
            "wall_s": round(ref_wall, 4),
            "events_per_sec": round(events / ref_wall, 1),
            "peak_rss_kb": _peak_rss_kb(),
        },
        "speedup": round(ref_wall / wall, 2),
        "params": {
            "models": models,
            "parameters": sum(int(w.size) for w in template),
            "repeats": repeats,
        },
    }


# ---------------------------------------------------------------- cnn_step
#: Private layer attributes that hold no batch data: ``Conv2d`` /
#: ``MaxPool2d`` index tables are a function of the input geometry alone.
GEOMETRY_ATTRIBUTES = frozenset({"_index_tables"})


def retained_cache_bytes(network) -> int:
    """Array bytes reachable from the private state of ``network``'s layers.

    That is what the forward caches hold (im2col matrices, argmax indices,
    masks, inputs); weights and gradients are public attributes and not
    counted, and neither are the :data:`GEOMETRY_ATTRIBUTES`, excluded by
    name — every other private container, dicts included, is counted.
    """
    import numpy as np

    def array_bytes(value) -> int:
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (tuple, list)):
            return sum(array_bytes(item) for item in value)
        return 0

    return sum(  # detlint: ignore[DET003]  (integers: order-exact)
        array_bytes(value)
        for layer in network.layers
        for name, value in vars(layer).items()
        if name.startswith("_") and name not in GEOMETRY_ATTRIBUTES
    )


def _load_kernel_oracles():
    """``tests/test_ml_layers.py`` of this checkout, which keeps the loop kernels.

    The oracles are test code, not part of the package: nothing the
    simulator runs can reach them, and the bench needs a checkout anyway
    (it records the commit and writes ``BENCH_sched.json`` at its root).
    """
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "tests" / "test_ml_layers.py"
    spec = importlib.util.spec_from_file_location("repro_kernel_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_cnn_step(quick: bool = False) -> Dict[str, object]:
    """Index-table ``SimpleCNN`` steps vs the loop-kernel oracle twin."""
    import numpy as np

    from repro.ml.models import SimpleCNN
    from repro.ml.optim import SGD

    oracles = _load_kernel_oracles()
    train_steps = 40 if quick else 200
    evaluations = 10 if quick else 50
    rng = np.random.default_rng(0)
    batches = [
        (rng.normal(size=(5, 3, 8, 8)), rng.integers(0, 10, size=5)) for _ in range(train_steps)
    ]
    eval_x, eval_y = rng.normal(size=(100, 3, 8, 8)), rng.integers(0, 10, size=100)

    def steps(model) -> float:
        optimizer = SGD(learning_rate=0.05)
        start = time.perf_counter()
        for x, y in batches:
            model.train_batch(x, y, optimizer)
        for _ in range(evaluations):
            model.evaluate(eval_x, eval_y)
        return time.perf_counter() - start

    model = SimpleCNN(image_size=8, seed=0)
    twin = oracles.reference_twin(model)
    # A pass is a quarter of a second, the size of this host's scheduling
    # noise: alternate the two sides and keep each one's fastest pass.
    passes = [(steps(model), steps(twin)) for _ in range(3)]
    wall = min(own for own, _ in passes)
    ref_wall = min(ref for _, ref in passes)
    if oracles.weight_bytes(model) != oracles.weight_bytes(twin):
        raise AssertionError("index-table and loop-kernel training diverged")

    events = train_steps + evaluations
    return {
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
        "peak_rss_kb": _peak_rss_kb(),
        "retained_kb": round(retained_cache_bytes(model.network) / 1024, 1),
        "baseline": {
            "wall_s": round(ref_wall, 4),
            "events_per_sec": round(events / ref_wall, 1),
            "retained_kb": round(retained_cache_bytes(twin.network) / 1024, 1),
        },
        "speedup": round(ref_wall / wall, 2),
        "params": {
            "train_steps": train_steps,
            "batch_size": 5,
            "evaluations": evaluations,
            "eval_samples": 100,
            "passes": 3,
        },
    }


# ------------------------------------------------------------- experiments
def _experiment_config(name: str, mode: str, quick: bool, **overrides):
    from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs

    rounds = 1 if quick else 2
    clusters = 2 if quick else 3
    workload = cifar10_workload(rounds=rounds, samples_per_class=8, image_size=8)
    kwargs = dict(
        name=name,
        workload=workload,
        clusters=gpu_cluster_configs(num_clusters=clusters, num_clients=2),
        mode=mode,
        rounds=rounds,
        seed=0,
        event_streams=True,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _bench_experiment(config, profile: bool = False) -> Dict[str, object]:
    from repro.core.runner import ExperimentRunner

    runner = ExperimentRunner(config)
    runner.build()
    start = time.perf_counter()
    if profile:
        _, report = runner.run_profiled()
        print(report)
    else:
        runner.run()
    wall = time.perf_counter() - start
    events = len(runner.comm.network.scheduler.log)
    if runner.chain is not None:
        events += int(runner.chain.metrics.as_dict().get("transactions_processed", 0))
    return {
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "peak_rss_kb": _peak_rss_kb(),
        "params": {"mode": config.mode, "clusters": len(config.clusters), "rounds": config.rounds},
    }


def bench_table3(quick: bool = False, profile: bool = False) -> Dict[str, object]:
    """Sync-mode Table-3-style run with event streams (the new default)."""
    return _bench_experiment(_experiment_config("bench-table3", "sync", quick), profile)


def bench_hierarchical_2site(quick: bool = False, profile: bool = False) -> Dict[str, object]:
    """Hierarchical federation over a 2-site replicated topology."""
    config = _experiment_config(
        "bench-hier", "hierarchical", quick,
        storage_replicas=2, replica_capacity=2, local_rounds_per_global=2,
    )
    return _bench_experiment(config, profile)


def bench_gossip_2site(quick: bool = False, profile: bool = False) -> Dict[str, object]:
    """Gossip federation over a 2-site replicated topology."""
    config = _experiment_config(
        "bench-gossip", "gossip", quick,
        storage_replicas=2, replica_capacity=2, gossip_fanout=1,
    )
    return _bench_experiment(config, profile)


# ------------------------------------------------------------ sampled scale
_SAMPLED_LEG_SCRIPT = """\
import json, resource, sys, time
from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
from repro.core.runner import ExperimentRunner

import_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
population, cohort, rounds = (int(a) for a in sys.argv[1:4])
config = ExperimentConfig(
    name=f"bench-sampled-{population}",
    workload=cifar10_workload(rounds=rounds, samples_per_class=8, image_size=8),
    clusters=gpu_cluster_configs(num_clusters=3, num_clients=2),
    mode="sync",
    rounds=rounds,
    seed=0,
    event_streams=True,
    storage_replicas=2,
    population=population,
    clients_per_round=cohort,
)
runner = ExperimentRunner(config)
runner.build()
start = time.perf_counter()
result = runner.run()
wall = time.perf_counter() - start
events = len(runner.comm.network.scheduler.log)
if runner.chain is not None:
    events += int(runner.chain.metrics.as_dict().get("transactions_processed", 0))
print(json.dumps({
    "events": events,
    "wall_s": round(wall, 4),
    "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    "import_rss_kb": import_rss_kb,
    "materialized_clusters": result.sampling.get("materialized_clusters", 0.0),
}))
"""


def _run_sampled_leg(population: int, cohort: int, rounds: int) -> Dict[str, object]:
    """One sampled run in a fresh interpreter, for a per-leg ``ru_maxrss``.

    ``ru_maxrss`` is a process-wide high-water mark, so legs sharing the
    bench process would inherit each other's peaks and the O(cohort) memory
    claim could never be measured.  Each leg therefore runs in a
    subprocess that reports its own peak.
    """
    import os
    import sys
    from pathlib import Path

    src_root = str(Path(__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _SAMPLED_LEG_SCRIPT, str(population), str(cohort), str(rounds)],
        capture_output=True,
        text=True,
        check=True,
        timeout=1800,
        env=env,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def bench_sampled_100k(quick: bool = False) -> Dict[str, object]:
    """Population-sampled cross-device run: 100k virtual clusters, cohort 128.

    Two subprocess legs: the headline population and a population-1000
    control with the *same* cohort.  Peak memory is O(cohort), so the legs'
    RSS ratio should sit near 1 — it is recorded as ``rss_ratio`` and CI
    asserts it stays under 2.  ``rss_kb_per_cluster`` is what the headline
    leg's peak adds over its post-import RSS, per materialised cluster.
    """
    population = 10_000 if quick else 100_000
    cohort = 32 if quick else 128
    rounds = 2
    leg = _run_sampled_leg(population, cohort, rounds)
    control = _run_sampled_leg(1_000, cohort, rounds)
    wall = float(leg["wall_s"])
    return {
        "events": leg["events"],
        "wall_s": wall,
        "events_per_sec": round(leg["events"] / wall, 1) if wall > 0 else 0.0,
        "peak_rss_kb": leg["peak_rss_kb"],
        "materialized_clusters": leg["materialized_clusters"],
        "baseline": {
            "population": 1_000,
            "wall_s": control["wall_s"],
            "peak_rss_kb": control["peak_rss_kb"],
        },
        "rss_ratio": round(leg["peak_rss_kb"] / control["peak_rss_kb"], 3),
        "rss_kb_per_cluster": round(
            (leg["peak_rss_kb"] - leg["import_rss_kb"]) / leg["materialized_clusters"], 1
        ),
        "params": {"population": population, "clients_per_round": cohort, "rounds": rounds},
    }


# ------------------------------------------------------------------ driver
def run_benchmarks(quick: bool = False, profile: bool = False) -> Dict[str, object]:
    """Run the fixed grid and return the BENCH document."""
    benchmarks: Dict[str, Dict[str, object]] = {}
    # First: ``ru_maxrss`` survives fork + exec, so a leg subprocess starts
    # from this process's high-water mark.  Before anything has run that is
    # below a leg's own import footprint; after ``multikrum_40`` it would be
    # a 190 MB floor under both legs' peaks and their post-import baseline.
    benchmarks["sampled_100k"] = bench_sampled_100k(quick=quick)
    benchmarks["sched_800"] = bench_sched_800(quick=quick)
    benchmarks["table3_event_stream"] = bench_table3(quick=quick, profile=profile)
    benchmarks["hierarchical_2site"] = bench_hierarchical_2site(quick=quick, profile=profile)
    benchmarks["gossip_2site"] = bench_gossip_2site(quick=quick, profile=profile)
    # After the experiment entries: its reference pass raises the process
    # high-water mark every later in-process ``peak_rss_kb`` would inherit.
    benchmarks["multikrum_40"] = bench_multikrum_40(quick=quick)
    benchmarks["cnn_step"] = bench_cnn_step(quick=quick)
    return {
        "schema_version": SCHEMA_VERSION,
        "commit": _git_commit(),
        "quick": quick,
        "benchmarks": benchmarks,
    }


def validate_document(document: Dict[str, object]) -> List[str]:
    """Schema check used by the CI bench job; returns a list of problems."""
    problems: List[str] = []
    for key in ("schema_version", "commit", "quick", "benchmarks"):
        if key not in document:
            problems.append(f"missing top-level key '{key}'")
    for name, entry in (document.get("benchmarks") or {}).items():
        for key in BENCHMARK_KEYS:
            if key not in entry:
                problems.append(f"benchmark '{name}' missing key '{key}'")
            elif not isinstance(entry[key], (int, float)):
                problems.append(f"benchmark '{name}' key '{key}' is not numeric")
    version = document.get("schema_version")
    if version is not None and version not in (1, SCHEMA_VERSION):
        problems.append(f"unsupported schema version {version!r}")
    required = {
        "sched_800": ("speedup",),
        "multikrum_40": ("speedup",),
        "cnn_step": ("speedup", "retained_kb"),
        "sampled_100k": ("rss_ratio", "rss_kb_per_cluster"),
    }
    for name, keys in required.items():
        entry = (document.get("benchmarks") or {}).get(name)
        if entry is None:
            continue
        for key in keys:
            if key not in entry:
                problems.append(f"benchmark '{name}' missing key '{key}'")
            elif not isinstance(entry[key], (int, float)):
                problems.append(f"benchmark '{name}' key '{key}' is not numeric")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``repro bench`` and ``benchmarks/perf_trajectory.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench", description="run the perf-trajectory benchmark grid"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke grid: same benchmarks and schema, smaller sizes",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print cProfile top cumulative functions for each experiment benchmark",
    )
    parser.add_argument(
        "--out", default="BENCH_sched.json",
        help="output path for the BENCH document (default: BENCH_sched.json)",
    )
    args = parser.parse_args(argv)

    document = run_benchmarks(quick=args.quick, profile=args.profile)
    problems = validate_document(document)
    if problems:
        for problem in problems:
            print(f"schema problem: {problem}")
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, entry in document["benchmarks"].items():
        line = f"{name:<24}{entry['events']:>10} events  {entry['wall_s']:>9.3f} s  {entry['events_per_sec']:>12.1f} ev/s"
        if "speedup" in entry:
            line += f"  ({entry['speedup']:.2f}x vs reference)"
        if "retained_kb" in entry:
            line += f"  retained {entry['retained_kb']:.1f} KiB (reference {entry['baseline']['retained_kb']:.1f})"
        if "rss_kb_per_cluster" in entry:
            line += f"  {entry['rss_kb_per_cluster']:.1f} KiB RSS/cluster"
        print(line)
    print(f"BENCH document written to {args.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
