"""Scalability of the discrete-event scheduling engine with federation size.

The original async orchestration loop re-scanned every aggregator on every
step to find the one with the smallest simulated clock — O(n) per step, so
O(n^2 * r) for n clusters running r rounds.  The heap-backed kernel pops the
earliest event in O(log n).  This benchmark drives both schedulers over an
identical synthetic federation (timing only, no ML) and checks that

1. they produce exactly the same activation order, and
2. the kernel scales: on a federation far larger than the paper's testbeds
   the heap dispatches the same schedule faster than the scan.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.sched.kernel import SimulationKernel
from repro.simnet.clock import SimClock

#: deliberately larger than the paper's 3-4 cluster testbeds.
NUM_CLUSTERS = 800
ROUNDS = 5


def _durations(index: int, rounds: int):
    """Deterministic heterogeneous per-round durations for a synthetic cluster."""
    base = 40.0 + (index * 37 % 997) / 10.0
    return [base * (1.0 + 0.01 * ((index * 7 + r * 11) % 13 - 6)) for r in range(rounds)]


def _make_federation(num_clusters: int, rounds: int):
    return {
        f"agg{i:04d}": {"clock": SimClock(), "durations": _durations(i, rounds)}
        for i in range(num_clusters)
    }


def run_with_scan(num_clusters: int, rounds: int):
    """The pre-refactor algorithm: rescan all runnable clusters every step."""
    clusters = _make_federation(num_clusters, rounds)
    rounds_done = {name: 0 for name in clusters}
    trace = []
    while True:
        runnable = [name for name in clusters if rounds_done[name] < rounds]
        if not runnable:
            break
        name = min(runnable, key=lambda n: (clusters[n]["clock"].now(), n))
        state = clusters[name]
        trace.append((name, state["clock"].now()))
        state["clock"].advance(state["durations"][rounds_done[name]])
        rounds_done[name] += 1
    return trace


def run_with_kernel(num_clusters: int, rounds: int):
    """The same schedule expressed as events on the heap-backed kernel."""
    clusters = _make_federation(num_clusters, rounds)
    rounds_done = {name: 0 for name in clusters}
    kernel = SimulationKernel()
    trace = []

    def activate(name: str) -> None:
        state = clusters[name]
        trace.append((name, state["clock"].now()))
        state["clock"].advance(state["durations"][rounds_done[name]])
        rounds_done[name] += 1
        if rounds_done[name] < rounds:
            kernel.schedule_at(state["clock"].now(), lambda: activate(name), key=name)

    for name, state in clusters.items():
        kernel.schedule_at(state["clock"].now(), lambda n=name: activate(n), key=name)
    kernel.run()
    return trace


def test_scheduler_scales_past_the_paper_testbeds(benchmark, report):
    # Correctness first, at a size where the scan is still cheap: identical
    # activation order, event for event.
    assert run_with_kernel(50, 3) == run_with_scan(50, 3)

    def run():
        start = time.perf_counter()
        scan_trace = run_with_scan(NUM_CLUSTERS, ROUNDS)
        scan_seconds = time.perf_counter() - start
        # Best of three so a scheduling hiccup on a shared CI runner cannot
        # inflate the (milliseconds-scale) kernel measurement past the scan.
        kernel_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            kernel_trace = run_with_kernel(NUM_CLUSTERS, ROUNDS)
            kernel_seconds = min(kernel_seconds, time.perf_counter() - start)
        return scan_trace, scan_seconds, kernel_trace, kernel_seconds

    scan_trace, scan_seconds, kernel_trace, kernel_seconds = run_once(benchmark, run)

    events = NUM_CLUSTERS * ROUNDS
    lines = [
        f"Scheduler scalability — {NUM_CLUSTERS} clusters x {ROUNDS} rounds ({events} activations)",
        f"{'Scheduler':<28}{'Complexity':>16}{'Wall time (s)':>16}",
        "-" * 60,
        f"{'Per-step scan (pre-refactor)':<28}{'O(n) / step':>16}{scan_seconds:>16.3f}",
        f"{'Event-queue kernel':<28}{'O(log n) / step':>16}{kernel_seconds:>16.3f}",
        f"\nSpeedup: {scan_seconds / max(kernel_seconds, 1e-9):.1f}x at n={NUM_CLUSTERS}",
    ]
    report("\n".join(lines))

    assert kernel_trace == scan_trace
    assert len(kernel_trace) == events
    # The heap must beat the O(n)-per-step scan at this federation size.
    assert kernel_seconds < scan_seconds


def test_sampled_population_materialises_only_cohorts(benchmark, report):
    """Cross-device sampling: a 10k-client federation touches O(cohort) state.

    It runs one sampled experiment end to end and asserts the lazy cluster
    factory materialised only the sampled cohorts, not the population.  The
    memory half of the claim — peak per materialised cluster flat from
    population 1 000 to 100 000 — is
    ``tests/test_sampling_scale.py::TestSampledExperiments``'s traced-peak
    guard; the 100k-population timing is ``bench/run.py``'s
    ``sampled_cohort`` workload.
    """
    from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
    from repro.core.runner import ExperimentRunner

    population, cohort, rounds = 10_000, 32, 2

    def run():
        config = ExperimentConfig(
            name="bench-sampled-10k",
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
        return result, runner, wall, events

    result, runner, wall, events = run_once(benchmark, run)

    materialized = int(result.sampling["materialized_clusters"])
    lines = [
        f"Sampled federation — population {population}, cohort {cohort} x {rounds} rounds",
        f"materialised clusters: {materialized} (population {population})",
        f"fabric events: {events} in {wall:.3f} s ({events / max(wall, 1e-9):.1f} ev/s)",
    ]
    report("\n".join(lines))

    # The population never materialises: at most one cohort per round did.
    assert materialized <= cohort * rounds
    assert materialized < population // 10
    assert len(runner.aggregators) == materialized
    assert result.sampling["population"] == float(population)
    assert result.sampling["clients_per_round"] == float(cohort)
