"""Tests for the perf-trajectory harness.

The CI ``bench`` job runs ``repro bench --quick`` and validates the written
document with :func:`repro.perf.validate_document`; these tests pin that
contract (schema keys, scheduler equivalence inside the benchmark, CLI
wiring) plus the counters of the aggregator's weights LRU.
"""

from __future__ import annotations

import json

from repro import perf
from repro.cli import build_parser


class TestBenchHarness:
    def test_quick_sched_benchmark_matches_reference(self):
        entry = perf.bench_sched_800(quick=True)
        for key in perf.BENCHMARK_KEYS:
            assert key in entry
        # The benchmark itself asserts bit-identical logs; the reference
        # must never be *faster* by more than noise.
        assert entry["speedup"] > 0.5
        assert entry["events"] > 0

    def test_quick_multikrum_benchmark_matches_reference(self):
        entry = perf.bench_multikrum_40(quick=True)
        for key in perf.BENCHMARK_KEYS:
            assert key in entry
        # The benchmark itself asserts equal score dicts; the tensor oracle
        # must never be *faster* by more than noise.
        assert entry["speedup"] > 0.5
        assert entry["baseline"]["wall_s"] > 0
        assert entry["params"] == {"models": 40, "parameters": 5858, "repeats": 3}

    def test_quick_cnn_step_benchmark_matches_the_loop_oracles(self):
        entry = perf.bench_cnn_step(quick=True)
        for key in perf.BENCHMARK_KEYS:
            assert key in entry
        # The benchmark itself asserts equal weight bytes.  No speed-up
        # floor here: under a multi-threaded BLAS either side can lose tens
        # of milliseconds to thread wake-ups.
        assert entry["speedup"] > 0
        assert entry["retained_kb"] == 0.0
        assert entry["baseline"]["retained_kb"] > 2000
        assert entry["params"] == {
            "train_steps": 40, "batch_size": 5, "evaluations": 10, "eval_samples": 100,
            "passes": 3,
        }

    def test_document_schema_roundtrip(self, tmp_path):
        document = {
            "schema_version": perf.SCHEMA_VERSION,
            "commit": "abc",
            "quick": True,
            "benchmarks": {
                "sched_800": {
                    "events": 10, "wall_s": 0.1, "events_per_sec": 100.0,
                    "peak_rss_kb": 1, "speedup": 2.0,
                },
                "multikrum_40": {
                    "events": 120, "wall_s": 0.1, "events_per_sec": 1200.0,
                    "peak_rss_kb": 1, "speedup": 5.0, "baseline": {"wall_s": 0.5},
                },
                "cnn_step": {
                    "events": 250, "wall_s": 0.1, "events_per_sec": 2500.0,
                    "peak_rss_kb": 1, "speedup": 1.4, "retained_kb": 0.0,
                },
                "sampled_100k": {
                    "events": 900, "wall_s": 2.0, "events_per_sec": 450.0,
                    "peak_rss_kb": 1, "rss_ratio": 1.0, "rss_kb_per_cluster": 300.0,
                },
            },
        }
        assert perf.validate_document(document) == []
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert perf.validate_document(json.loads(path.read_text())) == []

    def test_validator_reports_missing_keys(self):
        problems = perf.validate_document({"benchmarks": {"sched_800": {"events": 1}}})
        assert any("wall_s" in p for p in problems)
        assert any("schema_version" in p for p in problems)
        assert any("speedup" in p for p in problems)
        entry = {"events": 1, "wall_s": 0.1, "events_per_sec": 10.0, "peak_rss_kb": 1}
        problems = perf.validate_document({"benchmarks": {"multikrum_40": entry}})
        assert "benchmark 'multikrum_40' missing key 'speedup'" in problems
        problems = perf.validate_document({"benchmarks": {"cnn_step": entry, "sampled_100k": entry}})
        for name, key in [
            ("cnn_step", "speedup"),
            ("cnn_step", "retained_kb"),
            ("sampled_100k", "rss_ratio"),
            ("sampled_100k", "rss_kb_per_cluster"),
        ]:
            assert f"benchmark '{name}' missing key '{key}'" in problems
        problems = perf.validate_document(
            {"benchmarks": {"sampled_100k": dict(entry, rss_ratio=1.0, rss_kb_per_cluster="n/a")}}
        )
        assert "benchmark 'sampled_100k' key 'rss_kb_per_cluster' is not numeric" in problems

    def test_cli_has_bench_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--quick", "--out", "x.json"])
        assert args.command == "bench"
        assert args.quick is True
        assert args.out == "x.json"
        run_args = parser.parse_args(["run", "--profile"])
        assert run_args.profile is True


def test_weights_cache_counters_surface_in_extras():
    from repro.core.config import ExperimentConfig, cifar10_workload, edge_cluster_configs
    from repro.core.runner import run_experiment

    config = ExperimentConfig(
        name="lru-extras",
        workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
        clusters=edge_cluster_configs(num_clients=2),
        mode="async",
        rounds=2,
        seed=1,
        event_streams=False,
    )
    result = run_experiment(config)
    extras = result.orchestration_extras
    assert "weights_cache_hits" in extras
    assert "weights_cache_evictions" in extras
    assert extras["weights_cache_hits"] >= 0
    assert extras["weights_cache_evictions"] == 0  # tiny run: nothing evicted
