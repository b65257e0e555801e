"""Tests for result export (JSON/CSV) and the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.config import ExperimentConfig, cifar10_workload, edge_cluster_configs
from repro.core.reporting import (
    load_result_json,
    load_results_csv,
    result_to_dict,
    save_result_json,
    save_results_csv,
)
from repro.core.runner import run_experiment


@pytest.fixture(scope="module")
def small_result():
    config = ExperimentConfig(
        name="report-test",
        workload=cifar10_workload(rounds=2, samples_per_class=12, image_size=8),
        clusters=edge_cluster_configs(num_clients=2),
        mode="sync",
        partitioning="iid",
        rounds=2,
        seed=13,
        # The CSV tests assert the constant-cost reporting shape (numeric
        # zero queueing columns), so opt out of the event-stream default.
        event_streams=False,
    )
    return run_experiment(config)


class TestJSONExport:
    def test_dict_contains_all_sections(self, small_result):
        document = result_to_dict(small_result)
        assert document["name"] == "report-test"
        assert len(document["aggregators"]) == 3
        assert document["chain_metrics"]["blocks_mined"] > 0
        assert "geth" in document["resource_reports"]
        assert len(document["aggregators"][0]["history"]) == 2

    def test_save_and_load_round_trip(self, small_result, tmp_path):
        path = save_result_json(small_result, tmp_path / "nested" / "result.json")
        assert path.exists()
        document = load_result_json(path)
        assert document["rounds"] == 2
        assert document["aggregators"][0]["name"] == "agg1"

    def test_document_is_plain_json(self, small_result, tmp_path):
        path = save_result_json(small_result, tmp_path / "result.json")
        with open(path, encoding="utf-8") as handle:
            parsed = json.load(handle)
        assert isinstance(parsed, dict)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999}), encoding="utf-8")
        with pytest.raises(ValueError):
            load_result_json(path)


class TestCSVExport:
    def test_one_row_per_aggregator(self, small_result, tmp_path):
        path = save_results_csv([small_result, small_result], tmp_path / "rows.csv")
        rows = load_results_csv(path)
        assert len(rows) == 6
        assert rows[0]["aggregator"] == "agg1"
        assert 0.0 <= float(rows[0]["global_accuracy"]) <= 1.0

    def test_columns_are_stable(self, small_result, tmp_path):
        path = save_results_csv([small_result], tmp_path / "rows.csv")
        rows = load_results_csv(path)
        expected = {
            "experiment", "mode", "partitioning", "scoring_algorithm", "rounds",
            "aggregator", "policy", "strategy", "total_time", "idle_time",
            "straggler_count", "global_accuracy", "global_loss", "local_accuracy", "local_loss",
            "network_queued_s", "chain_wait_s",
            "replication_time_s", "replication_queued_s", "replication_count",
            "exchange_time_s", "exchange_count", "wan_bytes",
            "retries", "breaker_open_s", "failovers", "dropped_clients",
        }
        assert set(rows[0]) == expected
        # Constant-cost runs ride the same fabric: every cell is numeric,
        # queueing is zero and the chain wait is the per-interaction constant.
        assert all(cell != "" for cell in rows[0].values())
        assert float(rows[0]["network_queued_s"]) == 0.0
        assert float(rows[0]["chain_wait_s"]) > 0.0
        assert rows[0]["replication_count"] == "0"
        assert rows[0]["retries"] == "0"
        assert rows[0]["dropped_clients"] == "0"


class TestCLI:
    def test_parser_has_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--rounds", "3", "--mode", "sync"])
        assert args.command == "run"
        assert args.rounds == 3
        assert args.mode == "sync"

    def test_policies_command(self, capsys):
        exit_code = main(["policies"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "top_k" in output and "median" in output

    def test_run_command_end_to_end(self, capsys, tmp_path):
        exit_code = main(
            [
                "run",
                "--rounds", "2",
                "--samples-per-class", "12",
                "--mode", "async",
                "--seed", "3",
                "--json-out", str(tmp_path / "out.json"),
                "--csv-out", str(tmp_path / "out.csv"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Mean global accuracy" in output
        assert (tmp_path / "out.json").exists()
        assert (tmp_path / "out.csv").exists()

    def test_run_command_rejects_bad_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mode", "eventually"])

    def test_compare_command_runs(self, capsys):
        exit_code = main(
            ["compare", "--rounds", "2", "--samples-per-class", "12", "--clients", "2", "--seed", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Sync UnifyFL" in output
        assert "Centralized multilevel" in output
