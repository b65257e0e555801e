"""Tests for result export (JSON/CSV) and the command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy
import pytest

from repro.cli import _build_config, build_parser, main
from repro.core.config import (
    ExperimentConfig,
    bounds_text,
    cifar10_workload,
    edge_cluster_configs,
    knob_fields,
)
from repro.core.reporting import (
    load_result_json,
    load_results_csv,
    result_to_dict,
    save_result_json,
    save_results_csv,
)
from repro.core.results import format_comm_table, format_comparison, format_run_table
from repro.core.runner import ExperimentRunner, run_experiment
from repro.core.scorer import SCORERS
from repro.core.selection import available_aggregation_policies, available_scoring_policies
from repro.sched import metrics
from repro.sched.actors import REPLICA_SELECTIONS
from repro.sched.registry import registered_modes
from repro.simnet.replication import REPLICATION_MODES

_spec = importlib.util.spec_from_file_location(
    "regen_goldens", Path(__file__).resolve().parent.parent / "scripts" / "regen_goldens.py"
)
regen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_goldens)


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


# Captured on the commit before the exports were derived from
# ``repro.sched.metrics``: column order, the ``_s`` naming and every cell
# format of one streams-faulted and one constant-cost golden-shaped run.
PINNED_CSV_HEADER = (
    "experiment,mode,partitioning,scoring_algorithm,rounds,aggregator,policy,strategy,"
    "total_time,idle_time,straggler_count,global_accuracy,global_loss,local_accuracy,local_loss,"
    "network_queued_s,chain_wait_s,replication_time_s,replication_queued_s,replication_count,"
    "exchange_time_s,exchange_count,wan_bytes,retries,breaker_open_s,failovers,dropped_clients"
)
PINNED_CSV_ROWS = {
    "hierarchical-streams-faulted": (
        "hierarchical-streams-faulted,hierarchical,iid,accuracy,2,agg1,all/mean,fedavg,"
        "26.363,0.000,0,0.050000,2.325913,0.050000,2.325913,"
        "57.731,11.382,0.110,19.034,2,0.030,5,1736000,4,120.000,5,1"
    ),
    "sync-constant-clean": (
        "sync-constant-clean,sync,iid,accuracy,2,agg1,all/mean,fedavg,"
        "15.786,3.783,0,0.100000,2.329646,0.130000,2.322261,"
        "0.000,24.900,0.000,0.000,0,0.000,0,0,0,0.000,0,0"
    ),
}
# Likewise, except the Events cell of "total network": 12 (uploads +
# downloads only) before its three columns covered the same transfers.
PINNED_COMM_TABLE = """\
Communication / chain event streams (hierarchical-streams-faulted)
Stream                          Time (s)  Queued (s)    Events
--------------------------------------------------------------
network upload                      0.07       19.44         4
network download                    0.24       19.26         8
network replication                 0.11       19.03         2
network exchange                    0.03        0.00         5
replica storage-0                   0.01       25.00         2
replica storage-1                   0.30       13.70        10
replicate -> storage-0              0.05       19.03         1
replicate -> storage-1              0.05        0.00         1
chain submitModel                   5.03           —         4
chain submitScore                   6.35           —         4
--------------------------------------------------------------
total network                       0.45       57.73        19
total chain wait                   11.38           —         8
blocks spanned: 6
WAN bytes moved: 1736000
faults: 1 dropped client-rounds, 4 retries (3.2s backoff), 5 failovers, 2 breaker trips (120s open)"""


@pytest.fixture(scope="module")
def golden_runs():
    """``{case: (runner, result)}`` for the two pinned golden-shaped runs."""
    cases = regen_goldens.golden_cases()
    runs = {}
    for name in PINNED_CSV_ROWS:
        runner = ExperimentRunner(regen_goldens.build_config(name, **cases[name]))
        runs[name] = (runner, runner.run())
    return runs


@pytest.mark.skipif(
    numpy.__version__ != json.loads(regen_goldens.GOLDEN_PATH.read_text())["numpy"],
    reason="the pinned cells depend on the floating-point kernels, like the goldens",
)
class TestExportsDeriveFromTheDeclaration:
    @pytest.mark.parametrize("name", list(PINNED_CSV_ROWS))
    def test_csv_header_and_row_are_pinned(self, golden_runs, name, tmp_path):
        path = save_results_csv([golden_runs[name][1]], tmp_path / "rows.csv")
        header, first_row = path.read_text(encoding="utf-8").splitlines()[:2]
        assert header == PINNED_CSV_HEADER
        assert first_row == PINNED_CSV_ROWS[name]

    def test_comm_table_is_pinned(self, golden_runs):
        _, result = golden_runs["hierarchical-streams-faulted"]
        assert format_comm_table(result) == PINNED_COMM_TABLE

    @pytest.mark.parametrize("name", list(PINNED_CSV_ROWS))
    def test_comm_metrics_are_exactly_the_declared_names(self, golden_runs, name):
        runner, result = golden_runs[name]
        declared = metrics.declared(
            replica=runner.comm.network.replicas,
            kind={op.kind for op in runner.comm.chain.log},
        )
        assert set(result.comm_metrics) == set(declared)

    def test_a_new_total_is_one_line_of_the_declaration(self, golden_runs, monkeypatch, tmp_path):
        dummy = metrics.Metric(
            "dummy_total", "s", "a total nobody asked for", lambda fabric: 7.0,
            csv=99, line=("dummy", "{:.1f}s of it"),
        )
        monkeypatch.setattr(metrics, "METRICS", metrics.METRICS + [dummy])
        runner, result = golden_runs["sync-constant-clean"]
        assert runner.comm.summary()["dummy_total"] == 7.0
        result = dataclasses.replace(result, comm_metrics=runner.comm.summary())
        assert result_to_dict(result)["comm_metrics"]["dummy_total"] == 7.0
        path = save_results_csv([result], tmp_path / "rows.csv")
        header, first_row = path.read_text(encoding="utf-8").splitlines()[:2]
        assert header == PINNED_CSV_HEADER + ",dummy_total_s"
        assert first_row == PINNED_CSV_ROWS["sync-constant-clean"] + ",7.000"
        assert format_comm_table(result).endswith("\ndummy: 7.0s of it")


class TestDomainMembers:
    """``metrics.members`` reads a run's replicas and call kinds back out of its
    exported keys; the comm table and the sweeps in ``benchmarks/`` rely on it."""

    @pytest.mark.parametrize("name", list(PINNED_CSV_ROWS))
    def test_members_are_the_runs_replicas_and_call_kinds(self, golden_runs, name):
        runner, result = golden_runs[name]
        assert metrics.members(result.comm_metrics, "replica") == sorted(runner.comm.network.replicas)
        assert metrics.members(result.comm_metrics, "kind") == sorted(
            {op.kind for op in runner.comm.chain.log}
        )
        assert metrics.members(result.comm_metrics, "phase") == metrics.TRANSFER_PHASES

    @pytest.mark.parametrize("name", list(PINNED_CSV_ROWS))
    def test_members_expand_back_to_exactly_the_exported_keys(self, golden_runs, name):
        exported = golden_runs[name][1].comm_metrics
        declared = metrics.declared(
            replica=metrics.members(exported, "replica"),
            kind=metrics.members(exported, "kind"),
        )
        assert set(declared) == set(exported)

    def test_a_nested_family_adds_no_phantom_member(self):
        # ``replica_a_replication_count`` also starts with ``replica_`` and
        # ends with ``_count``: a prefix/suffix parse of the served-transfers
        # family would report a replica named ``a_replication``.
        exported = {
            f"replica_{replica}_{nested}{stat}": 1.0
            for replica in ("a", "b")
            for nested in ("", "replication_")
            for stat in ("time", "queued", "count")
        }
        naive = {key[len("replica_"):-len("_count")] for key in exported if key.endswith("_count")}
        assert "a_replication" in naive
        assert metrics.members(exported, "replica") == ["a", "b"]


class TestResultFormattingDetails:
    def test_run_table_has_one_row_per_aggregator(self, small_result):
        table = format_run_table(small_result)
        data_rows = [line for line in table.splitlines() if line.startswith("agg")]
        assert len(data_rows) == len(small_result.aggregators)

    def test_run_table_percent_toggle(self, small_result):
        with_percent = format_run_table(small_result, percent=True)
        without_percent = format_run_table(small_result, percent=False)
        assert with_percent != without_percent

    def test_comparison_defaults_to_result_names(self, small_result):
        assert small_result.name in format_comparison([small_result])

    def test_aggregator_lookup_is_case_sensitive(self, small_result):
        with pytest.raises(KeyError):
            small_result.aggregator("AGG1")


class TestCLI:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mode == "async"
        assert args.workload == "cifar10"
        assert args.testbed == "edge"

    def test_gpu_testbed_options(self):
        args = build_parser().parse_args(
            ["run", "--testbed", "gpu", "--workload", "tiny_imagenet", "--clusters", "4", "--scoring", "multikrum"]
        )
        assert args.testbed == "gpu"
        assert args.clusters == 4
        assert args.scoring_algorithm == "multikrum"

    def test_compare_accepts_common_arguments(self):
        args = build_parser().parse_args(["compare", "--rounds", "4", "--alpha", "0.1"])
        assert args.rounds == 4
        assert args.dirichlet_alpha == 0.1

    def test_parser_has_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--rounds", "3", "--mode", "sync"])
        assert args.command == "run"
        assert args.rounds == 3
        assert args.mode == "sync"
        assert parser.parse_args(["run", "--profile"]).profile is True

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])

    def test_bench_is_not_a_command(self, capsys):
        # Benchmarks live in bench/run.py, outside the package.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err

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
        assert "Sanitizer:" not in output

    def test_sanitized_compare_prints_what_each_runner_checked(self, capsys):
        argv = ["--rounds", "1", "--samples-per-class", "8", "--clients", "1", "--clusters", "2"]
        assert main(["compare", "--sanitize", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        reports = [line for line in lines if line.startswith("Sanitizer: ")]
        labels = [line.split()[1] for line in reports]
        assert labels == ["sync:", "async:", "semi:", "baselines:"]
        # The baselines' fits are replayed too.
        assert all("shared_training=" in line for line in reports)
        assert "shared_training=0" not in reports[-1]


# --------------------------------------------------------------- CLI wiring
#: one ``repro run`` argv per ``ExperimentConfig`` field that moves the field
#: off the value the CLI defaults give it.
FIELD_ARGV = {
    "workload": ["--workload", "tiny_imagenet"],
    "clusters": ["--clients", "2"],
    "mode": ["--mode", "sync"],
    "partitioning": ["--partitioning", "iid"],
    "dirichlet_alpha": ["--alpha", "0.1"],
    "scoring_algorithm": ["--scoring", "loss"],
    "rounds": ["--rounds", "3"],
    "seed": ["--seed", "7"],
    "phase_duration": ["--phase-duration", "30"],
    "semi_quorum_k": ["--semi-quorum-k", "2"],
    "max_staleness": ["--max-staleness", "60"],
    "local_rounds_per_global": ["--local-rounds-per-global", "3"],
    "round_budget": ["--round-budget", "4"],
    "gossip_fanout": ["--gossip-fanout", "1"],
    "block_period": ["--block-period", "3"],
    "sanitize": ["--sanitize"],
    "event_streams": ["--no-event-streams"],
    "link_bandwidth_mbytes_per_s": ["--link-bandwidth", "10"],
    "link_latency_s": ["--link-latency", "0.2"],
    "storage_replicas": ["--storage-replicas", "2"],
    "replica_capacity": ["--replica-capacity", "2"],
    "replica_selection": ["--replica-selection", "least-loaded"],
    "replication_mode": ["--replication-mode", "lazy"],
    "wan_latency_s": ["--wan-latency", "0.1"],
    "wan_bandwidth_mbytes_per_s": ["--wan-bandwidth", "25"],
    "churn_rate": ["--churn-rate", "0.1"],
    "replica_outages": ["--replica-outages", "1"],
    "outage_duration_s": ["--outage-duration", "30"],
    "wan_partitions": ["--wan-partitions", "1", "--storage-replicas", "2"],
    "partition_duration_s": ["--partition-duration", "30"],
    "fault_seed": ["--fault-seed", "9"],
    "retry_max": ["--retry-max", "1"],
    "backoff_base_s": ["--backoff-base", "0.25"],
    "backoff_jitter": ["--backoff-jitter", "0.2"],
    "breaker_threshold": ["--breaker-threshold", "2"],
    "breaker_cooldown_s": ["--breaker-cooldown", "30"],
    "population": ["--population", "10", "--clients-per-round", "2"],
    "clients_per_round": ["--population", "10", "--clients-per-round", "2"],
    "sampling_seed": ["--population", "10", "--clients-per-round", "2", "--sampling-seed", "4"],
}

#: ``ExperimentConfig`` fields no flag sets, each with the reason.
CLI_EXEMPT_FIELDS = {
    "name": "the subcommand passes it in ('cli-<workload>-<mode>', 'cli-sync', ...)",
}

#: the ``ClusterConfig`` fields the CLI sets on every organisation.
CLUSTER_FIELD_ARGV = {
    "num_clients": ["--clients", "2"],
    "aggregation_policy": ["--policy", "all"],
    "policy_k": ["--policy-k", "3"],
    "scoring_policy": ["--scoring-policy", "median"],
}

#: ``repro run`` options whose choices have no registry to equal; every
#: choice they list must build a valid ``ExperimentConfig`` instead.
UNREGISTERED_CHOICES = ("--workload", "--partitioning", "--testbed")


def _config_from(argv):
    return _build_config(build_parser().parse_args(["run", *argv]), name="wiring")


def _run_choices():
    """``{option: choices}`` for every option of ``repro run`` that has choices."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    run = subparsers.choices["run"]
    return {a.option_strings[0]: list(a.choices) for a in run._actions if a.choices is not None}


class TestCLIWiring:
    """``repro run`` sets every config field and offers every registered choice.

    Checked by running ``build_parser`` and ``_build_config``: a dropped
    keyword, a read of a dest no flag defines, a field with no flag or a
    ``choices=`` list that differs from its registry fails here.
    """

    def test_every_field_has_a_flag_or_an_exemption(self):
        fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
        assert set(FIELD_ARGV).isdisjoint(CLI_EXEMPT_FIELDS)
        assert set(FIELD_ARGV) | set(CLI_EXEMPT_FIELDS) == fields

    def test_no_flag_leaves_a_knob_off_its_declared_default(self):
        # Only the run length and the mode differ from the declaration.
        built = _config_from([])
        assert built == ExperimentConfig("wiring", built.workload, built.clusters, mode="async", rounds=6)

    @pytest.mark.parametrize("mode", ["sync", "async", "semi"])
    def test_compare_leaves_no_knob_off_its_declared_default(self, mode):
        built = _build_config(build_parser().parse_args(["compare"]), "wiring", mode=mode)
        assert built == ExperimentConfig("wiring", built.workload, built.clusters, mode=mode, rounds=6)

    @pytest.mark.parametrize("field", sorted(FIELD_ARGV))
    def test_flag_moves_its_field(self, field):
        default = _config_from([])
        changed = _config_from(FIELD_ARGV[field])
        assert getattr(changed, field) != getattr(default, field)

    @pytest.mark.parametrize("testbed", ["edge", "gpu"])
    @pytest.mark.parametrize("field", sorted(CLUSTER_FIELD_ARGV))
    def test_flag_moves_its_cluster_field(self, field, testbed):
        before = [getattr(c, field) for c in _config_from(["--testbed", testbed]).clusters]
        changed = _config_from(["--testbed", testbed, *CLUSTER_FIELD_ARGV[field]])
        after = [getattr(c, field) for c in changed.clusters]
        assert len(after) == len(before)
        assert all(new != old for new, old in zip(after, before)), (before, after)

    def test_choices_equal_their_registries(self):
        registries = {
            "--mode": registered_modes(),
            "--replication-mode": list(REPLICATION_MODES),
            "--replica-selection": list(REPLICA_SELECTIONS),
            "--scoring": list(SCORERS),
            "--policy": available_aggregation_policies(),
            "--scoring-policy": available_scoring_policies(),
        }
        choices = _run_choices()
        assert set(choices) == set(registries) | set(UNREGISTERED_CHOICES)
        differing = {
            option: (choices[option], registry)
            for option, registry in registries.items()
            if sorted(choices[option]) != sorted(registry)
        }
        assert differing == {}

    def test_unregistered_choices_each_build_a_valid_config(self):
        choices = _run_choices()
        for option in UNREGISTERED_CHOICES:
            for choice in choices[option]:
                assert isinstance(_config_from([option, choice]), ExperimentConfig)

    @pytest.mark.parametrize(
        "argv", [["--policy", "bogus"], ["--scoring-policy", "bogus", "--testbed", "gpu"]]
    )
    def test_unknown_policy_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", *argv])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_edge_testbed_rejects_more_clusters_than_nodes(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--clusters", "5", "--rounds", "1", "--samples-per-class", "4"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--clusters 5" in err and "edge testbed's 3 nodes" in err

    def test_help_states_each_declared_range(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        helps = {a.dest: a.help for a in subparsers.choices["run"]._actions}
        bounded = [knob for knob in knob_fields() if bounds_text(knob)]
        assert len(bounded) > 20
        for knob in bounded:
            assert helps[knob.name].endswith(f"(range: {bounds_text(knob)})"), knob.name
        assert helps["churn_rate"].endswith("(range: >= 0.0, < 1.0)")
        assert "range" not in helps["mode"]

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--seed", "-1"], "seed"),
            (["--alpha", "0"], "dirichlet_alpha"),
            (["--samples-per-class", "0"], "samples_per_class"),
            (["--workload", "tiny_imagenet", "--num-classes", "1"], "num_classes"),
            (["--workload", "cifar10", "--num-classes", "5"], "num_classes"),
            (["--image-size", "0"], "image_size"),
            (["--image-size", "3"], "image_size"),
        ],
    )
    def test_an_out_of_range_flag_is_rejected_by_name(self, argv, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            main(["run", *argv])

    @pytest.mark.parametrize(
        "argv, classes",
        [
            (["--workload", "tiny_imagenet"], 20),
            (["--workload", "tiny_imagenet", "--num-classes", "7"], 7),
            (["--workload", "cifar10"], 10),
        ],
    )
    def test_num_classes_defaults_to_the_workloads_own(self, argv, classes):
        assert _config_from(argv).workload.num_classes == classes

    def test_cluster_count_is_honoured_within_each_testbed(self):
        assert len(_config_from(["--clusters", "2"]).clusters) == 2
        assert len(_config_from(["--testbed", "gpu", "--clusters", "5"]).clusters) == 5
