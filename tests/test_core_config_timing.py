"""Tests for experiment configuration and the timing model."""

from __future__ import annotations

import copy
import dataclasses
import inspect

import pytest

from repro.core.config import (
    ClusterConfig,
    ExperimentConfig,
    WorkloadConfig,
    bounds_text,
    check_bounds,
    cifar10_workload,
    edge_cluster_configs,
    gpu_cluster_configs,
    knob_choices,
    tiny_imagenet_workload,
)
from repro.core.timing import ClusterTimingModel, RoundTiming
from repro.simnet.hardware import GPU_NODE, JETSON_NANO, RASPBERRY_PI_400


class TestWorkloadConfig:
    def test_cifar10_matches_paper_hyperparameters(self):
        workload = cifar10_workload()
        assert workload.learning_rate == 0.01
        assert workload.local_epochs == 2
        assert workload.batch_size == 5
        assert workload.num_classes == 10
        assert workload.reference_parameters == 62_000

    def test_tiny_imagenet_matches_paper_hyperparameters(self):
        workload = tiny_imagenet_workload()
        assert workload.learning_rate == 0.01
        assert workload.local_epochs == 2
        assert workload.batch_size == 8  # scaled from 64 for the synthetic substrate
        assert workload.reference_parameters == 138_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(name="x", model="cnn", dataset="cifar10", num_classes=10, rounds=0)
        with pytest.raises(ValueError):
            WorkloadConfig(name="x", model="cnn", dataset="cifar10", num_classes=10, learning_rate=0.0)


class TestClusterConfig:
    def test_defaults(self):
        cluster = ClusterConfig(name="agg1")
        assert cluster.num_clients == 3
        assert cluster.strategy == "fedavg"
        assert cluster.attack is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(name="agg1", num_clients=0)
        with pytest.raises(ValueError):
            ClusterConfig(name="agg1", policy_k=0)

    def test_differential_privacy_validation(self):
        with pytest.raises(ValueError, match="dp_clip_norm"):
            ClusterConfig(name="bad", dp_clip_norm=-1.0)
        with pytest.raises(ValueError, match="dp_noise_multiplier"):
            ClusterConfig(name="bad", dp_noise_multiplier=-0.1)
        # Noise without clipping would train without privacy.
        with pytest.raises(ValueError, match="dp_noise_multiplier.*dp_clip_norm"):
            ClusterConfig(name="bad", dp_noise_multiplier=0.5)
        ClusterConfig(name="ok", dp_clip_norm=1.0, dp_noise_multiplier=0.5)

    def test_attack_validation(self):
        assert ClusterConfig(name="evil", attack="sign_flip").attack == "sign_flip"
        with pytest.raises(ValueError, match="attack"):
            ClusterConfig(name="evil", attack="no_such_attack")


class TestExperimentConfig:
    def test_valid_config(self, tiny_workload):
        config = ExperimentConfig(
            name="ok", workload=tiny_workload, clusters=edge_cluster_configs(), rounds=2
        )
        assert config.num_clusters == 3

    def test_rejects_bad_mode(self, tiny_workload):
        with pytest.raises(ValueError):
            ExperimentConfig(name="x", workload=tiny_workload, clusters=edge_cluster_configs(), mode="eventual")

    def test_rejects_multikrum_in_async(self, tiny_workload):
        with pytest.raises(ValueError):
            ExperimentConfig(
                name="x",
                workload=tiny_workload,
                clusters=edge_cluster_configs(),
                mode="async",
                scoring_algorithm="multikrum",
            )

    def test_rejects_duplicate_cluster_names(self, tiny_workload):
        clusters = [ClusterConfig(name="agg1"), ClusterConfig(name="agg1")]
        with pytest.raises(ValueError):
            ExperimentConfig(name="x", workload=tiny_workload, clusters=clusters)

    def test_rejects_empty_clusters(self, tiny_workload):
        with pytest.raises(ValueError):
            ExperimentConfig(name="x", workload=tiny_workload, clusters=[])


#: one bad value per check of ``ExperimentConfig.__post_init__`` and per
#: field with a declared range, with the fields its rejection must name.
REJECTIONS = [
    (dict(partitioning="stripes"), ("partitioning",)),
    (dict(dirichlet_alpha=0.0), ("dirichlet_alpha",)),
    (dict(scoring_algorithm="median"), ("scoring_algorithm",)),
    (dict(rounds=0), ("rounds",)),
    (dict(seed=-1), ("seed",)),
    (dict(phase_duration=-1.0), ("phase_duration",)),
    (dict(clusters=[]), ("clusters",)),
    (dict(clusters=[ClusterConfig(name="agg1"), ClusterConfig(name="agg1")]), ("clusters",)),
    (dict(clients_per_round=2), ("clients_per_round", "population")),
    (dict(sampling_seed=1), ("sampling_seed", "population")),
    (dict(population=0, clients_per_round=1), ("population",)),
    (dict(population=10), ("clients_per_round", "population")),
    (dict(population=10, clients_per_round=0), ("clients_per_round",)),
    (dict(population=10, clients_per_round=11), ("clients_per_round", "population")),
    (dict(population=10, clients_per_round=2, sampling_seed=-1), ("sampling_seed",)),
    (dict(semi_quorum_k=0), ("semi_quorum_k",)),
    (dict(semi_quorum_k=4), ("semi_quorum_k",)),
    (dict(max_staleness=0.0), ("max_staleness",)),
    (dict(local_rounds_per_global=0), ("local_rounds_per_global",)),
    (dict(round_budget=0), ("round_budget",)),
    (dict(gossip_fanout=-1), ("gossip_fanout",)),
    (dict(block_period=0.0), ("block_period",)),
    (dict(link_bandwidth_mbytes_per_s=0.0), ("link_bandwidth_mbytes_per_s",)),
    (dict(link_latency_s=-1.0), ("link_latency_s",)),
    (dict(storage_replicas=0), ("storage_replicas",)),
    (dict(replica_capacity=0), ("replica_capacity",)),
    (dict(replica_selection="random"), ("replica_selection",)),
    (dict(replication_mode="gossip"), ("replication_mode",)),
    (dict(wan_latency_s=-1.0), ("wan_latency_s",)),
    (dict(wan_bandwidth_mbytes_per_s=0.0), ("wan_bandwidth_mbytes_per_s",)),
    (dict(churn_rate=1.0), ("churn_rate",)),
    (dict(replica_outages=-1), ("replica_outages",)),
    (dict(outage_duration_s=0.0), ("outage_duration_s",)),
    (dict(wan_partitions=-1), ("wan_partitions",)),
    (dict(partition_duration_s=0.0), ("partition_duration_s",)),
    (dict(fault_seed=-1), ("fault_seed",)),
    (dict(event_streams=False, replica_capacity=2), ("replica_capacity", "event_streams")),
    (dict(event_streams=False, replica_outages=1), ("replica_outages", "event_streams")),
    (
        dict(event_streams=False, wan_partitions=1, storage_replicas=2),
        ("wan_partitions", "event_streams"),
    ),
    (dict(wan_partitions=1), ("wan_partitions", "storage_replicas")),
    (dict(retry_max=-1), ("retry_max",)),
    (dict(backoff_base_s=0.0), ("backoff_base_s",)),
    (dict(backoff_jitter=-0.1), ("backoff_jitter",)),
    (dict(breaker_threshold=0), ("breaker_threshold",)),
    (dict(breaker_cooldown_s=0.0), ("breaker_cooldown_s",)),
    # Raised by what __post_init__ calls: the registry and a mode's hook.
    (dict(mode="eventual"), ("mode",)),
    (dict(mode="async", scoring_algorithm="multikrum"), ("scoring_algorithm", "mode")),
]


#: one bad value per check of ``ClusterConfig.validate`` and per field with a
#: declared range, set on a cluster *after* it was built (a cluster is
#: mutable), with the field its rejection must name: ``(cluster index, field,
#: value)``.
CLUSTER_EDITS = [
    (0, "num_clients", 0),
    (1, "policy_k", 0),
    (2, "dp_clip_norm", -1.0),
    (0, "dp_noise_multiplier", -0.1),
    (0, "dp_noise_multiplier", 0.5),
    (1, "availability", 0.0),
    (2, "attack", "nope"),
]

#: one bad value per ``WorkloadConfig`` field with a declared range or closed set.
WORKLOAD_REJECTIONS = [
    ("model", "mlp"),
    ("model", "foo"),
    ("dataset", "bar"),
    ("num_classes", 1),
    # In range, but the cifar10 workload draws exactly ten labels.
    ("num_classes", 5),
    ("image_size", 0),
    ("image_size", 3),
    ("learning_rate", 0.0),
    ("rounds", 0),
    ("local_epochs", 0),
    ("batch_size", 0),
    ("samples_per_class", 0),
    ("test_samples_per_class", 0),
    ("reference_parameters", 0),
    ("nominal_samples_per_client", 0),
    ("nominal_test_samples", 0),
]


def _declared(config_class):
    """The names of the fields of ``config_class`` that declare a range or a closed set."""
    return {
        f.name
        for f in dataclasses.fields(config_class)
        if bounds_text(f) or knob_choices(f) is not None
    }


class TestEveryRejectionNamesItsField:
    def test_every_check_has_a_case(self, tiny_workload):
        checks = inspect.getsource(ExperimentConfig.__post_init__).count("raise ValueError")
        # check_bounds covers every field with a declared range or closed set,
        # each named by a row; the registry names an unknown mode first.
        declared = _declared(ExperimentConfig) - {"mode"}
        assert declared <= {field for overrides, _ in REJECTIONS for field in overrides}
        checks += len(declared)
        # validate_semi_params adds the quorum's bound by the cohort; the mode
        # registry adds two.
        assert len(REJECTIONS) == checks + 1 + 2
        cluster_checks = inspect.getsource(ClusterConfig.validate).count("raise ValueError")
        assert {field for _, field, _ in CLUSTER_EDITS} >= _declared(ClusterConfig)
        assert len(CLUSTER_EDITS) == cluster_checks + len(_declared(ClusterConfig))
        assert {field for field, _ in WORKLOAD_REJECTIONS} == _declared(WorkloadConfig)
        # Each hand-written workload check has a row whose value is in range.
        def in_range(field, value):
            workload = copy.copy(tiny_workload)
            setattr(workload, field, value)
            try:
                check_bounds(workload)
            except ValueError:
                return False
            return True

        workload_checks = inspect.getsource(WorkloadConfig.__post_init__).count("raise ValueError")
        assert sum(in_range(*row) for row in WORKLOAD_REJECTIONS) == workload_checks

    @pytest.mark.parametrize(
        "overrides, fields", REJECTIONS, ids=[" ".join(sorted(o)) for o, _ in REJECTIONS]
    )
    def test_the_message_names_the_field(self, tiny_workload, overrides, fields):
        kwargs = dict(name="x", workload=tiny_workload, clusters=edge_cluster_configs())
        kwargs.update(overrides)
        with pytest.raises(ValueError) as raised:
            ExperimentConfig(**kwargs)
        assert all(field in str(raised.value) for field in fields), str(raised.value)

    @pytest.mark.parametrize(
        "index, field, value", CLUSTER_EDITS, ids=[f"{f}={v}" for _, f, v in CLUSTER_EDITS]
    )
    def test_an_edited_cluster_is_checked_and_named(self, tiny_workload, index, field, value):
        clusters = edge_cluster_configs()
        setattr(clusters[index], field, value)
        with pytest.raises(ValueError) as raised:
            ExperimentConfig(name="x", workload=tiny_workload, clusters=clusters)
        message = str(raised.value)
        assert clusters[index].name in message and field in message, message
        # The same check rejects the value at construction.
        with pytest.raises(ValueError, match=field):
            ClusterConfig(name="built", **{field: value})

    @pytest.mark.parametrize(
        "field, value", WORKLOAD_REJECTIONS, ids=[f"{f}={v}" for f, v in WORKLOAD_REJECTIONS]
    )
    def test_a_workload_out_of_range_is_named(self, tiny_workload, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            dataclasses.replace(tiny_workload, **{field: value})

    def test_the_message_states_the_violated_bound(self, tiny_workload):
        clusters = edge_cluster_configs()
        with pytest.raises(ValueError, match=r"^churn_rate must be < 1\.0, got 1\.0$"):
            ExperimentConfig("x", tiny_workload, clusters, churn_rate=1.0)
        with pytest.raises(ValueError, match=r"^churn_rate must be >= 0\.0, got -0\.5$"):
            ExperimentConfig("x", tiny_workload, clusters, churn_rate=-0.5)
        with pytest.raises(ValueError, match=r"^cluster 'agg1': availability must be <= 1\.0"):
            ClusterConfig(name="agg1", availability=1.5)
        # An unset Optional is never range-checked.
        assert ExperimentConfig("x", tiny_workload, clusters, round_budget=None).round_budget is None


class TestClusterFactories:
    def test_gpu_cluster_configs(self):
        clusters = gpu_cluster_configs(num_clusters=4)
        assert len(clusters) == 4
        assert all(c.aggregator_profile is GPU_NODE for c in clusters)
        assert len({c.name for c in clusters}) == 4

    def test_gpu_cluster_custom_strategies_and_policies(self):
        clusters = gpu_cluster_configs(
            num_clusters=2,
            strategies=["fedavg", "fedyogi"],
            policies=[("top_k", 2), ("all", 1)],
            scoring_policies=["max", "mean"],
        )
        assert clusters[1].strategy == "fedyogi"
        assert clusters[0].aggregation_policy == "top_k"
        assert clusters[0].scoring_policy == "max"

    def test_edge_cluster_heterogeneous_clients(self):
        clusters = edge_cluster_configs()
        profiles = [c.client_profile for c in clusters]
        assert RASPBERRY_PI_400 in profiles and JETSON_NANO in profiles
        assert len(clusters) == 3


class TestTimingModel:
    def test_round_timing_totals(self):
        timing = RoundTiming(pull_time=1.0, client_training_time=5.0, scoring_time=2.0, idle_time=3.0)
        assert timing.active_time == pytest.approx(8.0)
        assert timing.total_time == pytest.approx(11.0)

    def test_compute_scale_grows_with_model_size(self):
        small = ClusterTimingModel(cifar10_workload())
        large = ClusterTimingModel(tiny_imagenet_workload())
        assert small.compute_scale == pytest.approx(1.0)
        assert large.compute_scale > 5.0

    def test_slow_hardware_trains_slower(self):
        timing = ClusterTimingModel(cifar10_workload(), seed=0)
        pi_cluster = ClusterConfig(name="pi", client_profile=RASPBERRY_PI_400)
        jetson_cluster = ClusterConfig(name="jetson", client_profile=JETSON_NANO)
        assert timing.client_training_time(pi_cluster, jitter=False) > timing.client_training_time(
            jetson_cluster, jitter=False
        )

    def test_jitter_changes_but_stays_close(self):
        timing = ClusterTimingModel(cifar10_workload(), seed=1)
        cluster = ClusterConfig(name="pi", client_profile=RASPBERRY_PI_400)
        base = timing.client_training_time(cluster, jitter=False)
        jittered = [timing.client_training_time(cluster) for _ in range(20)]
        assert any(abs(j - base) > 1e-9 for j in jittered)
        assert all(0.5 * base < j < 2.0 * base for j in jittered)

    def test_transfer_time_scales_with_model_size(self):
        small = ClusterTimingModel(cifar10_workload())
        large = ClusterTimingModel(tiny_imagenet_workload())
        assert large.transfer_time(GPU_NODE) > small.transfer_time(GPU_NODE)

    def test_scoring_time_zero_for_no_models(self):
        timing = ClusterTimingModel(cifar10_workload())
        cluster = ClusterConfig(name="a")
        assert timing.scoring_time(cluster, 0) == 0.0

    def test_multikrum_scoring_cheaper_than_accuracy(self):
        timing = ClusterTimingModel(tiny_imagenet_workload())
        cluster = ClusterConfig(name="a", aggregator_profile=GPU_NODE)
        assert timing.scoring_time(cluster, 3, "multikrum") < timing.scoring_time(cluster, 3, "accuracy")

    def test_sync_windows_exceed_expected_work(self):
        workload = cifar10_workload()
        timing = ClusterTimingModel(workload, seed=0)
        clusters = edge_cluster_configs()
        window = timing.expected_training_window(clusters)
        slowest = max(timing.client_training_time(c, jitter=False) for c in clusters)
        assert window > slowest

    def test_chain_interaction_includes_block_period(self):
        timing = ClusterTimingModel(cifar10_workload(), block_period=2.0)
        assert timing.chain_interaction_time(1) >= 2.0


class TestTimingModelShapes:
    def test_gpu_round_dominated_by_training_not_chain(self):
        timing = ClusterTimingModel(tiny_imagenet_workload(), block_period=2.0, seed=0)
        cluster = gpu_cluster_configs(num_clusters=1)[0]
        training = timing.client_training_time(cluster, jitter=False)
        chain = timing.chain_interaction_time(2)
        assert training > 10 * chain

    def test_edge_rpi_cluster_is_the_straggler(self):
        timing = ClusterTimingModel(cifar10_workload(), seed=0)
        clusters = edge_cluster_configs()
        times = {c.name: timing.client_training_time(c, jitter=False) for c in clusters}
        # agg1 hosts the Raspberry Pi clients in the edge configuration.
        assert times["agg1"] == max(times.values())

    def test_sync_window_covers_straggler_with_margin(self):
        timing = ClusterTimingModel(cifar10_workload(), seed=0)
        clusters = edge_cluster_configs()
        window = timing.expected_training_window(clusters)
        slowest = max(timing.client_training_time(c, jitter=False) for c in clusters)
        assert window >= 1.3 * slowest
