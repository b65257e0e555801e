"""Behavioural tests for the hierarchical and gossip round policies.

Covers the two-tier structure of hierarchical orchestration (site grouping,
leader rotation, round budgets, per-tier accounting), the epidemic exchange
structure of gossip (seeded fanout, causality of published models), and the
event-stream integration of both: exchange traffic on the fabric, WAN byte
accounting, replication of leader submissions.
"""

from __future__ import annotations

import pytest

from repro.core.config import ExperimentConfig, cifar10_workload, edge_cluster_configs
from repro.core.runner import ExperimentRunner, run_experiment
from repro.sched.actors import NetworkActor
from repro.simnet.network import NetworkLink, Topology


def config(mode: str, rounds: int = 2, seed: int = 5, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"hg-{mode}",
        workload=cifar10_workload(rounds=rounds, samples_per_class=8, image_size=8),
        clusters=edge_cluster_configs(num_clients=2),
        mode=mode,
        rounds=rounds,
        seed=seed,
        **kwargs,
    )


# ----------------------------------------------------------------- hierarchical
class TestHierarchical:
    def test_site_grouping_mirrors_fabric_round_robin(self):
        result = run_experiment(
            config("hierarchical", event_streams=True, storage_replicas=2)
        )
        groups = result.orchestration_extras["groups"]
        # 3 clusters over 2 sites, i % 2: agg1/agg3 share site 0, agg2 is site 1.
        assert groups == {"0": ["agg1", "agg3"], "1": ["agg2"]}

    def test_leader_rotates_deterministically(self):
        result = run_experiment(config("hierarchical", rounds=3))
        leaders = [name for _, _, name in result.orchestration_extras["leaders"]]
        assert leaders == ["agg1", "agg2", "agg3"]

    def test_round_budget_caps_local_training(self):
        budgeted = run_experiment(
            config("hierarchical", rounds=3, local_rounds_per_global=2, round_budget=2)
        )
        extras = budgeted.orchestration_extras
        # Every cluster runs dry after its 2 allowed local rounds (global
        # round 1 already consumes both).
        assert set(extras["budget_exhausted"]) == {"agg1", "agg2", "agg3"}
        assert all(at == [1, 2] or at == (1, 2) for at in extras["budget_exhausted"].values())
        unbudgeted = run_experiment(
            config("hierarchical", rounds=3, local_rounds_per_global=2)
        )
        # Less training can only cost less training time.
        assert (
            extras["tier_totals"]["local_training_time"]
            < unbudgeted.orchestration_extras["tier_totals"]["local_training_time"]
        )

    def test_tier_totals_schema_and_books(self):
        result = run_experiment(config("hierarchical", rounds=2))
        tiers = result.orchestration_extras["tier_totals"]
        for key in (
            "local_training_time",
            "local_exchange_time",
            "local_aggregation_time",
            "local_idle_time",
            "global_pull_time",
            "global_aggregation_time",
            "global_broadcast_time",
            "global_store_time",
            "global_chain_time",
            "global_idle_time",
            "global_scoring_time",
        ):
            assert key in tiers
            assert tiers[key] >= 0.0
        assert tiers["local_training_time"] > 0.0
        assert tiers["global_chain_time"] > 0.0

    def test_per_round_timings_sum_to_cluster_clock(self):
        runner = ExperimentRunner(config("hierarchical", rounds=2))
        result = runner.run()
        for aggregator in runner.aggregators:
            total = sum(r.timing.total_time for r in aggregator.history)
            assert total == pytest.approx(aggregator.clock.now(), rel=1e-9)
        # The per-tier breakdown covers every simulated second: it sums
        # exactly to the federation's combined clocks.
        tier_sum = sum(result.orchestration_extras["tier_totals"].values())
        clock_sum = sum(a.clock.now() for a in runner.aggregators)
        assert tier_sum == pytest.approx(clock_sum, rel=1e-9)

    def test_event_streams_replicate_only_leader_submissions(self):
        result = run_experiment(
            config(
                "hierarchical",
                rounds=2,
                event_streams=True,
                storage_replicas=2,
                replication_mode="eager",
            )
        )
        comm = result.comm_metrics
        # 2 groups x 2 rounds = 4 leader uploads; each propagates to 1 peer.
        assert comm["upload_count"] == 4
        assert comm["replication_count"] == 4
        assert comm["exchange_count"] > 0
        assert comm["wan_bytes"] > 0
        assert comm["chain_ops_submitModel"] == 4

    def test_hierarchical_wan_traffic_below_sync(self):
        shared = dict(
            rounds=2, event_streams=True, storage_replicas=2, replication_mode="eager"
        )
        hierarchical = run_experiment(config("hierarchical", **shared))
        sync = run_experiment(config("sync", **shared))
        assert (
            hierarchical.comm_metrics["wan_bytes"] <= sync.comm_metrics["wan_bytes"]
        )

    def test_offline_cluster_sits_global_round_out(self):
        clusters = edge_cluster_configs(num_clients=2)
        clusters[2].availability = 0.05  # nearly always down
        cfg = ExperimentConfig(
            name="hg-offline",
            workload=cifar10_workload(rounds=3, samples_per_class=8, image_size=8),
            clusters=clusters,
            mode="hierarchical",
            rounds=3,
            seed=5,
        )
        result = run_experiment(cfg)
        flaky = result.aggregator("agg3")
        assert any(record.offline for record in flaky.history)
        assert len(flaky.history) == 3


# ----------------------------------------------------------------------- gossip
class TestGossip:
    def test_exchanges_respect_publication_causality(self):
        result = run_experiment(config("gossip", rounds=3, gossip_fanout=2))
        extras = result.orchestration_extras
        published_at = {}
        # Replay the audit trail: nobody pulls a model before some round of
        # the peer published one (round 1 can only miss).
        for round_number, puller, peer, _ in extras["exchanges"]:
            assert round_number >= 2 or peer in published_at
            published_at.setdefault(peer, round_number)
        assert extras["exchange_count"] + extras["missed_exchanges"] > 0

    def test_republication_keeps_older_model_visible(self):
        # A fast-rounding peer re-publishing must not hide the older model a
        # slower puller could causally know of: visibility picks the latest
        # publication whose time the puller's clock has passed.
        from repro.sched.policies import GossipRoundPolicy

        policy = object.__new__(GossipRoundPolicy)
        policy._published = {"peer": [("cid-r1", 10.0), ("cid-r2", 50.0)]}
        assert policy._latest_visible("peer", 30.0) == "cid-r1"
        assert policy._latest_visible("peer", 50.0) == "cid-r2"
        assert policy._latest_visible("peer", 5.0) is None
        assert policy._latest_visible("stranger", 30.0) is None

    def test_fanout_bounds_exchanges_per_round(self):
        result = run_experiment(config("gossip", rounds=4, gossip_fanout=1))
        per_round_puller = {}
        for round_number, puller, _, _ in result.orchestration_extras["exchanges"]:
            key = (round_number, puller)
            per_round_puller[key] = per_round_puller.get(key, 0) + 1
        assert all(count <= 1 for count in per_round_puller.values())

    def test_event_stream_gossip_prices_exchanges_on_fabric(self):
        result = run_experiment(
            config(
                "gossip",
                rounds=3,
                gossip_fanout=2,
                event_streams=True,
                storage_replicas=2,
                replication_mode="lazy",
            )
        )
        comm = result.comm_metrics
        assert comm["exchange_count"] > 0
        assert comm["exchange_time"] > 0.0
        # Publications still ride storage + chain.
        assert comm["upload_count"] == 9  # 3 clusters x 3 rounds
        assert comm["chain_ops_submitModel"] == 9
        extras_time = result.orchestration_extras["exchange_time"]
        assert extras_time == pytest.approx(
            comm["exchange_time"] + comm["exchange_queued"], rel=1e-9
        )

    def test_per_round_timings_sum_to_cluster_clock(self):
        runner = ExperimentRunner(config("gossip", rounds=3, gossip_fanout=2))
        runner.run()
        for aggregator in runner.aggregators:
            total = sum(r.timing.total_time for r in aggregator.history)
            assert total == pytest.approx(aggregator.clock.now(), rel=1e-9)

    def test_gossip_beats_isolation_on_accuracy(self):
        isolated = run_experiment(
            config("gossip", rounds=4, gossip_fanout=0, seed=2)
        )
        social = run_experiment(config("gossip", rounds=4, gossip_fanout=2, seed=2))
        # Same seed, same data: exchanging models should not hurt the mean
        # (tiny workloads are noisy, so allow a small tolerance).
        assert social.mean_global_accuracy >= isolated.mean_global_accuracy - 0.05


# ----------------------------------------------------- exchange fabric plumbing
class TestExchangeFabric:
    def make_actor(self) -> NetworkActor:
        topology = Topology(
            default_wan_link=NetworkLink(latency_s=0.5, bandwidth_bytes_per_s=1_000_000)
        )
        topology.add_replica("site-a").add_replica("site-b")
        lan = NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1_000_000)
        topology.add_cluster("agg1", "site-a", lan)
        topology.add_cluster("agg2", "site-a", lan)
        topology.add_cluster("agg3", "site-b", lan)
        return NetworkActor(topology=topology, model_bytes=1_000_000)

    def test_same_site_exchange_is_lan_priced(self):
        actor = self.make_actor()
        elapsed = actor.exchange("agg1", "agg2", 1, at=0.0)
        # Two LAN hops, no WAN latency: 1 MB over the 1 MB/s bottleneck.
        assert elapsed == pytest.approx(1.0)
        assert actor.wan_bytes == 0

    def test_cross_site_exchange_crosses_wan(self):
        actor = self.make_actor()
        elapsed = actor.exchange("agg1", "agg3", 1, at=0.0)
        assert elapsed == pytest.approx(1.5)  # WAN latency added
        assert actor.wan_bytes == 1_000_000

    def test_exchange_phase_totals_are_separate(self):
        actor = self.make_actor()
        actor.upload("agg1", 1, at=0.0)
        actor.exchange("agg1", "agg2", 1, at=10.0)
        totals = actor.phase_totals()
        assert totals["upload"]["count"] == 1
        assert totals["exchange"]["count"] == 1
        assert totals["download"]["count"] == 0

    def test_exchange_contends_for_endpoints(self):
        actor = self.make_actor()
        actor.exchange("agg1", "agg2", 1, at=0.0)
        second = actor.exchange("agg3", "agg2", 1, at=0.0)
        # agg2 is busy receiving the first model; the cross-site push queues.
        assert second > 1.5
