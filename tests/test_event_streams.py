"""Tests for the network/chain event-stream layer (PR 2).

Covers, bottom-up:

* :class:`~repro.simnet.network.LinkScheduler` — gap-filling contention
  ordering on shared endpoints;
* :class:`~repro.sched.actors.NetworkActor` / :class:`~repro.sched.actors.ChainActor`
  — transfer streams, block-interval quantisation, consensus delay;
* end-to-end experiments with ``event_streams=True`` (the default since the
  hot-path acceleration pass) — chain-delay accounting inside round records
  and the per-phase communication report;
* ``event_streams=False`` as the degenerate configuration of the same fabric
  (unbounded capacity, unquantised chain, free phase control) and its
  conservation laws in all five modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chain.clique import CliqueError, consensus_delay
from repro.core.config import (
    ExperimentConfig,
    cifar10_workload,
    edge_cluster_configs,
    gpu_cluster_configs,
)
from repro.core.results import format_comm_table
from repro.core.runner import ExperimentRunner
from repro.sched.actors import STORAGE_ENDPOINT, TX_COST_S, ChainActor, CommFabric, NetworkActor
from repro.simnet.network import LinkScheduler, NetworkLink, NetworkModel, Topology


def make_network(bandwidth_bytes_per_s: float = 1e6, latency_s: float = 0.0) -> NetworkModel:
    return NetworkModel(
        default_link=NetworkLink(latency_s=latency_s, bandwidth_bytes_per_s=bandwidth_bytes_per_s)
    )


def make_topology() -> Topology:
    """The default layout: one storage replica behind a 1 MB/s, zero-latency link."""
    link = NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6)
    return Topology(default_link=link).add_replica(STORAGE_ENDPOINT)


# --------------------------------------------------------------------------- link scheduler
class TestLinkScheduler:
    def test_uncontended_transfer_matches_constant_cost(self):
        network = make_network(bandwidth_bytes_per_s=1e6, latency_s=0.5)
        scheduler = LinkScheduler(network)
        scheduled = scheduler.transfer("a", "b", 1_000_000, at=3.0)
        assert scheduled.started_at == 3.0
        assert scheduled.queued_time == 0.0
        assert scheduled.duration == pytest.approx(network.transfer_time("a", "b", 1_000_000))
        assert scheduled.elapsed == pytest.approx(1.5)

    def test_overlapping_transfers_on_shared_endpoint_serialize(self):
        scheduler = LinkScheduler(make_network())  # 1 MB/s -> 1s per MB
        first = scheduler.transfer("a", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        second = scheduler.transfer("b", STORAGE_ENDPOINT, 1_000_000, at=0.5)
        assert first.started_at == 0.0 and first.finished_at == pytest.approx(1.0)
        # Second transfer overlaps the storage endpoint: it queues to 1.0.
        assert second.started_at == pytest.approx(1.0)
        assert second.queued_time == pytest.approx(0.5)

    def test_disjoint_endpoints_do_not_contend(self):
        scheduler = LinkScheduler(make_network())
        scheduler.transfer("a", "b", 1_000_000, at=0.0)
        other = scheduler.transfer("c", "d", 1_000_000, at=0.0)
        assert other.started_at == 0.0
        assert other.queued_time == 0.0

    def test_gap_filling_is_causal_not_commit_ordered(self):
        """A transfer requested earlier in sim time slots before one committed
        earlier in *call* order — the atomic-round artifact must not leak."""
        scheduler = LinkScheduler(make_network())
        late = scheduler.transfer("fast", STORAGE_ENDPOINT, 1_000_000, at=100.0)
        early = scheduler.transfer("slow", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        assert late.started_at == 100.0
        assert early.started_at == 0.0  # fits in the gap before t=100
        assert early.queued_time == 0.0

    def test_transfer_queues_into_first_adequate_gap(self):
        scheduler = LinkScheduler(make_network())
        scheduler.transfer("a", STORAGE_ENDPOINT, 1_000_000, at=0.0)   # [0, 1)
        scheduler.transfer("b", STORAGE_ENDPOINT, 1_000_000, at=3.0)   # [3, 4)
        fitted = scheduler.transfer("c", STORAGE_ENDPOINT, 1_000_000, at=0.5)
        assert fitted.started_at == pytest.approx(1.0)  # the [1, 3) gap
        too_big = scheduler.transfer("d", STORAGE_ENDPOINT, 3_000_000, at=0.5)
        assert too_big.started_at == pytest.approx(4.0)  # skips the small gaps

    def test_estimate_does_not_commit(self):
        scheduler = LinkScheduler(make_network())
        elapsed = scheduler.estimate("a", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        assert elapsed == pytest.approx(1.0)
        assert scheduler.log == []
        assert scheduler.busy_intervals(STORAGE_ENDPOINT) == []
        # Committing after an estimate yields the estimated schedule.
        scheduled = scheduler.transfer("a", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        assert scheduled.elapsed == pytest.approx(elapsed)

    def test_rejects_negative_request_time(self):
        scheduler = LinkScheduler(make_network())
        with pytest.raises(ValueError):
            scheduler.transfer("a", "b", 10, at=-1.0)

    def test_totals(self):
        scheduler = LinkScheduler(make_network())
        scheduler.transfer("a", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        scheduler.transfer("b", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        assert scheduler.total_wire_time == pytest.approx(2.0)
        assert scheduler.total_queued_time == pytest.approx(1.0)


# ----------------------------------------------------------------- endpoint capacity (c >= 1)
def max_concurrency(intervals):
    """Largest number of reservations overlapping at any instant."""
    boundaries = []
    for start, end in intervals:
        boundaries.append((start, 1))
        boundaries.append((end, -1))
    boundaries.sort()  # ends before starts at equal times: [a, b) intervals
    active = peak = 0
    for _, delta in boundaries:
        active += delta
        peak = max(peak, active)
    return peak


class TestLinkSchedulerCapacity:
    def test_capacity_admits_exactly_c_overlapping_reservations(self):
        scheduler = LinkScheduler(make_network(), capacities={STORAGE_ENDPOINT: 2})
        first = scheduler.transfer("a", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        second = scheduler.transfer("b", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        third = scheduler.transfer("c", STORAGE_ENDPOINT, 1_000_000, at=0.0)
        # Two slots: the first two start immediately, the third queues.
        assert first.started_at == 0.0 and second.started_at == 0.0
        assert third.started_at == pytest.approx(1.0)
        assert third.queued_time == pytest.approx(1.0)

    @pytest.mark.parametrize("capacity", [1, 2, 3, 5])
    def test_property_never_more_than_c_overlaps(self, capacity):
        """Property test: random traffic never exceeds the endpoint capacity."""
        rng = np.random.default_rng(capacity)
        scheduler = LinkScheduler(make_network(), capacities={STORAGE_ENDPOINT: capacity})
        for _ in range(120):
            source = f"cluster{rng.integers(0, 12)}"
            at = float(rng.uniform(0.0, 30.0))
            num_bytes = int(rng.integers(100_000, 2_000_000))
            if rng.uniform() < 0.5:
                scheduler.transfer(source, STORAGE_ENDPOINT, num_bytes, at=at)
            else:
                scheduler.transfer(STORAGE_ENDPOINT, source, num_bytes, at=at)
        intervals = scheduler.busy_intervals(STORAGE_ENDPOINT)
        assert len(intervals) == 120
        assert max_concurrency(intervals) <= capacity
        # The capacity is actually used, not just bounded.
        if capacity > 1:
            assert max_concurrency(intervals) == capacity

    def test_capacity_one_is_bit_identical_to_default(self):
        """c=1 must reproduce the serial scheduler's placements exactly."""
        rng = np.random.default_rng(7)
        requests = [
            (f"cluster{rng.integers(0, 6)}", float(rng.uniform(0.0, 20.0)), int(rng.integers(1, 3_000_000)))
            for _ in range(80)
        ]
        default = LinkScheduler(make_network())
        explicit = LinkScheduler(make_network(), capacities={STORAGE_ENDPOINT: 1})
        for source, at, num_bytes in requests:
            default.transfer(source, STORAGE_ENDPOINT, num_bytes, at=at)
            explicit.transfer(source, STORAGE_ENDPOINT, num_bytes, at=at)
        assert default.log == explicit.log

    def test_uncontended_transfer_still_costs_exactly_the_link_time(self):
        network = make_network(bandwidth_bytes_per_s=1e6, latency_s=0.25)
        scheduler = LinkScheduler(network, capacities={STORAGE_ENDPOINT: 4})
        scheduled = scheduler.transfer("a", STORAGE_ENDPOINT, 1_000_000, at=2.0)
        assert scheduled.queued_time == 0.0
        assert scheduled.duration == pytest.approx(network.transfer_time("a", STORAGE_ENDPOINT, 1_000_000))

    def test_capacity_validation(self):
        scheduler = LinkScheduler(make_network())
        with pytest.raises(ValueError):
            scheduler.set_capacity(STORAGE_ENDPOINT, 0)
        with pytest.raises(ValueError):
            LinkScheduler(make_network(), capacities={"x": -1})
        scheduler.set_capacity(STORAGE_ENDPOINT, 3)
        assert scheduler.capacity(STORAGE_ENDPOINT) == 3
        assert scheduler.capacity("elsewhere") == 1


# -------------------------------------------------------------------------------- topology
class TestUnboundedScheduler:
    def test_nothing_queues_and_wire_time_is_unchanged(self):
        scheduler = LinkScheduler(make_network(), unbounded=True)
        placed = [scheduler.transfer(f"c{i}", "storage", 2_000_000, at=0.0) for i in range(5)]
        assert all(t.started_at == 0.0 and t.elapsed == 2.0 for t in placed)
        assert scheduler.total_queued_time == 0.0
        assert scheduler.total_wire_time == 10.0
        # The books are still kept: reservations and backlog stay queryable.
        assert len(scheduler.busy_intervals("storage")) == 5
        assert scheduler.outstanding_backlog("storage", 1.0) == 5.0

    def test_capacity_is_infinite_and_cannot_be_set(self):
        scheduler = LinkScheduler(make_network(), unbounded=True)
        assert scheduler.capacity("anything") == float("inf")
        with pytest.raises(ValueError, match="unbounded"):
            scheduler.set_capacity("storage", 2)

    def test_availability_floor_and_fault_windows_still_hold(self):
        scheduler = LinkScheduler(make_network(), unbounded=True)
        scheduler.set_outages("storage", [(0.0, 4.0)])
        waited = scheduler.transfer("c0", "storage", 1_000_000, at=1.0)
        assert waited.started_at == 4.0
        gated = scheduler.transfer("c1", "c2", 1_000_000, at=1.0, earliest_start=3.0)
        assert gated.started_at == 3.0 and gated.queued_time == 2.0

    def test_topology_drops_every_capacity(self):
        topology = Topology().add_replica("r0", capacity=1).add_cluster("agg1", "r0")
        scheduler = topology.build_scheduler(unbounded=True)
        assert scheduler.capacity("r0") == scheduler.capacity("agg1") == float("inf")


class TestTopology:
    def build_two_sites(self) -> Topology:
        topology = Topology(
            default_link=NetworkLink(latency_s=0.01, bandwidth_bytes_per_s=10e6),
            default_wan_link=NetworkLink(latency_s=0.04, bandwidth_bytes_per_s=5e6),
        )
        topology.add_replica("site-a", capacity=2)
        topology.add_replica("site-b", capacity=1)
        topology.add_cluster("agg1", "site-a")
        topology.add_cluster("agg2", "site-b", NetworkLink(latency_s=0.02, bandwidth_bytes_per_s=8e6))
        return topology

    def test_home_path_is_the_lan_link(self):
        topology = self.build_two_sites()
        link = topology.path_link("agg2", "site-b")
        assert link.latency_s == 0.02
        assert link.bandwidth_bytes_per_s == 8e6

    def test_remote_path_composes_lan_and_wan(self):
        topology = self.build_two_sites()
        link = topology.path_link("agg2", "site-a")
        # Latencies add; bandwidth is the slower of the two hops.
        assert link.latency_s == pytest.approx(0.02 + 0.04)
        assert link.bandwidth_bytes_per_s == 5e6

    def test_wan_override_is_per_pair(self):
        topology = self.build_two_sites()
        topology.set_wan_link("site-a", "site-b", NetworkLink(latency_s=0.5, bandwidth_bytes_per_s=1e6))
        link = topology.path_link("agg1", "site-b")
        assert link.latency_s == pytest.approx(0.01 + 0.5)
        assert link.bandwidth_bytes_per_s == 1e6
        network = topology.build_network()
        assert network.link("site-a", "site-b").latency_s == 0.5
        assert network.link("site-b", "site-a").latency_s == 0.5

    def test_build_scheduler_applies_capacities(self):
        scheduler = self.build_two_sites().build_scheduler()
        assert scheduler.capacity("site-a") == 2
        assert scheduler.capacity("site-b") == 1
        # Cluster<->replica links are materialised into the network model.
        assert scheduler.network.link("agg2", "site-b").bandwidth_bytes_per_s == 8e6

    def test_builder_validation(self):
        topology = Topology()
        with pytest.raises(ValueError):
            topology.build_network()  # no replicas yet
        topology.add_replica("site-a")
        with pytest.raises(ValueError):
            topology.add_replica("site-a")  # duplicate
        with pytest.raises(ValueError):
            topology.add_replica("site-b", capacity=0)
        with pytest.raises(ValueError):
            topology.add_cluster("agg1", "nowhere")
        topology.add_cluster("agg1", "site-a")
        with pytest.raises(ValueError):
            topology.add_cluster("agg1", "site-a")  # name reuse
        with pytest.raises(ValueError):
            topology.set_wan_link("site-a", "site-a", NetworkLink(0.1, 1e6))
        with pytest.raises(ValueError):
            topology.set_wan_link("site-a", "missing", NetworkLink(0.1, 1e6))


# --------------------------------------------------------------------------- network actor
class TestNetworkActor:
    def test_upload_download_streams_and_phase_totals(self):
        actor = NetworkActor(make_topology(), model_bytes=1_000_000)
        up = actor.upload("agg1", 2, at=0.0)
        down = actor.download("agg2", 1, at=10.0)
        assert up == pytest.approx(2.0)    # two sequential 1s transfers
        assert down == pytest.approx(1.0)
        totals = actor.phase_totals()
        assert totals["upload"]["count"] == 2
        assert totals["download"]["count"] == 1
        assert totals["upload"]["time"] == pytest.approx(2.0)
        assert len(actor.transfers("upload")) == 2
        assert actor.transfers("download")[0].source == STORAGE_ENDPOINT

    def test_zero_models_is_free(self):
        actor = NetworkActor(make_topology(), model_bytes=1_000_000)
        assert actor.upload("agg1", 0, at=0.0) == 0.0
        assert actor.download("agg1", 0, at=0.0) == 0.0
        assert actor.transfers() == []

    def test_contention_between_clusters_shows_in_elapsed(self):
        actor = NetworkActor(make_topology(), model_bytes=1_000_000)
        actor.upload("agg1", 1, at=0.0)
        elapsed = actor.upload("agg2", 1, at=0.0)
        assert elapsed == pytest.approx(2.0)  # 1s queued + 1s wire

    def test_estimate_upload_pure(self):
        actor = NetworkActor(make_topology(), model_bytes=1_000_000)
        est = actor.estimate_upload("agg1", at=0.0)
        assert est == pytest.approx(1.0)
        assert actor.transfers() == []

    def test_rejects_nonpositive_model_bytes(self):
        with pytest.raises(ValueError):
            NetworkActor(make_topology(), model_bytes=0)


# ------------------------------------------------------------------ replica-aware network actor
class TestNetworkActorReplicas:
    def two_replica_actor(self, selection: str) -> NetworkActor:
        topology = Topology(
            default_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6),
            default_wan_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6),
        )
        topology.add_replica("site-a").add_replica("site-b")
        topology.add_cluster("agg1", "site-a").add_cluster("agg2", "site-b")
        return NetworkActor(topology=topology, model_bytes=1_000_000, selection=selection)

    def test_least_loaded_on_an_unbounded_fabric_ranks_by_wire_time_alone(self):
        topology = Topology(
            default_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6),
            default_wan_link=NetworkLink(latency_s=0.5, bandwidth_bytes_per_s=1e6),
        )
        topology.add_replica("site-a").add_replica("site-b").add_cluster("agg1", "site-a")
        actor = NetworkActor(
            topology=topology, model_bytes=1_000_000, selection="least-loaded", unbounded=True
        )
        # However much backlog piles on the home replica, backlog / inf is 0:
        # there is no queue to avoid, so the faster path always wins.
        for _ in range(4):
            assert actor.select_replica("agg1", at=0.0) == "site-a"
            assert actor.upload("agg1", 1, at=0.0) == 1.0

    def test_affinity_routes_to_the_home_replica(self):
        actor = self.two_replica_actor("affinity")
        actor.upload("agg1", 1, at=0.0)
        actor.upload("agg2", 1, at=0.0)
        assert actor.transfers("upload")[0].destination == "site-a"
        assert actor.transfers("upload")[1].destination == "site-b"
        # Different replicas: simultaneous uploads do not contend.
        assert all(t.queued_time == 0.0 for t in actor.transfers())

    def test_least_loaded_spreads_simultaneous_traffic(self):
        actor = self.two_replica_actor("least-loaded")
        actor.upload("agg1", 1, at=0.0)   # both empty -> declaration order: site-a
        actor.upload("agg1", 1, at=0.0)   # site-a now has backlog -> site-b
        destinations = [t.destination for t in actor.transfers("upload")]
        assert destinations == ["site-a", "site-b"]

    def test_least_loaded_accounts_for_capacity_and_path_cost(self):
        """Ranking is estimated completion time: backlog per capacity slot
        *plus* the composed path wire time (an empty remote replica no longer
        beats a strictly faster home replica for free)."""
        topology = Topology(default_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6))
        topology.add_replica("wide", capacity=4).add_replica("narrow", capacity=1)
        topology.add_cluster("agg1", "narrow")
        actor = NetworkActor(topology=topology, model_bytes=1_000_000, selection="least-loaded")
        # Both idle: home narrow costs 1.0s wire, remote wide costs the WAN
        # hop on top (0.05s latency) -> narrow wins despite declaration order.
        actor.upload("agg1", 1, at=0.0)
        assert actor.transfers()[-1].destination == "narrow"
        # Narrow now carries 1s/1 slot + 1.0 wire = 2.0; wide 0 + 1.05 -> wide.
        actor.upload("agg1", 1, at=0.0)
        assert actor.transfers()[-1].destination == "wide"
        # Wide's backlog is divided by its 4 slots: 1.05/4 + 1.05 = 1.31,
        # still cheaper than narrow's 2.0 -> wide again.
        actor.upload("agg1", 1, at=0.0)
        assert actor.transfers()[-1].destination == "wide"

    def test_selection_is_deterministic_between_estimate_and_commit(self):
        actor = self.two_replica_actor("least-loaded")
        actor.upload("agg1", 1, at=0.0)
        estimate = actor.estimate_upload("agg2", at=0.0)
        elapsed = actor.upload("agg2", 1, at=0.0)
        assert elapsed == pytest.approx(estimate)

    def test_replica_totals(self):
        actor = self.two_replica_actor("affinity")
        actor.upload("agg1", 2, at=0.0)
        actor.download("agg2", 1, at=0.0)
        totals = actor.replica_totals()
        assert totals["site-a"]["count"] == 2
        assert totals["site-b"]["count"] == 1
        assert totals["site-a"]["time"] == pytest.approx(2.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            NetworkActor(make_topology(), selection="random")

    def test_single_endpoint_actor_reports_one_replica(self):
        actor = NetworkActor(make_topology(), model_bytes=1_000_000)
        actor.upload("agg1", 1, at=0.0)
        assert actor.replicas == [STORAGE_ENDPOINT]
        assert actor.replica_totals()[STORAGE_ENDPOINT]["count"] == 1
        # The one-replica layout is an ordinary topology: clusters attach to it.
        actor.attach_cluster(
            "agg2", STORAGE_ENDPOINT, NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=2e6)
        )
        assert actor.upload("agg2", 1, at=5.0) == pytest.approx(0.5)


# ----------------------------------------------------------------------------- chain actor
class TestChainActor:
    def test_interaction_rides_next_block_boundary(self):
        actor = ChainActor(block_interval=2.0, consensus_delay=0.25)
        op = actor.interact("submitModel", "agg1", at=1.0)
        # ready at 1.05 -> boundary 2.0 -> final at 2.25
        assert op.block_index == 1
        assert op.sealed_at == pytest.approx(2.25)
        assert op.delay == pytest.approx(1.25)

    def test_interactions_ready_before_same_boundary_share_a_block(self):
        actor = ChainActor(block_interval=2.0)
        first = actor.interact("submitModel", "agg1", at=0.2)
        second = actor.interact("submitScore", "agg2", at=1.3)
        third = actor.interact("submitModel", "agg3", at=2.5)
        assert first.block_index == second.block_index == 1
        assert third.block_index == 2
        assert actor.blocks_spanned == 2

    def test_per_transaction_cost_can_push_past_a_boundary(self):
        actor = ChainActor(block_interval=2.0)
        bundled = actor.interact("submitScore", "agg1", at=1.96, num_transactions=3)
        # ready at 1.96 + 3 * TX_COST_S = 2.11 -> second boundary
        assert bundled.block_index == 2
        assert bundled.sealed_at == pytest.approx(4.0)

    def test_estimate_matches_interact_and_is_pure(self):
        actor = ChainActor(block_interval=2.0, consensus_delay=0.1)
        est = actor.estimate(3.7)
        assert actor.log == []
        op = actor.interact("x", "driver", at=3.7)
        assert op.delay == pytest.approx(est)

    def test_kind_totals(self):
        actor = ChainActor(block_interval=2.0)
        actor.interact("submitModel", "agg1", at=0.0)
        actor.interact("submitModel", "agg2", at=0.5)
        actor.interact("closeSemiRound", "driver", at=1.0)
        totals = actor.kind_totals()
        assert totals["submitModel"]["count"] == 2
        assert totals["closeSemiRound"]["transactions"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainActor(block_interval=0.0)
        with pytest.raises(ValueError):
            ChainActor(block_interval=1.0, consensus_delay=-0.1)
        actor = ChainActor(block_interval=1.0)
        with pytest.raises(ValueError):
            actor.interact("x", "a", at=-1.0)

    def test_transaction_ready_exactly_on_a_boundary_seals_there(self):
        """Regression: ``ready % block_interval == 0`` must ride *that*
        boundary, not wait a full extra interval (the old floor+1 bug)."""
        actor = ChainActor(block_interval=2.0, consensus_delay=0.25)
        # 1.95 + TX_COST_S == 2.0 exactly in binary floating point.
        assert 1.95 + TX_COST_S == 2.0
        on_boundary = actor.interact("submitModel", "agg1", at=1.95)
        assert on_boundary.block_index == 1
        assert on_boundary.sealed_at == pytest.approx(2.25)
        assert on_boundary.delay == pytest.approx(0.3)
        # Strictly past the boundary: the next block, as before.
        past = actor.interact("submitModel", "agg2", at=1.96)
        assert past.block_index == 2
        assert past.sealed_at == pytest.approx(4.25)

    def test_consensus_delay_helper(self):
        assert consensus_delay(1, 2.0) == pytest.approx(0.01 + 1.0)
        assert consensus_delay(4, 2.0) == pytest.approx(0.04 + 0.25)
        with pytest.raises(CliqueError):
            consensus_delay(0, 2.0)
        with pytest.raises(CliqueError):
            consensus_delay(3, 0.0)


# ----------------------------------------------------------------------------- comm fabric
class TestCommFabric:
    def make_fabric(self) -> CommFabric:
        return CommFabric(
            NetworkActor(make_topology(), model_bytes=1_000_000),
            ChainActor(block_interval=2.0, consensus_delay=0.2),
        )

    def test_estimate_submission_chains_upload_and_finality(self):
        fabric = self.make_fabric()
        est = fabric.estimate_submission("agg1", at=0.0)
        # upload 1s, then chain op at t=1: ready 1.05 -> sealed 2.2 -> delay 1.2
        assert est == pytest.approx(1.0 + 1.2)
        # Pure: the actual submission afterwards matches the estimate.
        store = fabric.upload("agg1", 1, at=0.0)
        chain = fabric.chain_op("submitModel", "agg1", at=store)
        assert store + chain == pytest.approx(est)

    def test_chain_op_with_zero_transactions_is_free(self):
        fabric = self.make_fabric()
        assert fabric.chain_op("submitScore", "agg1", at=0.0, num_transactions=0) == 0.0
        assert fabric.chain.log == []

    def test_summary_keys(self):
        fabric = self.make_fabric()
        fabric.upload("agg1", 1, at=0.0)
        fabric.download("agg1", 2, at=5.0)
        fabric.chain_op("submitModel", "agg1", at=1.0)
        summary = fabric.summary()
        assert summary["upload_count"] == 1
        assert summary["download_count"] == 2
        assert summary["chain_ops_submitModel"] == 1
        assert summary["chain_wait"] > 0
        assert summary["chain_blocks_spanned"] == 1


class TestConstantCostFabricUnit:
    def test_unquantised_chain_costs_the_per_interaction_constant(self):
        chain = ChainActor(block_interval=2.0, quantised=False)
        for at, n in ((0.0, 1), (0.7, 3), (1.999, 1), (13.25, 2)):
            assert chain.interact("submitScore", "agg1", at, n).delay == pytest.approx(
                n * TX_COST_S + 2.0, rel=1e-12
            )
            assert chain.estimate(at, n) == pytest.approx(n * TX_COST_S + 2.0, rel=1e-12)

    def test_constant_cost_constructor_sets_the_three_switches(self):
        fabric = CommFabric.constant_cost(model_bytes=1_000_000, block_period=2.0)
        assert fabric.network.replicas == [STORAGE_ENDPOINT]
        assert fabric.network.scheduler.unbounded
        assert not fabric.chain.quantised and fabric.chain.consensus_delay == 0.0
        # Free phase control: no cost, no log entry, no chain_wait_<kind> key.
        assert fabric.driver_op("startTraining", at=1.0) == 0.0
        assert fabric.chain.log == []
        assert "chain_wait_startTraining" not in fabric.summary()
        # An endpoint that never attached rides the default LAN link.
        assert fabric.upload("agg1", 1, at=0.0) == pytest.approx(0.005 + 1_000_000 / 100e6)
        assert fabric.upload("agg2", 1, at=0.0) == fabric.upload("agg3", 1, at=0.0)
        assert fabric.summary()["network_queued"] == 0.0

    def test_driver_ops_are_charged_on_a_contended_fabric(self):
        fabric = TestCommFabric().make_fabric()
        assert fabric.driver_op("endRound", at=0.0) > 0.0
        assert fabric.summary()["chain_ops_endRound"] == 1

    def test_knobs_the_constant_fabric_cannot_honour_are_rejected(self):
        with pytest.raises(ValueError, match="replica_capacity"):
            tiny_config("async", event_streams=False, replica_capacity=2)
        # The topology knobs are honoured on both settings.
        tiny_config("async", event_streams=False, storage_replicas=2, replication_mode="lazy",
                    replica_selection="least-loaded", link_latency_s=0.01, wan_latency_s=0.1)


# ------------------------------------------------------------------------------ end to end
def tiny_config(mode: str, event_streams: bool, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"es-{mode}-{event_streams}",
        workload=cifar10_workload(rounds=2, samples_per_class=10, image_size=8, learning_rate=0.05),
        clusters=edge_cluster_configs(num_clients=2),
        mode=mode,
        rounds=2,
        seed=3,
        event_streams=event_streams,
        **kwargs,
    )


class TestEventStreamExperiments:
    @pytest.mark.parametrize("mode", ["sync", "async", "semi"])
    def test_round_records_carry_chain_delay_accounting(self, mode):
        runner = ExperimentRunner(tiny_config(mode, event_streams=True))
        result = runner.run()
        assert runner.comm is not None
        # Every submitting round paid a real (block-quantised) chain delay.
        submitted_chain_times = [
            record.timing.chain_time
            for aggregator in result.aggregators
            for record in aggregator.history
            if not record.offline and record.timing.store_time > 0
        ]
        assert submitted_chain_times
        assert all(t > 0 for t in submitted_chain_times)
        # The fabric's chain log and the records tell one story: the summed
        # submitModel finality matches what submission rounds were charged.
        fabric_submit_wait = result.comm_metrics["chain_wait_submitModel"]
        assert fabric_submit_wait > 0
        # Per-round timings still sum to each cluster's clock (the books
        # balance even when costs come from the contended fabric).
        for aggregator_result in result.aggregators:
            summed = sum(r.timing.total_time for r in aggregator_result.history)
            assert summed == pytest.approx(aggregator_result.total_time)

    def test_comm_metrics_and_report(self):
        result = ExperimentRunner(tiny_config("async", event_streams=True)).run()
        metrics = result.comm_metrics
        assert metrics["upload_count"] > 0
        assert metrics["download_count"] > 0
        assert metrics["chain_ops"] > 0
        assert metrics["chain_blocks_observed"] > 0
        table = format_comm_table(result)
        assert "network upload" in table and "chain submitModel" in table

    def test_link_bandwidth_cap_creates_contention(self):
        free = ExperimentRunner(tiny_config("async", event_streams=True)).run()
        throttled = ExperimentRunner(
            tiny_config("async", event_streams=True, link_bandwidth_mbytes_per_s=0.05)
        ).run()
        assert throttled.comm_metrics["network_time"] > free.comm_metrics["network_time"]
        assert throttled.comm_metrics["network_queued"] >= free.comm_metrics["network_queued"]
        assert throttled.max_total_time > free.max_total_time

    def test_block_period_knob_stretches_chain_wait(self):
        fast = ExperimentRunner(tiny_config("async", event_streams=True, block_period=0.5)).run()
        slow = ExperimentRunner(tiny_config("async", event_streams=True, block_period=30.0)).run()
        assert slow.comm_metrics["chain_wait"] > fast.comm_metrics["chain_wait"]
        assert slow.max_total_time > fast.max_total_time

    def test_off_mode_rides_the_constant_cost_fabric_and_stays_identical(self):
        off_runner = ExperimentRunner(tiny_config("async", event_streams=False))
        off_result = off_runner.run()
        # The same actors, in the degenerate configuration — three switches.
        fabric = off_runner.comm
        assert isinstance(fabric, CommFabric)
        assert fabric.network.scheduler.unbounded
        assert not fabric.chain.quantised and fabric.chain.consensus_delay == 0.0
        assert fabric.free_phase_control
        assert all(a.comm is fabric for a in off_runner.aggregators)
        assert off_result.comm_metrics == fabric.summary()
        assert off_result.comm_metrics["upload_count"] > 0
        # Same config again: the constant-cost path is deterministic.
        repeat = ExperimentRunner(tiny_config("async", event_streams=False)).run()
        assert repeat.comm_metrics == off_result.comm_metrics
        for first, second in zip(off_result.aggregators, repeat.aggregators):
            assert first.total_time == second.total_time
            assert first.global_accuracy == second.global_accuracy
            assert [r.sim_time for r in first.history] == [r.sim_time for r in second.history]

    def test_event_streams_are_the_default(self):
        """Guard on the default flip: a config that says nothing gets the
        event-stream fabric, and results are unchanged from spelling the
        default out explicitly."""
        base = dict(
            name="es-default",
            workload=cifar10_workload(rounds=2, samples_per_class=10, image_size=8),
            clusters=edge_cluster_configs(num_clients=2),
            mode="async",
            rounds=2,
            seed=3,
        )
        config = ExperimentConfig(**base)
        assert config.event_streams is True
        runner = ExperimentRunner(config)
        result = runner.run()
        assert runner.comm is not None
        assert result.comm_metrics["upload_count"] > 0
        explicit = ExperimentRunner(ExperimentConfig(event_streams=True, **base)).run()
        for a, b in zip(result.aggregators, explicit.aggregators):
            assert a.total_time == b.total_time
            assert a.global_accuracy == b.global_accuracy

    def test_cli_default_and_opt_out(self):
        """--no-event-streams is the opt-out; the bare parser defaults on."""
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["run"]).event_streams is True
        assert parser.parse_args(["run", "--no-event-streams"]).event_streams is False
        assert parser.parse_args(["run", "--event-streams"]).event_streams is True

    @pytest.mark.parametrize("mode", ["sync", "semi"])
    def test_event_streams_are_deterministic(self, mode):
        first = ExperimentRunner(tiny_config(mode, event_streams=True)).run()
        second = ExperimentRunner(tiny_config(mode, event_streams=True)).run()
        assert first.comm_metrics == second.comm_metrics
        for a, b in zip(first.aggregators, second.aggregators):
            assert a.total_time == b.total_time

    def test_config_validation_of_stream_knobs(self):
        with pytest.raises(ValueError):
            tiny_config("async", event_streams=True, link_bandwidth_mbytes_per_s=0.0)
        with pytest.raises(ValueError):
            tiny_config("async", event_streams=True, link_latency_s=-0.1)
        with pytest.raises(ValueError):
            tiny_config("async", event_streams=True, block_period=0.0)
        with pytest.raises(ValueError):
            tiny_config("async", event_streams=True, storage_replicas=0)
        with pytest.raises(ValueError):
            tiny_config("async", event_streams=True, replica_capacity=0)
        with pytest.raises(ValueError):
            tiny_config("async", event_streams=True, replica_selection="round-robin")
        with pytest.raises(ValueError):
            tiny_config("async", event_streams=True, wan_latency_s=-1.0)
        with pytest.raises(ValueError):
            tiny_config("async", event_streams=True, wan_bandwidth_mbytes_per_s=0.0)


def test_format_comm_table_without_streams():
    result = ExperimentRunner(tiny_config("sync", event_streams=False)).run()
    table = format_comm_table(result)
    # A populated report: real upload/chain rows, no driver phase-control
    # rows (they are free and unlogged) and nothing queued anywhere.
    assert "network upload" in table and "chain submitModel" in table
    assert "chain startTraining" not in table and "chain endRound" not in table
    total = next(line for line in table.splitlines() if line.startswith("total network"))
    assert float(total.split()[3]) == 0.0


ALL_MODES = ("sync", "async", "semi", "hierarchical", "gossip")


def golden_sized_config(mode: str, **kwargs) -> ExperimentConfig:
    """The 3×2 two-round federation of ``scripts/regen_goldens.py``, constant-cost."""
    return ExperimentConfig(
        name=f"constant-{mode}",
        workload=cifar10_workload(rounds=2, samples_per_class=6, image_size=8, learning_rate=0.05),
        clusters=gpu_cluster_configs(num_clusters=3, num_clients=2),
        mode=mode,
        rounds=2,
        seed=3,
        partitioning="iid",
        event_streams=False,
        **kwargs,
    )


@pytest.mark.parametrize("mode", ALL_MODES)
class TestConstantCostRuns:
    """Conservation laws of the degenerate fabric, in every mode."""

    def test_nothing_queues(self, mode):
        metrics = ExperimentRunner(golden_sized_config(mode)).run().comm_metrics
        queued = {key: value for key, value in metrics.items() if key.endswith("_queued")}
        assert "network_queued" in queued and len(queued) > 4
        assert all(value == 0.0 for value in queued.values()), queued

    def test_chain_wait_is_the_sum_of_per_interaction_constants(self, mode):
        runner = ExperimentRunner(golden_sized_config(mode))
        metrics = runner.run().comm_metrics
        log = runner.comm.chain.log
        assert log
        expected = sum(op.num_transactions * TX_COST_S + runner.config.block_period for op in log)
        assert metrics["chain_wait"] == pytest.approx(expected, rel=1e-9)
        # Phase control is free and unlogged: only the clusters' own kinds.
        kinds = {key[len("chain_wait_"):] for key in metrics if key.startswith("chain_wait_")}
        assert kinds <= {"submitModel", "submitScore"}
        assert all(op.endpoint != "driver" for op in log)

    def test_round_records_account_for_every_second_on_the_wire(self, mode):
        result = ExperimentRunner(golden_sized_config(mode)).run()
        booked = sum(
            record.timing.pull_time + record.timing.store_time + record.timing.exchange_time
            for aggregator in result.aggregators
            for record in aggregator.history
        )
        assert result.comm_metrics["replication_count"] == 0  # single replica
        assert booked == pytest.approx(result.comm_metrics["network_time"], rel=1e-9)

    def test_topology_knobs_are_honoured(self, mode):
        base = ExperimentRunner(golden_sized_config(mode)).run()
        spread = ExperimentRunner(
            golden_sized_config(mode, storage_replicas=2, wan_latency_s=0.2)
        ).run()
        assert spread.comm_metrics["storage_replicas"] == 2
        # Still no contention: uploads and eager pushes start on request.  A
        # download may wait for its object to *arrive* (the read-your-writes
        # gate books that as queued time), never behind other traffic.
        assert spread.comm_metrics["upload_queued"] == 0.0
        assert spread.comm_metrics["replication_queued"] == 0.0
        if mode == "gossip" or spread.comm_metrics["download_count"] > 0:
            # Models crossed sites: eager pushes are on the books.
            assert spread.comm_metrics["replication_count"] > 0
            assert spread.comm_metrics["wan_bytes"] > base.comm_metrics["wan_bytes"] == 0.0


# --------------------------------------------------------------- semi-sync release timing
class TestSemiSyncReleaseTiming:
    def test_all_same_round_submitters_resume_at_or_after_release_time(self):
        """Regression: the quorum-triggering cluster must wait for
        closeSemiRound finality exactly like every blocked waiter — it used
        to be reactivated from its own clock, skipping the consensus wait."""
        from repro.sched.policies import OrchestrationContext, SemiSyncRoundPolicy, StaticRoster

        resumed = []

        class RecordingPolicy(SemiSyncRoundPolicy):
            def _on_submission(self, aggregator, slot):
                before = len(self.closures)
                super()._on_submission(aggregator, slot)
                if len(self.closures) > before and slot not in self._finished:
                    # This cluster's landing closed the round and it resumes.
                    release_time = self.closures[-1][4]
                    resumed.append(("closer", aggregator.name, aggregator.clock.now(), release_time))

            def _close_round(self, reason):
                blocked = [waiter for waiter, _slot in self._blocked.values()]
                release_time = super()._close_round(reason)
                for waiter in blocked:
                    resumed.append(("waiter", waiter.name, waiter.clock.now(), release_time))
                return release_time

        config = tiny_config("semi", event_streams=True)
        runner = ExperimentRunner(config)
        runner.build()
        policy = RecordingPolicy(
            OrchestrationContext(
                chain=runner.chain,
                driver=runner._driver_account,
                aggregators=runner.aggregators,
                timing=runner.timing_model,
                num_rounds=config.rounds,
                roster=StaticRoster(runner.aggregators),
                comm=runner.comm,
            )
        )
        policy.run()

        closures = policy.extras()["closures"]
        # Finality is strictly later than the close in event-stream mode, so
        # the resume assertion below is not vacuous.
        assert any(release > close for _, close, _, _, release in closures)
        closers = [entry for entry in resumed if entry[0] == "closer"]
        assert closers, "no quorum-triggering cluster resumed during the run"
        for _, _, clock_at_resume, release_time in resumed:
            assert clock_at_resume >= release_time - 1e-12

    def test_closures_record_release_time_not_before_close(self):
        result = ExperimentRunner(tiny_config("semi", event_streams=True)).run()
        closures = result.orchestration_extras["closures"]
        assert closures
        for _, close_time, _, _, release_time in closures:
            assert release_time >= close_time


# ----------------------------------------------------------------- topology end to end
def contended_config(**kwargs) -> ExperimentConfig:
    """Four identical GPU clusters on a throttled link: heavy storage contention."""
    return ExperimentConfig(
        name="topo-contended",
        workload=cifar10_workload(rounds=2, samples_per_class=10, image_size=8, learning_rate=0.05),
        clusters=gpu_cluster_configs(num_clusters=4, num_clients=2),
        mode="async",
        rounds=2,
        seed=3,
        event_streams=True,
        link_bandwidth_mbytes_per_s=0.05,
        **kwargs,
    )


class TestTopologyExperiments:
    def test_replicas_strictly_reduce_queueing_on_contended_workload(self):
        single = ExperimentRunner(contended_config()).run()
        double = ExperimentRunner(contended_config(storage_replicas=2)).run()
        assert single.comm_metrics["network_queued"] > 0
        for phase in ("upload", "download"):
            assert (
                double.comm_metrics[f"{phase}_queued"]
                <= single.comm_metrics[f"{phase}_queued"]
            )
        assert double.comm_metrics["network_queued"] < single.comm_metrics["network_queued"]
        assert double.max_total_time <= single.max_total_time

    def test_replica_capacity_reduces_queueing(self):
        serial = ExperimentRunner(contended_config()).run()
        parallel = ExperimentRunner(contended_config(replica_capacity=2)).run()
        assert parallel.comm_metrics["network_queued"] < serial.comm_metrics["network_queued"]
        assert parallel.max_total_time <= serial.max_total_time

    def test_per_replica_metrics_and_table(self):
        result = ExperimentRunner(
            contended_config(storage_replicas=2, replica_capacity=2)
        ).run()
        metrics = result.comm_metrics
        assert metrics["storage_replicas"] == 2
        assert metrics["replica_storage-0_count"] > 0
        assert metrics["replica_storage-1_count"] > 0
        total_transfers = metrics["upload_count"] + metrics["download_count"]
        assert (
            metrics["replica_storage-0_count"] + metrics["replica_storage-1_count"]
            == total_transfers
        )
        table = format_comm_table(result)
        assert "replica storage-0" in table and "replica storage-1" in table

    def test_least_loaded_selection_uses_every_replica(self):
        result = ExperimentRunner(
            contended_config(storage_replicas=2, replica_selection="least-loaded")
        ).run()
        metrics = result.comm_metrics
        assert metrics["replica_storage-0_count"] > 0
        assert metrics["replica_storage-1_count"] > 0

    def test_topology_runs_are_deterministic(self):
        first = ExperimentRunner(contended_config(storage_replicas=3, replica_capacity=2)).run()
        second = ExperimentRunner(contended_config(storage_replicas=3, replica_capacity=2)).run()
        assert first.comm_metrics == second.comm_metrics
        for a, b in zip(first.aggregators, second.aggregators):
            assert a.total_time == b.total_time


# ----------------------------------------------------------- fault-free bit identity (PR 7)
class TestFaultFreeBitIdentity:
    """The fault-injection subsystem at defaults is a provable no-op.

    Every mode, with event streams on and off, must produce bit-identical
    results whether the fault/resilience knobs are left alone or spelled out
    at their zero-rate defaults — the guard that adding the scenario engine
    did not perturb a single pre-existing run.
    """

    ALL_MODES = ("sync", "async", "semi", "hierarchical", "gossip")

    @pytest.mark.parametrize("event_streams", [True, False])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_explicit_zero_fault_knobs_change_nothing(self, mode, event_streams):
        baseline = ExperimentRunner(tiny_config(mode, event_streams)).run()
        explicit = ExperimentRunner(
            tiny_config(
                mode,
                event_streams,
                churn_rate=0.0,
                replica_outages=0,
                wan_partitions=0,
                retry_max=3,
                backoff_base_s=0.5,
                backoff_jitter=0.1,
                breaker_threshold=3,
                breaker_cooldown_s=60.0,
            )
        ).run()
        assert baseline.comm_metrics == explicit.comm_metrics
        for a, b in zip(baseline.aggregators, explicit.aggregators):
            assert a.total_time == b.total_time
            assert a.global_accuracy == b.global_accuracy
            assert a.global_loss == b.global_loss
            assert [r.sim_time for r in a.history] == [r.sim_time for r in b.history]

    def test_zero_knob_configs_build_no_plan(self):
        runner = ExperimentRunner(tiny_config("sync", True, churn_rate=0.0))
        runner.build()
        assert runner.fault_plan is None
        assert runner.comm is not None
        assert runner.comm.network.faults is None

    def test_zero_rate_plan_object_is_a_noop_actor_side(self):
        """Even an explicitly-passed zero FaultPlan leaves the transfer
        stream byte-for-byte identical to faults=None."""
        from repro.simnet.faults import FaultPlan

        def drive(actor: NetworkActor) -> list:
            actor.upload("a", 2, at=0.0)
            actor.download("b", 1, at=0.5)
            actor.upload("b", 1, at=0.6)
            return [
                (t.source, t.destination, t.started_at, t.finished_at)
                for t in actor.transfers()
            ]

        plain = NetworkActor(make_topology(), model_bytes=1_000_000)
        zeroed = NetworkActor(
            make_topology(), model_bytes=1_000_000, faults=FaultPlan(seed=7)
        )
        assert zeroed.faults is None  # zero plans are discarded at the door
        assert drive(plain) == drive(zeroed)
        assert zeroed.retries == 0 and zeroed.failovers == 0

    def test_fault_free_summary_exports_zeroed_resilience_keys(self):
        result = ExperimentRunner(tiny_config("async", True)).run()
        metrics = result.comm_metrics
        for key in (
            "retries",
            "backoff_wait_s",
            "failovers",
            "breaker_trips",
            "breaker_open_s",
            "breaker_fast_fails",
            "dropped_clients",
            "fault_outage_s",
            "fault_partition_s",
        ):
            assert metrics[key] == 0.0
