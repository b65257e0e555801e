"""Tests for the replication subsystem (PR 4).

Replication is not free: an upload lands on exactly one storage replica, and
every other site only holds the artifact once a real origin→replica WAN
transfer has delivered it.  Covers, bottom-up:

* :class:`~repro.simnet.replication.ReplicaDirectory` — the availability
  ledger;
* :class:`~repro.simnet.network.LinkScheduler` — availability gating via
  ``earliest_start`` and the capacity-decrease guard;
* :class:`~repro.sched.actors.NetworkActor` — eager propagation, lazy
  fetches, origin pinning (``none``), read-your-writes download gating,
  cost-aware replica selection, and the replication metrics;
* :class:`~repro.sched.actors.ChainActor` — the genesis (block 0) anomaly;
* end-to-end experiments — replication accounting in ``comm_metrics``,
  determinism, and the bit-identity guarantees replication must not break.
"""

from __future__ import annotations

import pytest

from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
from repro.core.reporting import load_results_csv, save_results_csv
from repro.core.results import format_comm_table
from repro.core.runner import ExperimentRunner
from repro.sched.actors import ChainActor, CommFabric, NetworkActor
from repro.simnet.network import LinkScheduler, NetworkLink, NetworkModel, Topology
from repro.simnet.replication import REPLICATION_MODES, ReplicaDirectory


# ------------------------------------------------------------------ directory
class TestReplicaDirectory:
    def test_upload_fixes_origin_and_arrival(self):
        directory = ReplicaDirectory()
        assert not directory.known("cid-1")
        directory.record_upload("cid-1", "site-a", 3.0)
        assert directory.known("cid-1")
        assert directory.origin("cid-1") == "site-a"
        assert directory.arrival("cid-1", "site-a") == 3.0
        assert directory.arrival("cid-1", "site-b") is None
        assert len(directory) == 1

    def test_reupload_keeps_first_origin_and_earliest_arrival(self):
        directory = ReplicaDirectory()
        directory.record_upload("cid-1", "site-a", 5.0)
        directory.record_upload("cid-1", "site-b", 2.0)
        assert directory.origin("cid-1") == "site-a"
        assert directory.arrival("cid-1", "site-b") == 2.0
        directory.record_arrival("cid-1", "site-b", 9.0)   # later: ignored
        assert directory.arrival("cid-1", "site-b") == 2.0

    def test_none_is_never_known(self):
        directory = ReplicaDirectory()
        directory.record_upload("cid-1", "site-a", 0.0)
        assert not directory.known(None)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            ReplicaDirectory().record_arrival("cid-1", "site-a", -1.0)


# ------------------------------------------------------- scheduler foundations
def make_network(bandwidth_bytes_per_s: float = 1e6) -> NetworkModel:
    return NetworkModel(
        default_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=bandwidth_bytes_per_s)
    )


class TestSchedulerGatingAndCapacityGuard:
    def test_earliest_start_floors_placement_but_not_request_time(self):
        scheduler = LinkScheduler(make_network())
        gated = scheduler.transfer("storage", "agg1", 1_000_000, at=1.0, earliest_start=4.0)
        assert gated.requested_at == 1.0
        assert gated.started_at == pytest.approx(4.0)
        # The availability wait is accounted as queueing.
        assert gated.queued_time == pytest.approx(3.0)

    def test_earliest_start_before_request_time_is_a_no_op(self):
        scheduler = LinkScheduler(make_network())
        plain = scheduler.preview("a", "b", 1_000_000, at=5.0)
        floored = scheduler.preview("a", "b", 1_000_000, at=5.0, earliest_start=2.0)
        assert plain == floored

    def test_preview_matches_commit(self):
        scheduler = LinkScheduler(make_network())
        scheduler.transfer("a", "storage", 1_000_000, at=0.0)
        plan = scheduler.preview("a", "storage", 1_000_000, at=0.5, earliest_start=0.75)
        assert scheduler.log[-1].finished_at == pytest.approx(1.0)
        committed = scheduler.transfer("a", "storage", 1_000_000, at=0.5, earliest_start=0.75)
        assert committed == plan

    def test_capacity_decrease_with_committed_traffic_raises(self):
        """Regression: dropping an endpoint back to c=1 after overlapping
        reservations committed would violate the serial path's non-overlap
        assumption and silently produce overlapping "serial" placements."""
        scheduler = LinkScheduler(make_network(), capacities={"storage": 2})
        scheduler.transfer("a", "storage", 1_000_000, at=0.0)
        scheduler.transfer("b", "storage", 1_000_000, at=0.0)   # overlaps under c=2
        with pytest.raises(ValueError):
            scheduler.set_capacity("storage", 1)
        # Raising or restating the capacity is always fine.
        scheduler.set_capacity("storage", 2)
        scheduler.set_capacity("storage", 3)
        # And a *traffic-free* endpoint can still be lowered freely.
        fresh = LinkScheduler(make_network(), capacities={"storage": 4})
        fresh.set_capacity("storage", 1)
        assert fresh.capacity("storage") == 1


# ------------------------------------------------------------- chain genesis
class TestChainGenesis:
    def test_transaction_ready_at_time_zero_rides_block_one(self):
        """Regression: a transaction ready at exactly t=0 used to ride
        "block 0" and be final at consensus_delay — before any block
        interval had elapsed."""
        actor = ChainActor(block_interval=2.0, consensus_delay=0.25)
        op = actor.interact("submitModel", "agg1", at=0.0, num_transactions=0)
        assert op.block_index == 1
        assert op.sealed_at == pytest.approx(2.25)
        assert actor.estimate(0.0, num_transactions=0) == pytest.approx(2.25)

    def test_later_transactions_are_unaffected(self):
        actor = ChainActor(block_interval=2.0, consensus_delay=0.25)
        op = actor.interact("submitModel", "agg1", at=1.0)
        assert op.block_index == 1
        assert op.sealed_at == pytest.approx(2.25)


# ----------------------------------------------------------- replica selection
def two_site_actor(
    mode: str = "eager",
    selection: str = "affinity",
    wan: NetworkLink = None,
) -> NetworkActor:
    topology = Topology(
        default_link=NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6),
        default_wan_link=wan or NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6),
    )
    topology.add_replica("site-a").add_replica("site-b")
    topology.add_cluster("agg1", "site-a").add_cluster("agg2", "site-b")
    return NetworkActor(
        topology=topology, model_bytes=1_000_000, selection=selection, replication_mode=mode
    )


class TestCostAwareSelection:
    def test_empty_remote_replica_no_longer_beats_cheaper_busy_home(self):
        """Regression: with a slow WAN, an idle remote replica used to win on
        backlog alone even when the composed LAN+WAN wire time made it
        strictly slower than the home replica plus its tiny backlog."""
        actor = two_site_actor(
            selection="least-loaded",
            wan=NetworkLink(latency_s=5.0, bandwidth_bytes_per_s=1e6),
        )
        actor.upload("agg1", 1, at=0.0)   # home site-a: 1.0s wire beats 6.0s remote
        assert actor.transfers()[-1].destination == "site-a"
        # site-a backlog 1.0 + wire 1.0 = 2.0 still beats the empty remote's
        # 6.0s composed wire time: stay home.
        actor.upload("agg1", 1, at=0.0)
        assert actor.transfers()[-1].destination == "site-a"

    def test_least_loaded_download_waits_out_availability(self):
        """Least-loaded download ranking respects availability: an idle
        replica the object has not reached yet is charged the wait."""
        actor = two_site_actor(mode="eager", selection="least-loaded")
        actor.upload("agg1", 1, at=0.0, object_ids=["cid-1"])   # site-a, arrives site-b ~2.0
        # At t=1.0 site-a holds the object (backlog from the propagation
        # push), site-b receives it at 2.0; both downloads stay consistent
        # between estimate and commit.
        estimate = actor.estimate_download("agg2", at=1.0, object_id="cid-1")
        elapsed = actor.download("agg2", 1, at=1.0, object_ids=["cid-1"])
        assert elapsed == pytest.approx(estimate)


# -------------------------------------------------------------- actor streams
class TestReplicationStreams:
    def test_eager_upload_schedules_propagation_off_the_critical_path(self):
        actor = two_site_actor("eager")
        elapsed = actor.upload("agg1", 1, at=0.0, object_ids=["cid-1"])
        assert elapsed == pytest.approx(1.0)          # the uploader never waits for WAN pushes
        replication = actor.transfers("replication")
        assert len(replication) == 1
        push = replication[0]
        assert (push.source, push.destination) == ("site-a", "site-b")
        assert push.requested_at == pytest.approx(1.0)  # right after the upload commits
        assert actor.directory.arrival("cid-1", "site-b") == pytest.approx(push.finished_at)
        # The push is a real transfer in the scheduler's log, not bookkeeping.
        assert push in actor.scheduler.log

    def test_read_your_writes_gates_early_downloads(self):
        actor = two_site_actor("eager")
        actor.upload("agg1", 1, at=0.0, object_ids=["cid-1"])   # at site-b from t=2.0
        elapsed = actor.download("agg2", 1, at=0.5, object_ids=["cid-1"])
        download = actor.transfers("download")[-1]
        assert download.started_at == pytest.approx(2.0)        # waited for the arrival
        assert download.queued_time == pytest.approx(1.5)       # the wait is on the books
        assert elapsed == pytest.approx(2.5)

    def test_lazy_miss_commits_an_on_demand_fetch_the_downloader_waits_behind(self):
        actor = two_site_actor("lazy")
        actor.upload("agg1", 1, at=0.0, object_ids=["cid-1"])
        assert actor.transfers("replication") == []             # nothing pushed up front
        elapsed = actor.download("agg2", 1, at=3.0, object_ids=["cid-1"])
        fetch = actor.transfers("replication")[0]
        assert (fetch.source, fetch.destination) == ("site-a", "site-b")
        assert fetch.requested_at == pytest.approx(3.0)
        download = actor.transfers("download")[-1]
        assert download.started_at >= fetch.finished_at
        assert elapsed == pytest.approx(2.0)                    # 1s fetch + 1s download
        # A second consumer at the same site hits the ledger: no second fetch.
        actor.download("agg2", 1, at=10.0, object_ids=["cid-1"])
        assert len(actor.transfers("replication")) == 1

    def test_lazy_estimate_matches_commit(self):
        actor = two_site_actor("lazy")
        actor.upload("agg1", 1, at=0.0, object_ids=["cid-1"])
        estimate = actor.estimate_download("agg2", at=3.0, object_id="cid-1")
        assert actor.transfers("replication") == []             # estimates stay pure
        elapsed = actor.download("agg2", 1, at=3.0, object_ids=["cid-1"])
        assert elapsed == pytest.approx(estimate)

    def test_none_mode_pins_downloads_to_the_origin_replica(self):
        for selection in ("affinity", "least-loaded"):
            actor = two_site_actor("none", selection=selection)
            actor.upload("agg1", 1, at=0.0, object_ids=["cid-1"])
            actor.download("agg2", 1, at=5.0, object_ids=["cid-1"])
            actor.download("agg2", 1, at=9.0, object_ids=["cid-1"])
            downloads = actor.transfers("download")
            assert all(t.source == "site-a" for t in downloads)
            assert actor.transfers("replication") == []

    def test_unknown_objects_keep_the_legacy_free_replication_semantics(self):
        """Transfers that do not thread object ids behave exactly as before
        the ledger existed: no gating, no propagation."""
        tracked = two_site_actor("eager")
        legacy = two_site_actor("eager")
        tracked.upload("agg1", 1, at=0.0)
        legacy.upload("agg1", 1, at=0.0)
        tracked.download("agg2", 1, at=0.5)
        legacy.download("agg2", 1, at=0.5)
        assert tracked.scheduler.log == legacy.scheduler.log
        assert tracked.transfers("replication") == []

    def test_object_ids_must_match_the_model_count(self):
        actor = two_site_actor("eager")
        with pytest.raises(ValueError):
            actor.upload("agg1", 2, at=0.0, object_ids=["cid-1"])
        with pytest.raises(ValueError):
            actor.download("agg1", 1, at=0.0, object_ids=["a", "b"])

    def test_replication_mode_validation(self):
        with pytest.raises(ValueError):
            two_site_actor("gossip")
        assert set(REPLICATION_MODES) == {"eager", "lazy", "none"}

    def test_replication_totals_by_receiving_site(self):
        actor = two_site_actor("eager")
        actor.upload("agg1", 1, at=0.0, object_ids=["cid-1"])
        actor.upload("agg2", 1, at=0.0, object_ids=["cid-2"])
        totals = actor.replication_totals()
        assert totals["site-a"]["count"] == 1   # cid-2 pushed a->b? no: b->a
        assert totals["site-b"]["count"] == 1
        # Caller-facing replica totals exclude the propagation traffic.
        replica_totals = actor.replica_totals()
        assert replica_totals["site-a"]["count"] == 1
        assert replica_totals["site-b"]["count"] == 1
        phase = actor.phase_totals()
        assert phase["replication"]["count"] == 2
        assert phase["replication"]["time"] > 0


# ------------------------------------------------------------ fabric estimates
class TestSubmissionEstimateIncludesLazyFetch:
    def make_fabric(self, mode: str) -> CommFabric:
        wan = NetworkLink(latency_s=0.5, bandwidth_bytes_per_s=1e6)
        return CommFabric(
            two_site_actor(mode, wan=wan),
            ChainActor(block_interval=2.0, consensus_delay=0.2),
        )

    def test_lazy_submission_estimate_charges_the_possible_fetch(self):
        eager = self.make_fabric("eager")
        lazy = self.make_fabric("lazy")
        none = self.make_fabric("none")
        base = eager.estimate_submission("agg1", at=0.0)
        assert none.estimate_submission("agg1", at=0.0) == pytest.approx(base)
        # The lazy estimate adds the worst origin->peer fetch wire time
        # (0.5s WAN latency + 1s serialisation).
        assert lazy.estimate_submission("agg1", at=0.0) == pytest.approx(base + 1.5)
        # Pure: nothing was committed by any estimate.
        assert lazy.network.transfers() == []

    def test_download_estimate_matches_the_committed_download(self):
        fabric = self.make_fabric("lazy")
        fabric.upload("agg1", 1, at=0.0, object_ids=["cid-1"])
        estimate = fabric.network.estimate_download("agg2", at=3.0, object_id="cid-1")
        assert fabric.network.transfers("replication") == []    # still pure
        elapsed = fabric.download("agg2", 1, at=3.0, object_ids=["cid-1"])
        assert elapsed == pytest.approx(estimate)


# ------------------------------------------------------------------ end to end
def replicated_config(**kwargs) -> ExperimentConfig:
    """Four GPU clusters over two storage sites on a throttled link."""
    defaults = dict(
        name="replication-e2e",
        workload=cifar10_workload(rounds=2, samples_per_class=10, image_size=8, learning_rate=0.05),
        clusters=gpu_cluster_configs(num_clusters=4, num_clients=2),
        mode="async",
        rounds=2,
        seed=3,
        event_streams=True,
        link_bandwidth_mbytes_per_s=0.05,
        storage_replicas=2,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestReplicationExperiments:
    def test_eager_run_reports_nonzero_propagation_per_replica(self):
        result = ExperimentRunner(replicated_config(replication_mode="eager")).run()
        metrics = result.comm_metrics
        assert metrics["replication_count"] > 0
        assert metrics["replication_time"] > 0
        for replica in ("storage-0", "storage-1"):
            assert metrics[f"replica_{replica}_replication_count"] > 0
            assert metrics[f"replica_{replica}_replication_time"] > 0
        # Every upload was pushed to the one peer site exactly once.
        assert metrics["replication_count"] == metrics["upload_count"]
        table = format_comm_table(result)
        assert "network replication" in table
        assert "replicate -> storage-0" in table

    def test_lazy_run_accounts_on_demand_fetches(self):
        result = ExperimentRunner(replicated_config(replication_mode="lazy")).run()
        metrics = result.comm_metrics
        assert metrics["replication_count"] > 0
        # Lazy never moves an object a site did not ask for: at most one
        # fetch per (object, non-origin site) means never more than eager.
        eager = ExperimentRunner(replicated_config(replication_mode="eager")).run()
        assert metrics["replication_count"] <= eager.comm_metrics["replication_count"]

    def test_total_network_row_counts_the_transfers_its_times_cover(self):
        """The row's time and queued cells are scheduler-wide; its event count
        used to add uploads and downloads only, leaving the lazy fetches out."""
        runner = ExperimentRunner(replicated_config(replication_mode="lazy"))
        result = runner.run()
        total_row = next(
            line
            for line in format_comm_table(result).splitlines()
            if line.startswith("total network")
        )
        metrics = result.comm_metrics
        assert metrics["replication_count"] > 0
        assert int(total_row.split()[-1]) == len(runner.comm.network.scheduler.log)
        assert int(total_row.split()[-1]) > metrics["upload_count"] + metrics["download_count"]

    def test_none_run_never_replicates(self):
        result = ExperimentRunner(replicated_config(replication_mode="none")).run()
        metrics = result.comm_metrics
        assert metrics["replication_count"] == 0
        assert metrics["replication_time"] == 0
        assert metrics["download_count"] > 0

    @pytest.mark.parametrize("mode", ["eager", "lazy", "none"])
    def test_replication_schedules_are_deterministic(self, mode):
        first = ExperimentRunner(replicated_config(replication_mode=mode)).run()
        second = ExperimentRunner(replicated_config(replication_mode=mode)).run()
        assert first.comm_metrics == second.comm_metrics
        for a, b in zip(first.aggregators, second.aggregators):
            assert a.total_time == b.total_time
            assert [r.sim_time for r in a.history] == [r.sim_time for r in b.history]

    def test_single_replica_is_bit_identical_across_modes(self):
        """With storage_replicas=1 replication has nothing to do: every mode
        must reproduce the pre-replication scheduler bit-identically."""
        results = {
            mode: ExperimentRunner(
                replicated_config(storage_replicas=1, replication_mode=mode)
            ).run()
            for mode in REPLICATION_MODES
        }
        eager, lazy, none = (results[m] for m in ("eager", "lazy", "none"))
        for other in (lazy, none):
            assert eager.comm_metrics == other.comm_metrics
            for a, b in zip(eager.aggregators, other.aggregators):
                assert a.total_time == b.total_time
                assert [r.sim_time for r in a.history] == [r.sim_time for r in b.history]
        assert eager.comm_metrics["replication_count"] == 0

    def test_csv_export_carries_replication_columns(self, tmp_path):
        result = ExperimentRunner(replicated_config(replication_mode="eager")).run()
        rows = load_results_csv(save_results_csv([result], tmp_path / "runs.csv"))
        assert float(rows[0]["replication_count"]) > 0
        assert float(rows[0]["replication_time_s"]) > 0
