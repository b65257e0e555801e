"""Tests for the simulation sanitizer (:mod:`repro.analysis.sanitizer`).

The sanitizer must trip on artificially corrupted state at every hooked
layer (kernel, link scheduler and its windowed sweep, fabric totals, chain
transaction hashes; the evaluator's memo is in
``tests/test_evaluation.py``, the round-score memo and the decoded-model
table in ``tests/test_shared_round_work.py``), stay silent across default
runs of every mode, and — the core contract — leave a sanitized run
bit-identical to an unsanitized one.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.analysis import SanitizerViolation, SimulationSanitizer
from repro.chain.blockchain import Blockchain
from repro.chain.contract import Contract, contract_method
from repro.core.config import ExperimentConfig, cifar10_workload, edge_cluster_configs
from repro.core.runner import ExperimentRunner
from repro.sched.kernel import SimulationKernel
from repro.simnet.network import LinkScheduler, NetworkLink, NetworkModel, ScheduledTransfer

ALL_MODES = ("sync", "async", "semi", "hierarchical", "gossip")


def tiny_config(mode: str = "async", **kwargs) -> ExperimentConfig:
    kwargs.setdefault("clusters", edge_cluster_configs(num_clients=2))
    kwargs.setdefault("storage_replicas", 2)
    return ExperimentConfig(
        name=f"sanitizer-{mode}",
        workload=cifar10_workload(rounds=2, samples_per_class=8, image_size=8),
        mode=mode,
        rounds=2,
        seed=5,
        **kwargs,
    )


# -------------------------------------------------------------- kernel hook
class TestKernelHook:
    def test_trips_on_an_event_in_the_simulated_past(self):
        kernel = SimulationKernel()
        kernel.sanitizer = SimulationSanitizer()
        kernel.clock.advance_to(10.0)
        # Bypass schedule_at (which clamps to now): the raw queue accepts the
        # corrupted timestamp, and without the sanitizer the clock would
        # silently swallow it (advance_to ignores past timestamps).
        kernel.queue.push(5.0, lambda: None)
        with pytest.raises(SanitizerViolation, match="simulated past"):
            kernel.step()

    def test_silent_on_an_ordered_event_stream(self):
        kernel = SimulationKernel()
        kernel.sanitizer = SimulationSanitizer()
        fired = []
        kernel.schedule_at(1.0, lambda: fired.append(1))
        kernel.schedule_at(2.0, lambda: fired.append(2))
        kernel.run()
        assert fired == [1, 2]
        assert kernel.sanitizer.checks["event"] == 2

    def test_detached_kernel_does_not_check(self):
        kernel = SimulationKernel()
        kernel.clock.advance_to(10.0)
        kernel.queue.push(5.0, lambda: None)
        assert kernel.step()  # the pre-sanitizer behaviour: silently tolerated


# ----------------------------------------------------------- scheduler hook
class TestSchedulerHook:
    def build(self) -> LinkScheduler:
        scheduler = LinkScheduler()
        scheduler.sanitizer = SimulationSanitizer()
        return scheduler

    def test_silent_on_planned_transfers(self):
        scheduler = self.build()
        for at in (0.0, 1.0, 2.0):
            scheduler.transfer("a", "b", 1_000_000, at)
        assert scheduler.sanitizer.checks["reservation"] == 3

    def test_trips_on_a_transfer_starting_before_its_request(self):
        scheduler = self.build()
        corrupted = ScheduledTransfer(
            source="a", destination="b", num_bytes=1,
            requested_at=5.0, started_at=4.0, finished_at=6.0,
        )
        with pytest.raises(SanitizerViolation, match="before it was requested"):
            scheduler._commit(corrupted)

    def test_trips_on_negative_wire_time(self):
        scheduler = self.build()
        corrupted = ScheduledTransfer(
            source="a", destination="b", num_bytes=1,
            requested_at=0.0, started_at=5.0, finished_at=4.0,
        )
        with pytest.raises(SanitizerViolation, match="negative wire time"):
            scheduler._commit(corrupted)

    def test_trips_on_a_capacity_breach(self):
        scheduler = self.build()
        first = ScheduledTransfer(
            source="a", destination="b", num_bytes=1,
            requested_at=0.0, started_at=0.0, finished_at=10.0,
        )
        scheduler._commit(first)  # alone: fine
        overlapping = ScheduledTransfer(
            source="a", destination="c", num_bytes=1,
            requested_at=0.0, started_at=5.0, finished_at=15.0,
        )
        # Endpoint 'a' is serial (capacity 1); a second overlapping
        # reservation could never come out of the planner.
        with pytest.raises(SanitizerViolation, match="above its declared"):
            scheduler._commit(overlapping)

    def test_respects_raised_capacity(self):
        scheduler = self.build()
        scheduler.set_capacity("a", 2)
        for destination in ("b", "c"):
            scheduler._commit(
                ScheduledTransfer(
                    source="a", destination=destination, num_bytes=1,
                    requested_at=0.0, started_at=0.0, finished_at=10.0,
                )
            )
        third = ScheduledTransfer(
            source="a", destination="d", num_bytes=1,
            requested_at=0.0, started_at=5.0, finished_at=15.0,
        )
        with pytest.raises(SanitizerViolation, match="above its declared"):
            scheduler._commit(third)

    def test_accepts_any_overlap_on_an_unbounded_scheduler(self):
        scheduler = LinkScheduler(unbounded=True)
        scheduler.sanitizer = SimulationSanitizer()
        for destination in ("b", "c", "d"):
            placed = scheduler.transfer("a", destination, 1_000_000, at=0.0)
            assert placed.queued_time == 0.0
        assert scheduler.sanitizer.checks["reservation"] == 3

    def test_trips_on_a_start_inside_a_fault_window(self):
        scheduler = self.build()
        scheduler.set_outages("b", [(10.0, 20.0)])
        corrupted = ScheduledTransfer(
            source="a", destination="b", num_bytes=1,
            requested_at=15.0, started_at=15.0, finished_at=16.0,
        )
        with pytest.raises(SanitizerViolation, match="fault window"):
            scheduler._commit(corrupted)

    def test_planned_transfers_avoid_fault_windows(self):
        scheduler = self.build()
        scheduler.set_outages("b", [(0.0, 50.0)])
        scheduled = scheduler.transfer("a", "b", 1_000_000, 10.0)
        assert scheduled.started_at >= 50.0
        assert scheduler.sanitizer.checks["reservation"] == 1


# ---------------------------------------------------- placement window hook
class TestPlacementWindowHook:
    def build(self) -> LinkScheduler:
        # One megabyte a second: the first two transfers fill 'wide' over [0, 5).
        network = NetworkModel(NetworkLink(latency_s=0.0, bandwidth_bytes_per_s=1e6))
        scheduler = LinkScheduler(network, capacities={"wide": 2})
        scheduler.sanitizer = SimulationSanitizer()
        for i, at in enumerate((0.0, 0.0, 1.0)):
            scheduler.transfer(f"c{i}", "wide", 5_000_000, at)
        return scheduler

    def test_checks_placements_into_a_wide_endpoint_history(self):
        scheduler = self.build()
        before = scheduler.sanitizer.checks["placement_window"]
        scheduler.preview("late", "wide", 1_000_000, 0.5)
        scheduler.transfer("late", "wide", 1_000_000, 0.5)
        assert scheduler.sanitizer.checks["placement_window"] == before + 2

    def test_serial_placements_have_no_window_to_check(self):
        scheduler = LinkScheduler()
        scheduler.sanitizer = SimulationSanitizer()
        for at in (5.0, 0.0, 1.0):
            scheduler.transfer("a", "b", 1_000_000, at)
        assert scheduler.sanitizer.checks["placement_window"] == 0

    def test_trips_when_the_window_loses_a_saturated_block(self):
        scheduler = self.build()
        # A windowed sweep that forgets the blocks still open at ``at``.
        scheduler._saturated_intervals = lambda endpoint, at: []
        with pytest.raises(
            SanitizerViolation, match=r"endpoint 'wide' requested at t=0\.5 .* full saturation sweep"
        ):
            scheduler.preview("late", "wide", 1_000_000, 0.5)


# --------------------------------------------------------------- chain hook
class Ledger(Contract):
    name = "ledger"

    def __init__(self):
        super().__init__()
        self.entries = []

    @contract_method
    def record(self, values):
        self.entries.append(list(values))


class TestTxIdentityHook:
    def build(self, validator_accounts) -> Blockchain:
        chain = Blockchain(validator_accounts)
        chain.deploy_contract(Ledger())
        chain.sanitizer = SimulationSanitizer()
        return chain

    def test_every_sealed_transaction_is_rehashed(self, validator_accounts):
        chain = self.build(validator_accounts)
        for values in ([1], [2, 3], []):
            chain.send(validator_accounts[0], "ledger", "record", {"values": values})
        chain.mine_block()
        assert chain.sanitizer.checks["tx_identity"] == 3
        assert chain.verify_chain()

    def test_trips_on_arguments_mutated_after_submission(self, validator_accounts):
        chain = self.build(validator_accounts)
        values = [1, 2]
        tx_hash = chain.send(validator_accounts[0], "ledger", "record", {"values": values})
        # ``args`` is a read-only copy of the top level only.
        values.append(3)
        with pytest.raises(SanitizerViolation, match=f"transaction {tx_hash} now hashes to"):
            chain.mine_block()


# -------------------------------------------------------------- fabric hook
class TestFabricHook:
    def fake_fabric(self) -> SimpleNamespace:
        scheduler = SimpleNamespace(total_wire_time=1.0, total_queued_time=0.5, log=[1, 2])
        return SimpleNamespace(
            network=SimpleNamespace(
                scheduler=scheduler,
                transfer_log=[SimpleNamespace(wan_bytes=100)],
                decision_log=[1],
            ),
            chain=SimpleNamespace(log=[1]),
        )

    def test_silent_while_totals_grow(self):
        sanitizer = SimulationSanitizer()
        fabric = self.fake_fabric()
        sanitizer.observe_fabric(fabric)
        fabric.network.scheduler.total_wire_time = 2.0
        fabric.network.scheduler.log.append(3)
        fabric.network.transfer_log.append(SimpleNamespace(wan_bytes=150))
        fabric.network.decision_log.append(2)
        sanitizer.observe_fabric(fabric)
        assert sanitizer.checks["fabric"] == 2

    def test_trips_when_a_total_moves_backwards(self):
        sanitizer = SimulationSanitizer()
        fabric = self.fake_fabric()
        sanitizer.observe_fabric(fabric)
        fabric.network.transfer_log.append(SimpleNamespace(wan_bytes=-50))
        with pytest.raises(SanitizerViolation, match="wan_bytes moved backwards"):
            sanitizer.observe_fabric(fabric)

    def test_trips_when_the_log_shrinks(self):
        sanitizer = SimulationSanitizer()
        fabric = self.fake_fabric()
        sanitizer.observe_fabric(fabric)
        fabric.network.scheduler.log.pop()
        with pytest.raises(SanitizerViolation, match="log.*moved backwards"):
            sanitizer.observe_fabric(fabric)

    def test_trips_when_the_decision_log_shrinks(self):
        sanitizer = SimulationSanitizer()
        fabric = self.fake_fabric()
        sanitizer.observe_fabric(fabric)
        fabric.network.decision_log.pop()
        with pytest.raises(SanitizerViolation, match=r"decision_log\) moved backwards"):
            sanitizer.observe_fabric(fabric)

    def test_folds_only_the_transfers_logged_since_the_last_check(self):
        sanitizer = SimulationSanitizer()
        fabric = self.fake_fabric()
        sanitizer.observe_fabric(fabric)
        # An already-folded record is never read again: the running sum is the
        # watermark plus the new tail, not a re-sum of the whole log.
        fabric.network.transfer_log[0] = None
        fabric.network.transfer_log.append(SimpleNamespace(wan_bytes=150))
        sanitizer.observe_fabric(fabric)
        fabric.network.transfer_log.append(SimpleNamespace(wan_bytes=-300))
        with pytest.raises(SanitizerViolation, match="wan_bytes moved backwards: 250 -> -50"):
            sanitizer.observe_fabric(fabric)


# --------------------------------------------------------------- end to end
class TestSanitizedRuns:
    def test_default_config_attaches_no_sanitizer(self):
        runner = ExperimentRunner(tiny_config())
        runner.build()
        assert runner.sanitizer is None
        assert runner.comm is not None and runner.comm.sanitizer is None

    def test_sanitized_run_is_silent_and_actually_checks(self):
        runner = ExperimentRunner(tiny_config(sanitize=True))
        runner.run()  # a violation would raise out of here
        assert runner.sanitizer is not None
        report = runner.sanitizer.report()
        assert report["event"] > 0
        assert report["reservation"] > 0
        assert report["fabric"] > 0

    @pytest.mark.parametrize("event_streams", [True, False])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_sanitized_run_is_bit_identical(self, mode, event_streams):
        plain = ExperimentRunner(tiny_config(mode, event_streams=event_streams)).run()
        sanitized_runner = ExperimentRunner(
            tiny_config(mode, event_streams=event_streams, sanitize=True)
        )
        sanitized = sanitized_runner.run()
        # The constant-cost fabric's I/O is under the sanitizer too.
        assert sanitized_runner.sanitizer.checks["reservation"] > 0
        assert plain.comm_metrics == sanitized.comm_metrics
        assert plain.orchestration_extras == sanitized.orchestration_extras
        for a, b in zip(plain.aggregators, sanitized.aggregators):
            assert a.total_time == b.total_time
            assert a.global_accuracy == b.global_accuracy
            assert a.global_loss == b.global_loss
            assert [r.sim_time for r in a.history] == [r.sim_time for r in b.history]

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_sanitized_sampled_run_rechecks_every_memoised_evaluation(self, mode):
        # Sampled cohorts share scorer test sets and initial weights, so the
        # run's Evaluator answers most requests from its memo; sanitized,
        # each of those is recomputed and compared, and nothing moves.
        from repro.core.reporting import result_to_dict

        sampled = dict(population=1000, clients_per_round=8)
        plain_runner = ExperimentRunner(tiny_config(mode, **sampled))
        plain = plain_runner.run()
        sanitized_runner = ExperimentRunner(tiny_config(mode, sanitize=True, **sampled))
        sanitized = sanitized_runner.run()
        assert result_to_dict(plain) == result_to_dict(sanitized)
        hits = sanitized_runner.evaluator.hits
        assert hits == plain_runner.evaluator.hits > 0
        assert sanitized_runner.sanitizer.checks["evaluation"] == hits

    @pytest.mark.parametrize("scoring", ["multikrum", "cosine"])
    def test_sanitized_wide_round_rechecks_both_shared_memos(self, scoring):
        # Twelve scorers share one analysis of each round and one decoded
        # copy of each model; sanitized, every such hit is recomputed /
        # decoded again and compared, and nothing moves.
        from repro.core.config import gpu_cluster_configs
        from repro.core.reporting import result_to_dict

        wide = dict(
            clusters=gpu_cluster_configs(num_clusters=12, num_clients=1),
            scoring_algorithm=scoring,
        )
        plain = ExperimentRunner(tiny_config("sync", **wide)).run()
        sanitized_runner = ExperimentRunner(tiny_config("sync", sanitize=True, **wide))
        sanitized = sanitized_runner.run()
        assert result_to_dict(plain) == result_to_dict(sanitized)
        checks = sanitized_runner.sanitizer.checks
        assert checks["round_scores"] > 0 and checks["decoded_model"] > 0

    def test_sanitized_wide_capacity_two_run_rechecks_windows_and_tx_hashes(self):
        # Four replicas of capacity 2 picked least-loaded: placements land
        # inside the replicas' histories, so every one is swept from its
        # request time and re-derived from the full sweep; every sealed
        # transaction is re-hashed.  Nothing moves.
        from repro.core.config import gpu_cluster_configs
        from repro.core.reporting import result_to_dict

        wide = dict(
            clusters=gpu_cluster_configs(num_clusters=12, num_clients=1),
            scoring_algorithm="multikrum",
            storage_replicas=4,
            replica_capacity=2,
            replica_selection="least-loaded",
        )
        plain = ExperimentRunner(tiny_config("sync", **wide)).run()
        sanitized_runner = ExperimentRunner(tiny_config("sync", sanitize=True, **wide))
        sanitized = sanitized_runner.run()
        assert result_to_dict(plain) == result_to_dict(sanitized)
        checks = sanitized_runner.sanitizer.checks
        assert checks["placement_window"] > 0
        assert checks["tx_identity"] == sanitized.chain_metrics["transactions_processed"] + (
            sanitized.chain_metrics["transactions_failed"]
        )

    def test_sanitizer_works_under_fault_injection(self):
        # Outage windows and failover re-aims exercise the fault-window and
        # capacity checks against the real planner: still no false positives.
        config = tiny_config(
            sanitize=True,
            replication_mode="lazy",
            churn_rate=0.1,
            replica_outages=1,
            outage_duration_s=80.0,
        )
        runner = ExperimentRunner(config)
        runner.run()
        assert runner.sanitizer is not None
        assert runner.sanitizer.checks["reservation"] > 0
