"""Tests for the UnifyFL orchestrator smart contract (Algorithm 1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain
from repro.chain.events import EventFilter
from repro.core.config import ExperimentConfig, cifar10_workload, gpu_cluster_configs
from repro.core.contract import ModelSubmission, UnifyFLContract
from repro.core.runner import ExperimentRunner


def _register(chain, accounts):
    for account in accounts:
        chain.send(account, "unifyfl", "registerAggregator")
    chain.mine_until_empty()


class TestRegistration:
    def test_register_records_aggregators(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        registered = unifyfl_chain.call("unifyfl", "getAggregators")
        assert registered == [a.address for a in validator_accounts]

    def test_double_registration_reverts(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        tx_hash = unifyfl_chain.send(validator_accounts[0], "unifyfl", "registerAggregator")
        unifyfl_chain.mine_until_empty()
        receipt = unifyfl_chain.receipt(tx_hash)
        assert not receipt.success
        assert "already registered" in receipt.error

    def test_registration_emits_event(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts[:1])
        events = unifyfl_chain.events(EventFilter(name="AggregatorRegistered"))
        assert len(events) == 1
        assert events[0].payload["aggregator"] == validator_accounts[0].address


class TestSyncPhases:
    def test_start_training_increments_round_and_emits(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        unifyfl_chain.send(validator_accounts[0], "unifyfl", "startTraining")
        unifyfl_chain.mine_until_empty()
        assert unifyfl_chain.call("unifyfl", "getCurrentRound") == 1
        assert unifyfl_chain.call("unifyfl", "getPhase") == "training"
        assert len(unifyfl_chain.events(EventFilter(name="StartTraining"))) == 1

    def test_start_training_requires_aggregators(self, unifyfl_chain, validator_accounts):
        tx_hash = unifyfl_chain.send(validator_accounts[0], "unifyfl", "startTraining")
        unifyfl_chain.mine_until_empty()
        assert not unifyfl_chain.receipt(tx_hash).success

    def test_submit_outside_training_phase_reverts(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        tx_hash = unifyfl_chain.send(
            validator_accounts[0], "unifyfl", "submitModel", {"cid": "Qm" + "a" * 64}
        )
        unifyfl_chain.mine_until_empty()
        assert not unifyfl_chain.receipt(tx_hash).success

    def test_unregistered_submitter_reverts(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts[:2])
        unifyfl_chain.send(validator_accounts[0], "unifyfl", "startTraining")
        unifyfl_chain.mine_until_empty()
        outsider = Account.create(seed=321)
        unifyfl_chain.register_account(outsider)
        tx_hash = unifyfl_chain.send(outsider, "unifyfl", "submitModel", {"cid": "Qm" + "b" * 64})
        unifyfl_chain.mine_until_empty()
        assert not unifyfl_chain.receipt(tx_hash).success

    def test_full_sync_round_flow(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        driver = validator_accounts[0]
        unifyfl_chain.send(driver, "unifyfl", "startTraining")
        unifyfl_chain.mine_until_empty()

        cids = ["Qm" + str(i) * 64 for i in range(len(validator_accounts))]
        for account, cid in zip(validator_accounts, cids):
            unifyfl_chain.send(account, "unifyfl", "submitModel", {"cid": cid, "timestamp": 1.0})
        unifyfl_chain.mine_until_empty()
        assert unifyfl_chain.call("unifyfl", "roundSubmissionCount", {"round_number": 1}) == 3

        unifyfl_chain.send(driver, "unifyfl", "startScoring")
        unifyfl_chain.mine_until_empty()
        assert unifyfl_chain.call("unifyfl", "getPhase") == "scoring"

        # Every submission received a majority of scorers (N // 2 + 1 = 2).
        address_by_account = {a.address: a for a in validator_accounts}
        for cid in cids:
            submission = unifyfl_chain.call("unifyfl", "getSubmission", {"cid": cid})
            scorers = submission["assigned_scorers"]
            assert len(scorers) == 2
            assert submission["submitter"] not in scorers
            for scorer_address in scorers:
                unifyfl_chain.send(
                    address_by_account[scorer_address],
                    "unifyfl",
                    "submitScore",
                    {"cid": cid, "score": 0.5, "timestamp": 2.0},
                )
        unifyfl_chain.mine_until_empty()

        records = unifyfl_chain.call("unifyfl", "getLatestModelsWithScores")
        assert len(records) == 3
        assert all(len(r["scores"]) == 2 for r in records)

        unifyfl_chain.send(driver, "unifyfl", "endRound")
        unifyfl_chain.mine_until_empty()
        assert unifyfl_chain.call("unifyfl", "getPhase") == "idle"

    def test_duplicate_cid_rejected(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        unifyfl_chain.send(validator_accounts[0], "unifyfl", "startTraining")
        unifyfl_chain.mine_until_empty()
        cid = "Qm" + "c" * 64
        unifyfl_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": cid})
        unifyfl_chain.mine_until_empty()
        tx_hash = unifyfl_chain.send(validator_accounts[1], "unifyfl", "submitModel", {"cid": cid})
        unifyfl_chain.mine_until_empty()
        assert not unifyfl_chain.receipt(tx_hash).success

    def test_score_from_unassigned_scorer_reverts(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        driver = validator_accounts[0]
        unifyfl_chain.send(driver, "unifyfl", "startTraining")
        unifyfl_chain.mine_until_empty()
        cid = "Qm" + "d" * 64
        unifyfl_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": cid})
        unifyfl_chain.mine_until_empty()
        unifyfl_chain.send(driver, "unifyfl", "startScoring")
        unifyfl_chain.mine_until_empty()
        submission = unifyfl_chain.call("unifyfl", "getSubmission", {"cid": cid})
        not_assigned = [
            a for a in validator_accounts
            if a.address not in submission["assigned_scorers"]
        ]
        # The submitter itself is never assigned with 3 aggregators.
        tx_hash = unifyfl_chain.send(not_assigned[0], "unifyfl", "submitScore", {"cid": cid, "score": 1.0})
        unifyfl_chain.mine_until_empty()
        assert not unifyfl_chain.receipt(tx_hash).success

    def test_scores_after_scoring_phase_rejected(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        driver = validator_accounts[0]
        unifyfl_chain.send(driver, "unifyfl", "startTraining")
        unifyfl_chain.mine_until_empty()
        cid = "Qm" + "e" * 64
        unifyfl_chain.send(validator_accounts[1], "unifyfl", "submitModel", {"cid": cid})
        unifyfl_chain.mine_until_empty()
        unifyfl_chain.send(driver, "unifyfl", "startScoring")
        unifyfl_chain.mine_until_empty()
        unifyfl_chain.send(driver, "unifyfl", "endRound")
        unifyfl_chain.mine_until_empty()
        submission = unifyfl_chain.call("unifyfl", "getSubmission", {"cid": cid})
        scorer = next(a for a in validator_accounts if a.address in submission["assigned_scorers"])
        tx_hash = unifyfl_chain.send(scorer, "unifyfl", "submitScore", {"cid": cid, "score": 0.9})
        unifyfl_chain.mine_until_empty()
        assert not unifyfl_chain.receipt(tx_hash).success


class TestAsyncMode:
    @pytest.fixture()
    def async_chain(self, validator_accounts):
        chain = Blockchain(validator_accounts, block_period=1.0)
        chain.deploy_contract(UnifyFLContract(mode="async", scorer_seed=1))
        _register(chain, validator_accounts)
        return chain

    def test_submission_allowed_without_phase(self, async_chain, validator_accounts):
        cid = "Qm" + "f" * 64
        async_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": cid, "timestamp": 3.0})
        async_chain.mine_until_empty()
        submission = async_chain.call("unifyfl", "getSubmission", {"cid": cid})
        assert submission["cid"] == cid

    def test_scorers_assigned_immediately(self, async_chain, validator_accounts):
        cid = "Qm" + "1" * 64
        async_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": cid})
        async_chain.mine_until_empty()
        submission = async_chain.call("unifyfl", "getSubmission", {"cid": cid})
        assert len(submission["assigned_scorers"]) == 2
        events = async_chain.events(EventFilter(name="ScorersAssigned"))
        assert len(events) == 1

    def test_pending_assignments_tracked_and_cleared(self, async_chain, validator_accounts):
        cid = "Qm" + "2" * 64
        async_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": cid})
        async_chain.mine_until_empty()
        submission = async_chain.call("unifyfl", "getSubmission", {"cid": cid})
        scorer_address = submission["assigned_scorers"][0]
        pending = async_chain.call("unifyfl", "getAssignedModels", {"scorer": scorer_address})
        assert cid in pending
        scorer = next(a for a in validator_accounts if a.address == scorer_address)
        async_chain.send(scorer, "unifyfl", "submitScore", {"cid": cid, "score": 0.4})
        async_chain.mine_until_empty()
        pending_after = async_chain.call("unifyfl", "getAssignedModels", {"scorer": scorer_address})
        assert cid not in pending_after

    def test_before_time_filters_visibility(self, async_chain, validator_accounts):
        early = "Qm" + "3" * 64
        late = "Qm" + "4" * 64
        async_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": early, "timestamp": 10.0})
        async_chain.send(validator_accounts[1], "unifyfl", "submitModel", {"cid": late, "timestamp": 100.0})
        async_chain.mine_until_empty()
        visible = async_chain.call("unifyfl", "getLatestModelsWithScores", {"before_time": 50.0})
        cids = {r["cid"] for r in visible}
        assert early in cids and late not in cids

    def test_score_timestamps_filtered(self, async_chain, validator_accounts):
        cid = "Qm" + "5" * 64
        async_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": cid, "timestamp": 1.0})
        async_chain.mine_until_empty()
        submission = async_chain.call("unifyfl", "getSubmission", {"cid": cid})
        scorer = next(a for a in validator_accounts if a.address == submission["assigned_scorers"][0])
        async_chain.send(scorer, "unifyfl", "submitScore", {"cid": cid, "score": 0.7, "timestamp": 90.0})
        async_chain.mine_until_empty()
        early_view = async_chain.call("unifyfl", "getLatestModelsWithScores", {"before_time": 50.0})
        late_view = async_chain.call("unifyfl", "getLatestModelsWithScores", {"before_time": 100.0})
        assert early_view[0]["scores"] == {}
        assert len(late_view[0]["scores"]) == 1

    def test_start_scoring_rejected_in_async(self, async_chain, validator_accounts):
        tx_hash = async_chain.send(validator_accounts[0], "unifyfl", "startScoring")
        async_chain.mine_until_empty()
        assert not async_chain.receipt(tx_hash).success


class TestSemiMode:
    @pytest.fixture()
    def semi_chain(self, validator_accounts):
        chain = Blockchain(validator_accounts, block_period=1.0)
        chain.deploy_contract(UnifyFLContract(mode="semi", scorer_seed=1))
        _register(chain, validator_accounts)
        return chain

    def test_semi_starts_buffering_in_round_one(self, semi_chain):
        assert semi_chain.call("unifyfl", "getPhase") == "buffering"
        assert semi_chain.call("unifyfl", "getCurrentRound") == 1

    def test_submission_buffers_and_assigns_scorers(self, semi_chain, validator_accounts):
        cid = "Qm" + "a" * 64
        semi_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": cid, "timestamp": 5.0})
        semi_chain.mine_until_empty()
        submission = semi_chain.call("unifyfl", "getSubmission", {"cid": cid})
        assert len(submission["assigned_scorers"]) == 2
        status = semi_chain.call("unifyfl", "getSemiRoundStatus")
        assert status == {
            "round": 1,
            "buffered": 1,
            "submitters": 1,
            "quorum_k": 2,
            "opened_at": 0.0,
            "quorum_reached": False,
        }

    def test_quorum_event_emitted_at_threshold(self, semi_chain, validator_accounts):
        for i, account in enumerate(validator_accounts[:2]):
            semi_chain.send(account, "unifyfl", "submitModel", {"cid": "Qm" + str(i) * 64})
        semi_chain.mine_until_empty()
        assert semi_chain.call("unifyfl", "getSemiRoundStatus")["quorum_reached"]
        events = semi_chain.events(EventFilter(name="SemiQuorumReached"))
        assert len(events) == 1
        assert events[0].payload["buffered"] == 2

    def test_quorum_event_fires_once_even_past_threshold(self, semi_chain, validator_accounts):
        for i, account in enumerate(validator_accounts):
            semi_chain.send(account, "unifyfl", "submitModel", {"cid": "Qm" + str(i) * 64})
        semi_chain.mine_until_empty()
        events = semi_chain.events(EventFilter(name="SemiQuorumReached"))
        assert len(events) == 1
        assert events[0].payload["submitters"] == 2

    def test_quorum_counts_distinct_clusters_not_submissions(self, semi_chain, validator_accounts):
        # One cluster resubmitting must not reach a 2-cluster quorum by itself.
        for tag in ("x", "y"):
            semi_chain.send(
                validator_accounts[0], "unifyfl", "submitModel", {"cid": "Qm" + tag * 64}
            )
        semi_chain.mine_until_empty()
        status = semi_chain.call("unifyfl", "getSemiRoundStatus")
        assert status["buffered"] == 2
        assert status["submitters"] == 1
        assert not status["quorum_reached"]
        assert not semi_chain.events(EventFilter(name="SemiQuorumReached"))

    def test_close_advances_round_and_clears_buffer(self, semi_chain, validator_accounts):
        semi_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": "Qm" + "b" * 64})
        semi_chain.mine_until_empty()
        semi_chain.send(validator_accounts[0], "unifyfl", "closeSemiRound", {"timestamp": 12.5})
        semi_chain.mine_until_empty()
        status = semi_chain.call("unifyfl", "getSemiRoundStatus")
        assert status["round"] == 2
        assert status["buffered"] == 0
        assert status["opened_at"] == 12.5
        closed = semi_chain.events(EventFilter(name="SemiRoundClosed"))
        assert len(closed) == 1
        assert closed[0].payload["duration"] == 12.5

    def test_close_empty_round_reverts(self, semi_chain, validator_accounts):
        tx_hash = semi_chain.send(validator_accounts[0], "unifyfl", "closeSemiRound", {"timestamp": 1.0})
        semi_chain.mine_until_empty()
        receipt = semi_chain.receipt(tx_hash)
        assert not receipt.success
        assert "no submissions" in receipt.error

    def test_configure_quorum(self, semi_chain, validator_accounts):
        semi_chain.send(validator_accounts[0], "unifyfl", "configureSemiRound", {"quorum_k": 3})
        semi_chain.mine_until_empty()
        assert semi_chain.call("unifyfl", "getSemiRoundStatus")["quorum_k"] == 3

    def test_reconfigure_mid_round_reverts(self, semi_chain, validator_accounts):
        semi_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": "Qm" + "e" * 64})
        semi_chain.mine_until_empty()
        tx_hash = semi_chain.send(validator_accounts[0], "unifyfl", "configureSemiRound", {"quorum_k": 3})
        semi_chain.mine_until_empty()
        receipt = semi_chain.receipt(tx_hash)
        assert not receipt.success
        assert "between rounds" in receipt.error

    def test_submissions_land_in_successive_rounds(self, semi_chain, validator_accounts):
        semi_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": "Qm" + "c" * 64})
        semi_chain.mine_until_empty()
        semi_chain.send(validator_accounts[0], "unifyfl", "closeSemiRound", {"timestamp": 9.0})
        semi_chain.mine_until_empty()
        semi_chain.send(validator_accounts[1], "unifyfl", "submitModel", {"cid": "Qm" + "d" * 64})
        semi_chain.mine_until_empty()
        first = semi_chain.call("unifyfl", "getSubmission", {"cid": "Qm" + "c" * 64})
        second = semi_chain.call("unifyfl", "getSubmission", {"cid": "Qm" + "d" * 64})
        assert (first["round"], second["round"]) == (1, 2)

    def test_semi_round_methods_revert_outside_semi_mode(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        tx_hash = unifyfl_chain.send(validator_accounts[0], "unifyfl", "closeSemiRound", {"timestamp": 0.0})
        unifyfl_chain.mine_until_empty()
        assert not unifyfl_chain.receipt(tx_hash).success
        with pytest.raises(Exception):
            unifyfl_chain.call("unifyfl", "getSemiRoundStatus")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            UnifyFLContract(mode="bogus")


class TestViews:
    def test_exclude_submitter(self, unifyfl_chain, validator_accounts):
        _register(unifyfl_chain, validator_accounts)
        unifyfl_chain.send(validator_accounts[0], "unifyfl", "startTraining")
        unifyfl_chain.mine_until_empty()
        unifyfl_chain.send(validator_accounts[0], "unifyfl", "submitModel", {"cid": "Qm" + "7" * 64})
        unifyfl_chain.send(validator_accounts[1], "unifyfl", "submitModel", {"cid": "Qm" + "8" * 64})
        unifyfl_chain.mine_until_empty()
        filtered = unifyfl_chain.call(
            "unifyfl",
            "getLatestModelsWithScores",
            {"exclude_submitter": validator_accounts[0].address},
        )
        assert len(filtered) == 1
        assert filtered[0]["submitter"] == validator_accounts[1].address

    def test_get_submission_unknown_cid(self, unifyfl_chain, validator_accounts):
        from repro.chain.contract import ContractError

        with pytest.raises(ContractError):
            unifyfl_chain.call("unifyfl", "getSubmission", {"cid": "Qm" + "9" * 64})

    def test_scorer_assignment_is_deterministic(self):
        def assignment(seed):
            accounts = [Account.create(label=f"v{i}", seed=500 + i) for i in range(3)]
            chain = Blockchain(accounts, block_period=1.0)
            chain.deploy_contract(UnifyFLContract(mode="async", scorer_seed=seed))
            _register(chain, accounts)
            chain.send(accounts[0], "unifyfl", "submitModel", {"cid": "Qm" + "a" * 64})
            chain.mine_until_empty()
            return tuple(chain.call("unifyfl", "getSubmission", {"cid": "Qm" + "a" * 64})["assigned_scorers"])

        assert assignment(7) == assignment(7)

    def test_contract_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            UnifyFLContract(mode="turbo")


def latest_models_reference(contract, max_rounds=0, before_time=None, exclude_submitter=""):
    """``getLatestModelsWithScores`` as it was: a record for every
    submission ever made, then the newest ``max_rounds`` rounds kept."""
    records = [
        submission.as_record(before_time)
        for submission in contract.submissions.values()
        if not (before_time is not None and submission.timestamp > before_time)
        and not (exclude_submitter and submission.submitter == exclude_submitter)
    ]
    records.sort(key=lambda r: (-r["round"], r["timestamp"], r["cid"]))
    if max_rounds > 0 and records:
        newest = records[0]["round"]
        records = [r for r in records if r["round"] > newest - max_rounds]
    return records


#: (round, timestamp, submitter, ((scorer, score timestamp), ...)) per submission.
submission_specs = st.lists(
    st.tuples(
        st.integers(1, 6),
        st.sampled_from([0.0, 1.0, 2.5, 4.0]),
        st.sampled_from(["a", "b", "c"]),
        st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([0.5, 3.0]))),
    ),
    max_size=14,
)


class TestLatestModelsView:
    @settings(max_examples=60, deadline=None)
    @given(
        specs=submission_specs,
        empty_rounds=st.lists(st.integers(1, 8), max_size=3),
        max_rounds=st.integers(0, 3),
        before_time=st.sampled_from([None, 0.0, 1.0, 2.0, 3.5]),
        exclude_submitter=st.sampled_from(["", "a", "b"]),
    )
    def test_equals_building_every_record(
        self, specs, empty_rounds, max_rounds, before_time, exclude_submitter
    ):
        """Walking rounds newest first returns exactly the old view, order
        included, even when the newest rounds hold nothing visible."""
        contract = UnifyFLContract(mode="async")
        for round_number in empty_rounds:
            contract.round_submissions.setdefault(round_number, [])
        for index, (round_number, timestamp, submitter, scores) in enumerate(specs):
            cid = f"Qm{index:064d}"
            submission = ModelSubmission(cid, submitter, round_number, timestamp)
            for scorer, score_time in scores:
                submission.scores[scorer] = float(index)
                submission.score_timestamps[scorer] = score_time
            contract.submissions[cid] = submission
            contract.round_submissions.setdefault(round_number, []).append(cid)
        query = dict(
            max_rounds=max_rounds, before_time=before_time, exclude_submitter=exclude_submitter
        )
        assert contract.getLatestModelsWithScores(**query) == latest_models_reference(
            contract, **query
        )

    def test_record_builds_per_round_do_not_grow_with_run_length(self, monkeypatch):
        """Host-independent guard: the view used to build a record for every
        submission ever made, so a sync Multi-KRUM run of 6 single-client
        clusters built 180 records per round at 4 rounds and 576 at 16."""
        builds = []
        as_record = ModelSubmission.as_record

        def counting_as_record(self, *args, **kwargs):
            builds.append(self.cid)
            return as_record(self, *args, **kwargs)

        monkeypatch.setattr(ModelSubmission, "as_record", counting_as_record)
        per_round = {}
        for rounds in (4, 16):
            builds.clear()
            config = ExperimentConfig(
                name=f"record-builds-{rounds}",
                workload=cifar10_workload(rounds=rounds, samples_per_class=8, image_size=8),
                clusters=gpu_cluster_configs(num_clusters=6, num_clients=1),
                mode="sync",
                rounds=rounds,
                seed=0,
                scoring_algorithm="multikrum",
            )
            ExperimentRunner(config).run()
            per_round[rounds] = len(builds) / rounds
        assert per_round[16] / per_round[4] <= 1.25, per_round


class TestEventLogDetails:
    """The events a whole sync run leaves on the chain."""

    def test_round_lifecycle_events_in_order(self, tiny_experiment_config):
        runner = ExperimentRunner(tiny_experiment_config)
        runner.run()
        chain = runner.chain
        start_training = chain.events(EventFilter(name="StartTraining"))
        start_scoring = chain.events(EventFilter(name="StartScoring"))
        round_ended = chain.events(EventFilter(name="RoundEnded"))
        assert len(start_training) == len(start_scoring) == len(round_ended) == 2
        # Per round: training starts before scoring which ends before RoundEnded.
        for training, scoring, ended in zip(start_training, start_scoring, round_ended):
            assert training.block_number <= scoring.block_number <= ended.block_number

    def test_scorer_assignment_events_reference_registered_aggregators(self, tiny_experiment_config):
        runner = ExperimentRunner(tiny_experiment_config)
        runner.run()
        chain = runner.chain
        registered = set(chain.call("unifyfl", "getAggregators"))
        for event in chain.events(EventFilter(name="ScorersAssigned")):
            assert set(event.payload["scorers"]) <= registered


class TestContractInterleavingInvariants:
    @settings(max_examples=15, deadline=None)
    @given(order=st.permutations([0, 1, 2]), seed=st.integers(0, 1000))
    def test_submission_order_never_changes_scorer_majority(self, order, seed):
        """Whatever order organisations submit in, every model gets exactly
        N//2+1 scorers and never its own submitter."""
        accounts = [Account.create(label=f"a{i}", seed=2000 + seed * 10 + i) for i in range(3)]
        chain = Blockchain(accounts, block_period=1.0)
        chain.deploy_contract(UnifyFLContract(mode="async", scorer_seed=seed))
        _register(chain, accounts)
        cids = ["Qm" + f"{i}{seed}".ljust(64, "f")[:64] for i in range(3)]
        for index in order:
            chain.send(accounts[index], "unifyfl", "submitModel", {"cid": cids[index]})
            chain.mine_until_empty()
        for index, cid in enumerate(cids):
            submission = chain.call("unifyfl", "getSubmission", {"cid": cid})
            assert len(submission["assigned_scorers"]) == 2
            assert accounts[index].address not in submission["assigned_scorers"]

    @settings(max_examples=10, deadline=None)
    @given(scores=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    def test_all_submitted_scores_are_preserved_exactly(self, scores):
        accounts = [Account.create(label=f"b{i}", seed=3000 + i) for i in range(3)]
        chain = Blockchain(accounts, block_period=1.0)
        chain.deploy_contract(UnifyFLContract(mode="async", scorer_seed=1))
        _register(chain, accounts)
        cid = "Qm" + "ab" * 32
        chain.send(accounts[0], "unifyfl", "submitModel", {"cid": cid})
        chain.mine_until_empty()
        submission = chain.call("unifyfl", "getSubmission", {"cid": cid})
        by_address = {a.address: a for a in accounts}
        for scorer_address, value in zip(submission["assigned_scorers"], scores):
            chain.send(by_address[scorer_address], "unifyfl", "submitScore", {"cid": cid, "score": value})
        chain.mine_until_empty()
        stored = chain.call("unifyfl", "getSubmission", {"cid": cid})["scores"]
        assert sorted(stored.values()) == sorted(float(v) for v in scores)
