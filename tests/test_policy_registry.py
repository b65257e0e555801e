"""Tests for the round-policy registry and the hierarchical/gossip modes.

The registry is the single source of truth for orchestration modes: runner
dispatch, ``ExperimentConfig`` validation, CLI ``--mode`` choices and the
contract's behaviour profile all derive from it.  These tests pin that
derivation, the registry's own invariants (duplicate registration is a hard
error), the end-to-end round-trip of every built-in mode, and the degenerate
baselines of the two new modes (one-group hierarchical, zero-fanout gossip).
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser
from repro.core.config import (
    ClusterConfig,
    ExperimentConfig,
    cifar10_workload,
    edge_cluster_configs,
)
from repro.core.contract import UnifyFLContract
from repro.core.runner import ExperimentRunner, run_experiment
from repro.sched.registry import (
    ContractProfile,
    PolicySpec,
    get_policy,
    register_policy,
    registered_modes,
    unregister_policy,
)


def tiny_config(mode: str, rounds: int = 2, seed: int = 3, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"registry-{mode}",
        workload=cifar10_workload(rounds=rounds, samples_per_class=8, image_size=8),
        clusters=edge_cluster_configs(num_clients=2),
        mode=mode,
        rounds=rounds,
        seed=seed,
        **kwargs,
    )


class TestRegistry:
    def test_builtin_modes_are_registered_in_order(self):
        assert registered_modes() == ["sync", "async", "semi", "hierarchical", "gossip"]

    def test_duplicate_registration_raises(self):
        spec = PolicySpec(name="sync", factory=lambda build: None)
        with pytest.raises(ValueError, match="already registered"):
            register_policy(spec)

    def test_unknown_mode_lists_registered_names(self):
        with pytest.raises(ValueError, match="registered modes") as excinfo:
            get_policy("eventual")
        for mode in registered_modes():
            assert mode in str(excinfo.value)

    def test_custom_policy_registers_and_unregisters(self):
        spec = PolicySpec(
            name="every-other",
            factory=lambda build: None,
            description="test-only",
        )
        register_policy(spec)
        try:
            assert "every-other" in registered_modes()
            assert get_policy("every-other") is spec
        finally:
            unregister_policy("every-other")
        assert "every-other" not in registered_modes()

    def test_contract_profiles_match_modes(self):
        assert get_policy("sync").contract == ContractProfile(phase_gated=True)
        assert get_policy("async").contract.assigns_scorers_on_submit
        assert get_policy("semi").contract.buffered
        assert get_policy("hierarchical").contract.assigns_scorers_on_submit
        gossip = get_policy("gossip").contract
        assert not gossip.assigns_scorers_on_submit
        assert not gossip.phase_gated and not gossip.buffered


class TestConfigValidation:
    def test_unknown_mode_fails_at_construction_with_names(self):
        with pytest.raises(ValueError, match="registered modes") as excinfo:
            tiny_config("eventual")
        assert "hierarchical" in str(excinfo.value)
        assert "gossip" in str(excinfo.value)

    def test_similarity_scoring_rejected_outside_sync(self):
        for mode in ("async", "semi", "hierarchical", "gossip"):
            with pytest.raises(ValueError, match="only .*supported in sync"):
                tiny_config(mode, scoring_algorithm="multikrum")
        # Sync accepts it.
        assert tiny_config("sync", scoring_algorithm="multikrum").mode == "sync"

    def test_new_knobs_are_validated(self):
        with pytest.raises(ValueError, match="local_rounds_per_global"):
            tiny_config("hierarchical", local_rounds_per_global=0)
        with pytest.raises(ValueError, match="round_budget"):
            tiny_config("hierarchical", round_budget=0)
        with pytest.raises(ValueError, match="gossip_fanout"):
            tiny_config("gossip", gossip_fanout=-1)

    def test_cli_mode_choices_come_from_registry(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions if isinstance(action.choices, dict)
        )
        mode_action = next(
            action
            for action in subparsers.choices["run"]._actions
            if "--mode" in action.option_strings
        )
        assert list(mode_action.choices) == registered_modes()


class TestContractProfileBehaviour:
    def test_unknown_contract_mode_raises(self):
        with pytest.raises(ValueError, match="registered modes"):
            UnifyFLContract(mode="eventual")

    def test_gossip_contract_assigns_no_scorers(self):
        from repro.chain.account import Account
        from repro.chain.blockchain import Blockchain

        accounts = [Account.create(label=f"a{i}", seed=i) for i in range(3)]
        chain = Blockchain(accounts, block_period=1.0)
        chain.deploy_contract(UnifyFLContract(mode="gossip"))
        for account in accounts:
            chain.send(account, "unifyfl", "registerAggregator")
        chain.mine_until_empty()
        chain.send(accounts[0], "unifyfl", "submitModel", {"cid": "QmX", "timestamp": 1.0})
        chain.mine_until_empty()
        record = chain.call("unifyfl", "getSubmission", {"cid": "QmX"})
        assert record["assigned_scorers"] == []
        # The submission itself is recorded and auditable.
        assert chain.call("unifyfl", "roundSubmissionCount", {"round_number": 1}) == 1


class TestModeRoundTrips:
    @pytest.mark.parametrize("mode", ["sync", "async", "semi", "hierarchical", "gossip"])
    def test_every_builtin_mode_round_trips_to_result(self, mode):
        result = run_experiment(tiny_config(mode))
        assert result.mode == mode
        for aggregator in result.aggregators:
            assert len(aggregator.history) == 2

    def test_runner_and_cli_have_no_mode_ladder(self):
        # The DET004 linter rule is the reusable form of what used to be a
        # hand-rolled AST walk here: flagging literal mode comparisons
        # outside the policy registry.  Invoking the rule keeps this test
        # and ``repro lint`` incapable of drifting apart.
        import inspect

        from repro.analysis import lint_paths
        from repro.core import runner as runner_module
        from repro import cli as cli_module

        files = [inspect.getsourcefile(module) for module in (runner_module, cli_module)]
        report = lint_paths(files, codes=("DET004",))
        assert not report.findings, "\n".join(
            finding.render() for finding in report.findings
        )


class TestDegenerateBaselines:
    def test_hierarchical_single_group_has_one_leader_submission_per_round(self):
        config = tiny_config("hierarchical", rounds=3, local_rounds_per_global=1)
        runner = ExperimentRunner(config)
        result = runner.run()
        extras = result.orchestration_extras
        assert extras["num_sites"] == 1
        assert list(extras["groups"]) == ["0"]
        # One leader submission per global round, rotating over the group.
        assert len(extras["leaders"]) == 3
        assert len({leader for _, _, leader in extras["leaders"]}) == 3
        # Exactly one on-chain submission per global round (the leader's),
        # and the rotation means each cluster submitted exactly once.
        assert runner.chain is not None
        submissions = runner.chain.call("unifyfl", "getLatestModelsWithScores")
        assert len(submissions) == 3
        assert len({record["submitter"] for record in submissions}) == 3

    def test_gossip_zero_fanout_is_isolated_training(self):
        result = run_experiment(tiny_config("gossip", rounds=3, gossip_fanout=0))
        extras = result.orchestration_extras
        assert extras["exchange_count"] == 0
        assert extras["exchange_time"] == 0.0
        for aggregator in result.aggregators:
            for record in aggregator.history:
                assert record.models_pulled == 0
                assert record.timing.exchange_time == 0.0

    def test_gossip_is_deterministic_for_a_seed(self):
        first = run_experiment(tiny_config("gossip", rounds=3, seed=11))
        second = run_experiment(tiny_config("gossip", rounds=3, seed=11))
        assert [a.global_accuracy for a in first.aggregators] == [
            a.global_accuracy for a in second.aggregators
        ]
        assert [a.total_time for a in first.aggregators] == [
            a.total_time for a in second.aggregators
        ]
        assert (
            first.orchestration_extras["exchanges"]
            == second.orchestration_extras["exchanges"]
        )
