"""Tests for the contract runtime and the blockchain itself."""

from __future__ import annotations

import dataclasses

import pytest

from repro.chain.account import Account
from repro.chain.blockchain import Blockchain, BlockchainError
from repro.chain.contract import (
    Contract,
    ContractError,
    ContractRuntime,
    GasExhaustedError,
    contract_method,
    view_method,
)
from repro.chain.events import EventFilter
from repro.chain.transaction import Transaction
from repro.core.runner import ExperimentRunner, run_experiment


class Counter(Contract):
    """A minimal test contract with state, events, require and a view."""

    name = "counter"

    def __init__(self):
        super().__init__()
        self.count = 0
        self.owner_calls = {}

    @contract_method
    def increment(self, by: int = 1):
        self.require(by > 0, "by must be positive")
        self.count += by
        self.owner_calls[self.ctx.sender] = self.owner_calls.get(self.ctx.sender, 0) + 1
        self.emit("Incremented", count=self.count, by=by)
        return self.count

    @contract_method
    def burn_gas(self):
        self.ctx.charge(10_000_000)
        return True

    @view_method
    def get(self):
        return self.count

    def internal_helper(self):
        return "not callable externally"


class TestContractRuntime:
    def test_deploy_and_call_view(self):
        runtime = ContractRuntime()
        runtime.deploy(Counter())
        result, ctx = runtime.call("counter", "get")
        assert result == 0
        assert ctx.gas_used >= Counter.base_gas_per_call

    def test_duplicate_deploy_rejected(self):
        runtime = ContractRuntime()
        runtime.deploy(Counter())
        with pytest.raises(ContractError):
            runtime.deploy(Counter())

    def test_unknown_contract(self):
        with pytest.raises(ContractError):
            ContractRuntime().get("nope")

    def test_unknown_method(self):
        runtime = ContractRuntime()
        runtime.deploy(Counter())
        with pytest.raises(ContractError):
            runtime.call("counter", "internal_helper")

    def test_call_mutates_state_and_emits(self):
        runtime = ContractRuntime()
        contract = runtime.deploy(Counter())
        result, ctx = runtime.call("counter", "increment", {"by": 3}, sender="0xa")
        assert result == 3 and contract.count == 3
        assert len(ctx.events) == 1
        assert ctx.events[0].payload["by"] == 3

    def test_require_reverts(self):
        runtime = ContractRuntime()
        runtime.deploy(Counter())
        with pytest.raises(ContractError):
            runtime.call("counter", "increment", {"by": 0})

    def test_gas_limit_enforced(self):
        runtime = ContractRuntime()
        runtime.deploy(Counter())
        with pytest.raises(GasExhaustedError):
            runtime.call("counter", "burn_gas", gas_limit=50_000)

    def test_is_view_classification(self):
        assert Counter.is_view("get") is True
        assert Counter.is_view("increment") is False
        with pytest.raises(ContractError):
            Counter.is_view("missing")

    def test_callable_methods_are_tabulated_once_per_class(self):
        assert set(Counter.callable_methods()) == {"increment", "burn_gas", "get"}
        assert Counter.callable_methods() is Counter.callable_methods()
        assert Contract.callable_methods() == {}

        # Defined after its parent was first queried: the subclass gets its
        # own table — inherited methods, its override and its addition — and
        # the parent's is left as it was.
        class ResettableCounter(Counter):
            name = "resettable"

            @contract_method
            def reset(self):
                self.count = 0

            @view_method
            def increment(self, by: int = 1):
                return self.count + by

        assert set(ResettableCounter.callable_methods()) == {
            "increment", "burn_gas", "get", "reset",
        }
        assert ResettableCounter.is_view("increment") is True
        assert Counter.is_view("increment") is False
        assert "reset" not in Counter.callable_methods()
        runtime = ContractRuntime()
        runtime.deploy(Counter())
        runtime.deploy(ResettableCounter())
        runtime.call("resettable", "reset")
        with pytest.raises(ContractError, match="contract 'counter' has no external method 'reset'"):
            runtime.call("counter", "reset")
        with pytest.raises(ContractError, match="Counter has no external method 'missing'"):
            Counter.is_view("missing")

    def test_ctx_unavailable_outside_call(self):
        contract = Counter()
        with pytest.raises(ContractError):
            _ = contract.ctx


class TestBlockchain:
    def test_genesis_block_exists(self, blockchain):
        assert blockchain.height == 0
        assert len(blockchain.blocks) == 1

    def test_requires_validators(self):
        with pytest.raises(BlockchainError):
            Blockchain([])

    def test_send_and_mine_executes_contract(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        blockchain.send(validator_accounts[0], "counter", "increment", {"by": 5})
        block = blockchain.mine_block()
        assert block.number == 1
        assert blockchain.call("counter", "get") == 5

    def test_receipt_records_success_and_events(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        tx_hash = blockchain.send(validator_accounts[0], "counter", "increment", {"by": 2})
        blockchain.mine_block()
        receipt = blockchain.receipt(tx_hash)
        assert receipt is not None and receipt.success
        assert receipt.return_value == 2
        assert receipt.events[0].name == "Incremented"

    def test_failed_transaction_recorded_not_fatal(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        tx_hash = blockchain.send(validator_accounts[0], "counter", "increment", {"by": -1})
        blockchain.mine_block()
        receipt = blockchain.receipt(tx_hash)
        assert receipt is not None and not receipt.success
        assert "positive" in receipt.error
        assert blockchain.metrics.transactions_failed == 1

    def test_unknown_sender_rejected(self, blockchain):
        stranger = Account.create(seed=777)
        tx = Transaction.create(stranger, "counter", "increment", {})
        with pytest.raises(BlockchainError):
            blockchain.submit_transaction(tx)

    def test_bad_signature_rejected(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        tx = dataclasses.replace(
            Transaction.create(validator_accounts[0], "counter", "increment", {}),
            signature="00" * 32,
        )
        with pytest.raises(BlockchainError):
            blockchain.submit_transaction(tx)

    def test_nonce_order_enforced(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        account = validator_accounts[0]
        tx1 = Transaction.create(account, "counter", "increment", {})
        tx2 = Transaction.create(account, "counter", "increment", {})
        blockchain.submit_transaction(tx2 if False else tx1)
        # Submitting a transaction with a skipped nonce must fail.
        tx_future = Transaction.create(account, "counter", "increment", {})
        with pytest.raises(BlockchainError):
            blockchain.submit_transaction(tx_future)

    def test_replay_rejected(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        account = validator_accounts[0]
        tx = Transaction.create(account, "counter", "increment", {})
        blockchain.submit_transaction(tx)
        with pytest.raises(BlockchainError):
            blockchain.submit_transaction(tx)

    def test_events_stamped_with_block(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        blockchain.send(validator_accounts[0], "counter", "increment", {"by": 1})
        blockchain.mine_block()
        events = blockchain.events(EventFilter(name="Incremented"))
        assert len(events) == 1
        assert events[0].block_number == 1
        assert events[0].tx_hash

    def test_subscription_fires_on_mine(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        received = []
        blockchain.subscribe(received.append, EventFilter(name="Incremented"))
        blockchain.send(validator_accounts[0], "counter", "increment", {"by": 1})
        blockchain.mine_block()
        assert len(received) == 1

    def test_view_call_does_not_mine(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        assert blockchain.call("counter", "get") == 0
        assert blockchain.height == 0

    def test_call_rejects_mutating_method(self, blockchain):
        blockchain.deploy_contract(Counter())
        with pytest.raises(BlockchainError):
            blockchain.call("counter", "increment", {"by": 1})

    def test_mine_until_empty(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        for i in range(3):
            blockchain.send(validator_accounts[i % 3], "counter", "increment", {"by": 1})
        blocks = blockchain.mine_until_empty()
        assert len(blocks) >= 1
        assert blockchain.call("counter", "get") == 3
        # Nothing is left pending: the next block seals no transaction.
        assert blockchain.mine_block().transactions == []

    def test_sealer_rotation_across_blocks(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        sealers = []
        for i in range(4):
            blockchain.send(validator_accounts[i % 3], "counter", "increment", {"by": 1})
            sealers.append(blockchain.mine_block().header.sealer)
        assert len(set(sealers)) >= 2  # not a single validator sealing everything

    def test_chain_verifies(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        for i in range(5):
            blockchain.send(validator_accounts[i % 3], "counter", "increment", {"by": 1})
            blockchain.mine_block()
        assert blockchain.verify_chain()

    def test_tampering_detected(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        blockchain.send(validator_accounts[0], "counter", "increment", {"by": 1})
        blockchain.mine_block()
        blockchain.send(validator_accounts[1], "counter", "increment", {"by": 1})
        blockchain.mine_block()
        # Tamper with an earlier block's transactions.
        blockchain.blocks[1].transactions = []
        assert not blockchain.verify_chain()

    def test_verify_chain_hands_each_seal_only_the_recent_window(self, monkeypatch):
        """Each seal is checked against the ``len(signers) // 2`` blocks the
        recent-sealing rule reads; slicing the whole prefix for every block
        copied n²/2 references to verify a chain of height n."""
        signers = [Account.create(label=f"signer{i}", seed=400 + i) for i in range(5)]
        chain = Blockchain(signers, block_period=1.0)
        chain.deploy_contract(Counter())
        for i in range(12):
            chain.send(signers[i % 5], "counter", "increment", {"by": 1})
            chain.mine_block()
        window = chain.engine.recent_window
        assert window == 2
        seen = []
        verify_seal = chain.engine.verify_seal

        def recording_verify_seal(block, recent):
            seen.append((block.number, [b.number for b in recent]))
            return verify_seal(block, recent)

        monkeypatch.setattr(chain.engine, "verify_seal", recording_verify_seal)
        assert chain.verify_chain()
        assert [number for number, _ in seen] == list(range(1, chain.height + 1))
        assert all(recent == list(range(max(0, n - window), n)) for n, recent in seen)
        # The window still catches a signer sealing twice within it: the
        # newest block re-sealed by the sealer of the block before it.
        header = chain.blocks[-1].header
        header.sealer = chain.blocks[-2].header.sealer
        chain.engine.seal(header)
        assert not chain.verify_chain()

    def test_metrics_accumulate(self, blockchain, validator_accounts):
        blockchain.deploy_contract(Counter())
        blockchain.send(validator_accounts[0], "counter", "increment", {"by": 1})
        blockchain.mine_block()
        metrics = blockchain.metrics.as_dict()
        assert metrics["blocks_mined"] == 1
        assert metrics["transactions_processed"] == 1
        assert metrics["total_gas_used"] > 0
        assert metrics["total_bytes"] > 0

    def test_register_account_allows_non_validator_sender(self, blockchain):
        blockchain.deploy_contract(Counter())
        outsider = Account.create(seed=55)
        blockchain.register_account(outsider)
        blockchain.send(outsider, "counter", "increment", {"by": 4})
        blockchain.mine_block()
        assert blockchain.call("counter", "get") == 4


class TestChainUnderSustainedLoad:
    def test_many_rounds_grow_and_verify_chain(self, tiny_experiment_config):
        runner = ExperimentRunner(
            dataclasses.replace(tiny_experiment_config, name="sustained", rounds=4, seed=31)
        )
        runner.run()
        chain = runner.chain
        assert chain.height > 10
        assert chain.verify_chain()
        # Clique rotation: no single validator sealed more than ~2/3 of blocks.
        sealers = [block.header.sealer for block in chain.blocks[1:]]
        most_common = max(sealers.count(s) for s in set(sealers))
        assert most_common <= 2 * len(sealers) / 3

    def test_gas_accounting_grows_with_activity(self, tiny_experiment_config):
        short = run_experiment(dataclasses.replace(tiny_experiment_config, rounds=1, seed=31))
        long = run_experiment(dataclasses.replace(tiny_experiment_config, rounds=3, seed=31))
        assert long.chain_metrics["total_gas_used"] > short.chain_metrics["total_gas_used"]
        assert long.chain_metrics["blocks_mined"] > short.chain_metrics["blocks_mined"]
