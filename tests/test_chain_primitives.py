"""Tests for crypto, accounts, transactions, blocks, events and Clique."""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence

import pytest

from repro.chain.account import Account
from repro.chain.block import Block, BlockHeader
from repro.chain.blockchain import Blockchain, BlockchainError
from repro.chain.clique import CliqueEngine, CliqueError
from repro.chain.crypto import (
    KeyPair,
    address_from_public_key,
    hash_payload,
    keccak_hex,
    sign_payload,
    verify_signature,
)
from repro.chain.events import Event, EventBus, EventFilter
from repro.chain.transaction import Transaction


class TestCrypto:
    def test_keccak_hex_deterministic(self):
        assert keccak_hex(b"abc") == keccak_hex(b"abc")
        assert keccak_hex(b"abc") != keccak_hex(b"abd")

    def test_hash_payload_order_independent(self):
        assert hash_payload({"a": 1, "b": 2}) == hash_payload({"b": 2, "a": 1})

    def test_keypair_deterministic_from_seed(self):
        assert KeyPair.generate(seed=7).address == KeyPair.generate(seed=7).address

    def test_keypair_random_unique(self):
        assert KeyPair.generate().address != KeyPair.generate().address

    def test_address_format(self):
        kp = KeyPair.generate(seed=1)
        assert kp.address.startswith("0x")
        assert len(kp.address) == 42
        assert address_from_public_key(kp.public_key) == kp.address

    def test_signature_verifies(self):
        kp = KeyPair.generate(seed=2)
        payload = {"value": 42}
        sig = kp.sign(payload)
        assert verify_signature(kp.public_key, kp.private_key, payload, sig)

    def test_signature_rejects_tampered_payload(self):
        kp = KeyPair.generate(seed=3)
        sig = kp.sign({"value": 42})
        assert not verify_signature(kp.public_key, kp.private_key, {"value": 43}, sig)

    def test_signature_rejects_wrong_key(self):
        kp = KeyPair.generate(seed=4)
        other = KeyPair.generate(seed=5)
        sig = kp.sign({"v": 1})
        assert not verify_signature(other.public_key, other.private_key, {"v": 1}, sig)

    def test_sign_payload_matches_keypair_sign(self):
        kp = KeyPair.generate(seed=6)
        assert kp.sign({"x": 1}) == sign_payload(kp.private_key, {"x": 1})


class TestAccount:
    def test_nonce_advances(self):
        account = Account.create(seed=1)
        assert account.next_nonce() == 0
        assert account.next_nonce() == 1
        assert account.nonce == 2

    def test_create_funds_balance(self):
        account = Account.create(seed=2, balance=500.0)
        assert account.balance == 500.0

    def test_address_is_keypair_address(self):
        account = Account.create(seed=3)
        assert account.address == account.keypair.address


class TestTransaction:
    def test_create_signs_and_orders(self):
        account = Account.create(seed=1)
        tx1 = Transaction.create(account, "c", "m", {"a": 1})
        tx2 = Transaction.create(account, "c", "m", {"a": 2})
        assert tx1.nonce == 0 and tx2.nonce == 1
        assert tx1.signature and tx1.tx_hash != tx2.tx_hash

    def test_hash_includes_signature(self):
        account = Account.create(seed=2)
        tx = Transaction.create(account, "c", "m", {})
        assert dataclasses.replace(tx, signature="0" * 64).tx_hash != tx.tx_hash

    def test_rejects_nonpositive_gas(self):
        account = Account.create(seed=3)
        with pytest.raises(ValueError):
            Transaction.create(account, "c", "m", {}, gas_limit=0)

    def test_estimated_size_positive(self):
        account = Account.create(seed=4)
        tx = Transaction.create(account, "c", "m", {"payload": "x" * 100})
        assert tx.estimated_size_bytes() > 100

    def test_fields_cannot_be_assigned(self):
        tx = Transaction.create(Account.create(seed=5), "c", "m", {"a": 1})
        for name, value in (("signature", "0" * 64), ("args", {}), ("nonce", 9), ("tx_hash", "0x")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tx, name, value)

    def test_args_are_a_read_only_copy(self):
        args = {"a": 1}
        tx = Transaction.create(Account.create(seed=6), "c", "m", args)
        args["a"] = 2
        assert tx.args == {"a": 1}
        with pytest.raises(TypeError):
            tx.args["a"] = 3

    def test_tx_hash_is_the_hash_of_the_fields_and_signature(self):
        tx = Transaction.create(Account.create(seed=7), "c", "m", {"cid": "Qm1", "score": 0.5})
        fields = {
            "sender": tx.sender,
            "nonce": tx.nonce,
            "contract": "c",
            "method": "m",
            "args": {"cid": "Qm1", "score": 0.5},
            "gas_limit": tx.gas_limit,
        }
        assert tx.tx_hash == "0x" + hash_payload({**fields, "signature": tx.signature})
        assert tx.tx_hash == tx.compute_hash()
        assert tx.signature == sign_payload(Account.create(seed=7).keypair.private_key, fields)

    def test_estimated_size_matches_the_unsorted_encoding(self):
        tx = Transaction.create(Account.create(seed=8), "c", "m", {"z": [1, 2.5], "a": "x" * 40})
        assert tx.estimated_size_bytes() == len(json.dumps(tx.signing_payload(), default=str)) + 64

    @pytest.mark.parametrize(
        "tamper", [{"signature": "0" * 64}, {"args": {"by": 100}}], ids=["signature", "args"]
    )
    def test_replaced_copy_is_rejected_at_submit(self, tamper, validator_accounts):
        chain = Blockchain(validator_accounts)
        tx = Transaction.create(validator_accounts[0], "c", "m", {"by": 1})
        with pytest.raises(BlockchainError, match="invalid signature"):
            chain.submit_transaction(dataclasses.replace(tx, **tamper))
        assert chain.submit_transaction(tx) == tx.tx_hash


class TestBlocks:
    def test_header_hash_changes_with_content(self):
        header = BlockHeader(number=1, parent_hash="0x0", timestamp=0.0, sealer="0xabc", transactions_root="r")
        h1 = header.hash()
        header.timestamp = 1.0
        assert header.hash() != h1

    def test_transactions_root_depends_on_order(self):
        account = Account.create(seed=1)
        tx1 = Transaction.create(account, "c", "m", {"i": 1})
        tx2 = Transaction.create(account, "c", "m", {"i": 2})
        assert Block.compute_transactions_root([tx1, tx2]) != Block.compute_transactions_root([tx2, tx1])

    def test_block_size_estimate(self):
        account = Account.create(seed=2)
        tx = Transaction.create(account, "c", "m", {})
        block = Block(
            header=BlockHeader(number=1, parent_hash="0x0", timestamp=0.0, sealer="0x", transactions_root="r"),
            transactions=[tx],
        )
        assert block.estimated_size_bytes() > 200


class TestEvents:
    def test_append_and_query(self):
        bus = EventBus()
        bus.append(Event(contract="c", name="A", payload={"x": 1}, block_number=1))
        bus.append(Event(contract="c", name="B", payload={"x": 2}, block_number=2))
        assert len(bus) == 2
        assert len(bus.query(EventFilter(name="A"))) == 1

    def test_filter_by_block_range(self):
        bus = EventBus()
        for i in range(5):
            bus.append(Event(contract="c", name="E", payload={}, block_number=i))
        assert len(bus.query(EventFilter(from_block=2, to_block=3))) == 2

    def test_filter_by_contract(self):
        bus = EventBus()
        bus.append(Event(contract="a", name="E", payload={}, block_number=0))
        bus.append(Event(contract="b", name="E", payload={}, block_number=0))
        assert len(bus.query(EventFilter(contract="a"))) == 1

    def test_subscription_receives_matching_events(self):
        bus = EventBus()
        received = []
        bus.subscribe(received.append, EventFilter(name="Wanted"))
        bus.append(Event(contract="c", name="Wanted", payload={}, block_number=0))
        bus.append(Event(contract="c", name="Other", payload={}, block_number=0))
        assert len(received) == 1
        assert received[0].name == "Wanted"

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        received = []
        unsubscribe = bus.subscribe(received.append)
        unsubscribe()
        bus.append(Event(contract="c", name="E", payload={}, block_number=0))
        assert received == []

    def test_log_index_assigned_in_order(self):
        bus = EventBus()
        bus.append(Event(contract="c", name="E", payload={}, block_number=0))
        second = bus.append(Event(contract="c", name="E", payload={}, block_number=0))
        assert second.log_index == 1


class TestClique:
    def test_in_turn_rotation(self, validator_accounts):
        engine = CliqueEngine(validator_accounts)
        signers = engine.signer_addresses
        assert engine.in_turn_signer(0) == signers[0]
        assert engine.in_turn_signer(1) == signers[1]
        assert engine.in_turn_signer(len(signers)) == signers[0]

    def test_requires_signers(self):
        with pytest.raises(CliqueError):
            CliqueEngine([])

    def test_rejects_duplicate_signers(self, validator_accounts):
        with pytest.raises(CliqueError):
            CliqueEngine([validator_accounts[0], validator_accounts[0]])

    def test_seal_and_verify(self, validator_accounts):
        engine = CliqueEngine(validator_accounts)
        sealer = engine.signer_addresses[1]
        header = BlockHeader(number=1, parent_hash="0x0", timestamp=0.0, sealer=sealer, transactions_root="r")
        engine.seal(header)
        block = Block(header=header)
        engine.verify_seal(block, [])

    def test_verify_rejects_unauthorized_sealer(self, validator_accounts):
        engine = CliqueEngine(validator_accounts)
        outsider = Account.create(seed=999)
        header = BlockHeader(number=1, parent_hash="0x0", timestamp=0.0, sealer=outsider.address, transactions_root="r")
        header.seal_signature = outsider.sign({"header": header.hash()})
        with pytest.raises(CliqueError):
            engine.verify_seal(Block(header=header), [])

    def test_verify_rejects_forged_signature(self, validator_accounts):
        engine = CliqueEngine(validator_accounts)
        sealer = engine.signer_addresses[0]
        header = BlockHeader(number=1, parent_hash="0x0", timestamp=0.0, sealer=sealer, transactions_root="r")
        header.seal_signature = "00" * 32
        with pytest.raises(CliqueError):
            engine.verify_seal(Block(header=header), [])

    def test_recently_sealed_prevents_consecutive_blocks(self, validator_accounts):
        engine = CliqueEngine(validator_accounts)
        sealer = engine.signer_addresses[0]
        header = BlockHeader(number=1, parent_hash="0x0", timestamp=0.0, sealer=sealer, transactions_root="r")
        engine.seal(header)
        previous_block = Block(header=header)
        assert engine.recently_sealed([previous_block], sealer)
        next_sealer = engine.select_sealer([previous_block], 2)
        assert next_sealer != sealer

    def test_recently_sealed_reads_only_the_chain_tail(self):
        """The recent-sealing rule looks at the last ``N // 2`` blocks only;
        copying the whole chain for it made sealing O(height) per block."""

        class TailOnlyChain(Sequence):
            def __init__(self, blocks):
                self._blocks = blocks

            def __len__(self):
                return len(self._blocks)

            def __getitem__(self, index):
                return self._blocks[index]

            def __iter__(self):
                raise AssertionError("the whole chain was iterated")

        signers = [Account.create(label=f"signer{i}", seed=300 + i) for i in range(5)]
        engine = CliqueEngine(signers)
        blocks = [
            Block(
                header=BlockHeader(
                    number=n,
                    parent_hash="0x0",
                    timestamp=float(n),
                    sealer=engine.in_turn_signer(n),
                    transactions_root="r",
                )
            )
            for n in range(1, 501)
        ]
        chain = TailOnlyChain(blocks)
        # limit = 5 // 2 = 2: the sealers of blocks 499 and 500 must wait.
        assert engine.recently_sealed(chain, engine.in_turn_signer(500))
        assert engine.recently_sealed(chain, engine.in_turn_signer(499))
        assert not engine.recently_sealed(chain, engine.in_turn_signer(498))
        assert engine.select_sealer(chain, 501) == engine.in_turn_signer(501)

    def test_seal_delay_out_of_turn_longer(self, validator_accounts):
        engine = CliqueEngine(validator_accounts, block_period=2.0)
        in_turn = engine.in_turn_signer(5)
        out_of_turn = [a for a in engine.signer_addresses if a != in_turn][0]
        assert engine.seal_delay(5, out_of_turn) > engine.seal_delay(5, in_turn)

    def test_seal_unauthorized_raises(self, validator_accounts):
        engine = CliqueEngine(validator_accounts)
        header = BlockHeader(number=1, parent_hash="0x0", timestamp=0.0, sealer="0xdead", transactions_root="r")
        with pytest.raises(CliqueError):
            engine.seal(header)
