"""The simulated private blockchain tying accounts, Clique and contracts together.

The :class:`Blockchain` exposes the Geth-like surface UnifyFL's orchestrator
layer uses:

* ``submit_transaction`` — add a signed contract call to the pending pool.
* ``mine_block`` — have the next eligible Clique sealer produce a block,
  executing every pooled transaction against the contract runtime, recording
  receipts and stamping emitted events into the event bus.
* ``call`` — execute a read-only view method without a transaction.
* ``events`` / ``subscribe`` — the event log aggregators listen to.

Determinism: transactions execute in pool order (FIFO, per-sender nonce
checked), so every node observing the same chain derives the same contract
state — the property that lets all UnifyFL aggregators see identical model
CIDs and scores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.chain.account import Account
from repro.chain.block import Block, BlockHeader
from repro.chain.clique import CliqueEngine, CliqueError
from repro.chain.contract import Contract, ContractError, ContractRuntime, GasExhaustedError
from repro.chain.crypto import verify_signed_bytes
from repro.chain.events import Event, EventBus, EventFilter
from repro.chain.transaction import Transaction, TransactionReceipt


class BlockchainError(Exception):
    """Raised for invalid transactions or blocks."""


@dataclass
class ChainMetrics:
    """Counters used by the system-overhead study (Table 7)."""

    transactions_processed: int = 0
    transactions_failed: int = 0
    blocks_mined: int = 0
    total_gas_used: int = 0
    total_bytes: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "transactions_processed": float(self.transactions_processed),
            "transactions_failed": float(self.transactions_failed),
            "blocks_mined": float(self.blocks_mined),
            "total_gas_used": float(self.total_gas_used),
            "total_bytes": float(self.total_bytes),
        }


class Blockchain:
    """A single logical chain shared by all validator nodes.

    In the real deployment each organisation runs its own Geth node and the
    nodes converge through Clique consensus; because consensus is
    deterministic given the same transaction order, the simulation keeps one
    canonical chain object that every :class:`~repro.core.aggregator` interacts
    with, while the Clique engine still enforces sealer rotation and seal
    validity for every block.
    """

    def __init__(
        self,
        validators: Sequence[Account],
        block_period: float = 2.0,
        clock: Optional[Callable[[], float]] = None,
    ):
        if not validators:
            raise BlockchainError("the chain requires at least one validator account")
        self.validators = list(validators)
        self.engine = CliqueEngine(validators, block_period=block_period)
        self.runtime = ContractRuntime()
        self.event_bus = EventBus()
        self.metrics = ChainMetrics()
        self._clock = clock or (lambda: 0.0)
        self._pending: List[Transaction] = []
        self._receipts: Dict[str, TransactionReceipt] = {}
        self._known_accounts: Dict[str, Account] = {a.address: a for a in validators}
        self._expected_nonces: Dict[str, int] = {}
        #: callbacks fired after every sealed block (see :meth:`add_block_listener`).
        self._block_listeners: List[Callable[[Block], None]] = []
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, every transaction is re-hashed from its fields at seal.
        self.sanitizer: Optional[Any] = None
        self.blocks: List[Block] = [self._genesis_block()]

    # -- setup ---------------------------------------------------------------
    def register_account(self, account: Account) -> None:
        """Make a non-validator account known to the chain (clients, scorers)."""
        self._known_accounts[account.address] = account

    def deploy_contract(self, contract: Contract) -> Contract:
        """Deploy a contract to the runtime."""
        return self.runtime.deploy(contract)

    def add_block_listener(self, callback: Callable[[Block], None]) -> Callable[[], None]:
        """Invoke ``callback`` with every block sealed from now on.

        This is the chain-side emission hook the event-stream layer uses: the
        :class:`~repro.sched.actors.ChainActor` subscribes so each sealed
        block (and the transactions it carries) becomes an observable event on
        the simulation timeline.  Returns an unsubscribe callable.
        """
        self._block_listeners.append(callback)

        def unsubscribe() -> None:
            if callback in self._block_listeners:
                self._block_listeners.remove(callback)

        return unsubscribe

    def _genesis_block(self) -> Block:
        header = BlockHeader(
            number=0,
            parent_hash="0x" + "0" * 64,
            timestamp=self._clock(),
            sealer=self.engine.signer_addresses[0],
            transactions_root=Block.compute_transactions_root([]),
        )
        self.engine.seal(header)
        return Block(header=header, transactions=[])

    # -- transaction pool ----------------------------------------------------
    def submit_transaction(self, tx: Transaction) -> str:
        """Validate a transaction and add it to the pending pool.

        Returns the transaction hash.  Raises :class:`BlockchainError` for an
        unknown sender, a bad signature or an out-of-order nonce.
        """
        account = self._known_accounts.get(tx.sender)
        if account is None:
            raise BlockchainError(f"unknown sender {tx.sender}; register the account first")
        if not verify_signed_bytes(
            account.keypair.public_key,
            account.keypair.private_key,
            tx.signing_bytes,
            tx.signature,
        ):
            raise BlockchainError(f"invalid signature on transaction from {tx.sender}")
        expected = self._expected_nonces.get(tx.sender, 0)
        if tx.nonce != expected:
            raise BlockchainError(
                f"bad nonce from {tx.sender}: expected {expected}, got {tx.nonce}"
            )
        self._expected_nonces[tx.sender] = expected + 1
        self._pending.append(tx)
        return tx.tx_hash

    def send(
        self,
        account: Account,
        contract: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
        gas_limit: int = 1_000_000,
    ) -> str:
        """Convenience wrapper: create, sign and submit a transaction."""
        if account.address not in self._known_accounts:
            self.register_account(account)
        tx = Transaction.create(account, contract, method, args, gas_limit=gas_limit)
        return self.submit_transaction(tx)

    # -- block production ----------------------------------------------------
    def mine_block(self) -> Block:
        """Seal the pending transactions into a new block.

        The eligible Clique sealer executes each transaction against the
        contract runtime; failures revert that transaction only (recorded in
        its receipt) — the block is still produced, as on Ethereum.
        """
        number = len(self.blocks)
        sealer = self.engine.select_sealer(self.blocks, number)
        timestamp = self._clock()
        included = list(self._pending)
        self._pending.clear()
        if self.sanitizer is not None:
            for tx in included:
                self.sanitizer.check_tx_identity(tx.tx_hash, tx.compute_hash())

        receipts: List[TransactionReceipt] = []
        block_gas = 0
        for tx in included:
            receipt = self._execute_transaction(tx, number, timestamp)
            receipts.append(receipt)
            block_gas += receipt.gas_used

        header = BlockHeader(
            number=number,
            parent_hash=self.blocks[-1].block_hash,
            timestamp=timestamp,
            sealer=sealer,
            transactions_root=Block.compute_transactions_root(included),
            gas_used=block_gas,
        )
        self.engine.seal(header)
        block = Block(header=header, transactions=included)
        self.engine.verify_seal(block, self.blocks)
        self._validate_block(block)
        self.blocks.append(block)

        for receipt in receipts:
            self._receipts[receipt.tx_hash] = receipt
            # Each event is stamped once; the receipt and the log hold it.
            receipt.events = [
                self.event_bus.append(
                    replace(
                        event,
                        block_number=number,
                        tx_hash=receipt.tx_hash,
                        log_index=len(self.event_bus),
                    )
                )
                for event in receipt.events
            ]
        self.metrics.blocks_mined += 1
        self.metrics.total_gas_used += block_gas
        self.metrics.total_bytes += block.estimated_size_bytes()
        for listener in list(self._block_listeners):
            listener(block)
        return block

    def mine_until_empty(self) -> List[Block]:
        """Mine blocks until the pending pool is drained (usually one block)."""
        mined: List[Block] = []
        while self._pending:
            mined.append(self.mine_block())
        return mined

    def _execute_transaction(self, tx: Transaction, block_number: int, timestamp: float) -> TransactionReceipt:
        try:
            result, ctx = self.runtime.call(
                tx.contract,
                tx.method,
                tx.args,
                sender=tx.sender,
                block_number=block_number,
                timestamp=timestamp,
                gas_limit=tx.gas_limit,
            )
            self.metrics.transactions_processed += 1
            return TransactionReceipt(
                tx_hash=tx.tx_hash,
                block_number=block_number,
                success=True,
                gas_used=ctx.gas_used,
                return_value=result,
                events=list(ctx.events),
            )
        except (ContractError, GasExhaustedError) as exc:
            self.metrics.transactions_failed += 1
            return TransactionReceipt(
                tx_hash=tx.tx_hash,
                block_number=block_number,
                success=False,
                gas_used=tx.gas_limit if isinstance(exc, GasExhaustedError) else 21_000,
                error=str(exc),
            )

    def _validate_block(self, block: Block) -> None:
        parent = self.blocks[-1]
        if block.header.parent_hash != parent.block_hash:
            raise BlockchainError("block parent hash does not match the chain head")
        if block.header.number != parent.number + 1:
            raise BlockchainError("non-sequential block number")
        expected_root = Block.compute_transactions_root(block.transactions)
        if block.header.transactions_root != expected_root:
            raise BlockchainError("transactions root mismatch")

    # -- reads ---------------------------------------------------------------
    def call(self, contract: str, method: str, args: Optional[Dict[str, Any]] = None, sender: str = "0x0") -> Any:
        """Execute a read-only view method against the latest state."""
        target = self.runtime.get(contract)
        if not target.is_view(method):
            raise BlockchainError(
                f"method '{method}' mutates state; submit it as a transaction instead"
            )
        result, _ = self.runtime.call(
            contract,
            method,
            args,
            sender=sender,
            block_number=self.height,
            timestamp=self._clock(),
        )
        return result

    def receipt(self, tx_hash: str) -> Optional[TransactionReceipt]:
        """Receipt of a mined transaction, or None if not yet mined."""
        return self._receipts.get(tx_hash)

    def events(self, event_filter: Optional[EventFilter] = None) -> List[Event]:
        """Query the chain's event log."""
        return self.event_bus.query(event_filter)

    def subscribe(self, callback: Callable[[Event], None], event_filter: Optional[EventFilter] = None) -> Callable[[], None]:
        """Subscribe to future events; returns an unsubscribe callable."""
        return self.event_bus.subscribe(callback, event_filter)

    @property
    def height(self) -> int:
        """Number of the latest sealed block."""
        return self.blocks[-1].number

    def verify_chain(self) -> bool:
        """Re-validate every link and seal in the chain (integrity check).

        Each seal is checked against the blocks before it that the
        recent-sealing rule reads, not a copy of the whole prefix.
        """
        window = self.engine.recent_window
        for i in range(1, len(self.blocks)):
            block = self.blocks[i]
            parent = self.blocks[i - 1]
            if block.header.parent_hash != parent.block_hash:
                return False
            if block.header.transactions_root != Block.compute_transactions_root(block.transactions):
                return False
            try:
                self.engine.verify_seal(block, self.blocks[max(0, i - window) : i])
            except CliqueError:
                return False
        return True
