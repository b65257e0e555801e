"""Transactions and receipts for the simulated chain.

A transaction carries a smart-contract call: the target contract name, the
method, and JSON-serialisable arguments.  It is signed by the sender and
ordered by the sender's nonce.  A receipt records what an Ethereum receipt
does: execution status, gas used and the events (logs) emitted.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

from repro.chain.account import Account
from repro.chain.crypto import KeyPair, canonical_bytes, hash_payload, sign_bytes
from repro.chain.events import Event


@dataclass(frozen=True, slots=True)
class Transaction:
    """A signed contract-call transaction, immutable once built.

    :meth:`create` builds it signed.  ``args`` is a read-only view of a
    private copy of the caller's arguments, and construction derives, once,
    the canonical encoding the signature covers (``signing_bytes``) and the
    ``tx_hash`` of the fields plus the signature.  Submission, receipts and
    the block's transactions root all read those stored values instead of
    encoding the transaction again; under ``--sanitize`` the chain re-hashes
    every transaction it seals (:meth:`compute_hash`).  A changed copy
    (``dataclasses.replace``) derives its own encoding and hash, so it
    carries the old signature over bytes that signature does not cover.
    """

    sender: str
    nonce: int
    contract: str
    method: str
    args: Mapping[str, Any] = field(default_factory=dict)
    gas_limit: int = 1_000_000
    signature: str = ""
    sender_public_key: str = ""
    #: when given, the transaction is signed with it over ``signing_bytes``.
    signer: InitVar[Optional[KeyPair]] = None
    signing_bytes: bytes = field(init=False, repr=False, compare=False)
    tx_hash: str = field(init=False, compare=False)

    def __post_init__(self, signer: Optional[KeyPair]) -> None:
        object.__setattr__(self, "args", MappingProxyType(dict(self.args)))
        object.__setattr__(self, "signing_bytes", canonical_bytes(self.signing_payload()))
        if signer is not None:
            signature = sign_bytes(signer.private_key, self.signing_bytes)
            object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "tx_hash", self.compute_hash())

    @classmethod
    def create(
        cls,
        account: Account,
        contract: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
        gas_limit: int = 1_000_000,
    ) -> "Transaction":
        """Build and sign a transaction from an account."""
        if gas_limit <= 0:
            raise ValueError("gas_limit must be positive")
        return cls(
            sender=account.address,
            nonce=account.next_nonce(),
            contract=contract,
            method=method,
            args=args or {},
            gas_limit=gas_limit,
            sender_public_key=account.keypair.public_key,
            signer=account.keypair,
        )

    def signing_payload(self) -> Dict[str, Any]:
        """The canonical payload covered by the signature."""
        return {
            "sender": self.sender,
            "nonce": self.nonce,
            "contract": self.contract,
            "method": self.method,
            "args": dict(self.args),
            "gas_limit": self.gas_limit,
        }

    def compute_hash(self) -> str:
        """The hash of the fields and signature as they are now.

        Equal to the stored ``tx_hash`` for as long as nothing reachable
        from ``args`` is mutated in place.
        """
        return "0x" + hash_payload({**self.signing_payload(), "signature": self.signature})

    def estimated_size_bytes(self) -> int:
        """Rough encoded size, used by the overhead accounting."""
        return len(self.signing_bytes) + 64


@dataclass(slots=True)
class TransactionReceipt:
    """Execution outcome of a transaction included in a block.

    It holds status, gas and logs: ``events`` are the stamped events the
    chain's event log holds, the same objects.  ``return_value`` is what the
    method returned; the UnifyFL contract's ``submitModel`` and
    ``submitScore`` return nothing, so their receipts keep no snapshot of
    the contract's state.
    """

    tx_hash: str
    block_number: int
    success: bool
    gas_used: int
    return_value: Any = None
    error: Optional[str] = None
    events: List[Event] = field(default_factory=list)
