"""Private Ethereum-style blockchain used as UnifyFL's decentralized orchestrator.

The paper deploys a private chain of Geth nodes with Clique proof-of-authority
consensus and Solidity smart contracts.  This package reproduces the pieces of
that stack whose behaviour UnifyFL observes:

* :mod:`repro.chain.crypto` — hashing and simulated key pairs / signatures.
* :mod:`repro.chain.account` — externally owned accounts with nonces.
* :mod:`repro.chain.transaction` — signed, immutable transactions carrying
  contract calls, each encoded and hashed once.
* :mod:`repro.chain.block` — block headers and bodies linked by parent hash.
* :mod:`repro.chain.clique` — the Clique PoA sealer rotation and validation.
* :mod:`repro.chain.blockchain` — the chain itself: a transaction pool,
  block production, validation and state management.
* :mod:`repro.chain.contract` — a Python smart-contract runtime with gas
  accounting and an event log (the stand-in for the EVM + Solidity).
* :mod:`repro.chain.events` — event subscription used by the aggregators to
  follow ``StartTraining`` / ``StartScoring`` notifications.
"""

from repro.chain.account import Account
from repro.chain.block import Block, BlockHeader
from repro.chain.blockchain import Blockchain, BlockchainError
from repro.chain.clique import CliqueEngine, CliqueError
from repro.chain.contract import (
    Contract,
    ContractError,
    ContractRuntime,
    GasExhaustedError,
    contract_method,
    view_method,
)
from repro.chain.crypto import KeyPair, keccak_hex, sign_payload, verify_signature
from repro.chain.events import Event, EventBus, EventFilter
from repro.chain.transaction import Transaction, TransactionReceipt

__all__ = [
    "Account",
    "Block",
    "BlockHeader",
    "Blockchain",
    "BlockchainError",
    "CliqueEngine",
    "CliqueError",
    "Contract",
    "ContractError",
    "ContractRuntime",
    "GasExhaustedError",
    "contract_method",
    "view_method",
    "KeyPair",
    "keccak_hex",
    "sign_payload",
    "verify_signature",
    "Event",
    "EventBus",
    "EventFilter",
    "Transaction",
    "TransactionReceipt",
]
