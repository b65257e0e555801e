"""Clique proof-of-authority consensus (EIP-225), as used by the paper's chain.

The paper's private Ethereum network uses Clique PoA "to provide high
security, scalability with minimal computing power consumption, and faster
transaction validation".  Clique replaces proof-of-work with a rotating set of
authorised *signers*: the signer whose turn it is seals the block in-turn;
other signers may seal out-of-turn after a delay; a signer may not seal two of
the last ``N/2 + 1`` blocks.  This module reproduces that sealer-rotation
logic and header validation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.chain.account import Account
from repro.chain.block import Block, BlockHeader
from repro.chain.crypto import verify_signature


class CliqueError(Exception):
    """Raised when a block violates the Clique sealing rules."""


#: simulated per-transaction validation/gossip cost in seconds — the single
#: source of truth shared by the constant-cost timing model
#: (:meth:`repro.core.timing.ClusterTimingModel.chain_interaction_time`) and
#: the event-stream chain actor (:class:`repro.sched.actors.ChainActor`), so
#: the two cost models cannot silently drift apart.
TX_VALIDATION_COST_S = 0.05


class CliqueEngine:
    """Implements the Clique signer rotation and seal validation.

    Args:
        signers: the authorised sealer accounts (the aggregator nodes in
            UnifyFL — each organisation runs one Geth validator).
        block_period: target seconds between blocks (Clique's ``period``);
            only used by the timing simulation.
    """

    def __init__(self, signers: Sequence[Account], block_period: float = 2.0):
        if not signers:
            raise CliqueError("Clique requires at least one authorised signer")
        if block_period <= 0:
            raise CliqueError("block_period must be positive")
        addresses = [s.address for s in signers]
        if len(set(addresses)) != len(addresses):
            raise CliqueError("duplicate signer addresses")
        self._signers: Dict[str, Account] = {s.address: s for s in signers}
        self._signer_order: List[str] = sorted(addresses)
        self.block_period = block_period

    @property
    def signer_addresses(self) -> List[str]:
        """Sorted list of authorised sealer addresses."""
        return list(self._signer_order)

    def in_turn_signer(self, block_number: int) -> str:
        """The address whose turn it is to seal ``block_number``."""
        return self._signer_order[block_number % len(self._signer_order)]

    @property
    def recent_window(self) -> int:
        """How many of the newest blocks the recent-sealing rule reads:
        ``len(signers) // 2``."""
        return len(self._signer_order) // 2

    def recently_sealed(self, chain: Sequence[Block], address: str) -> bool:
        """True if ``address`` sealed one of the last :attr:`recent_window` blocks.

        Clique forbids a signer from sealing again before ``N/2 + 1`` other
        blocks have passed; with a small signer set this reduces to not
        sealing two consecutive blocks.
        """
        limit = self.recent_window
        if limit == 0:
            return False
        return any(block.header.sealer == address for block in chain[-limit:])

    def select_sealer(self, chain: Sequence[Block], block_number: int) -> str:
        """Choose the sealer for the next block.

        Prefers the in-turn signer; if that signer sealed too recently, fall
        back to the first eligible out-of-turn signer in address order.
        """
        in_turn = self.in_turn_signer(block_number)
        if not self.recently_sealed(chain, in_turn):
            return in_turn
        for address in self._signer_order:
            if address != in_turn and not self.recently_sealed(chain, address):
                return address
        raise CliqueError("no eligible sealer available (signer set too small)")

    def seal(self, header: BlockHeader) -> BlockHeader:
        """Sign a block header with the sealer's key."""
        account = self._signers.get(header.sealer)
        if account is None:
            raise CliqueError(f"sealer {header.sealer} is not an authorised signer")
        header.seal_signature = account.sign({"header": header.hash()})
        return header

    def verify_seal(self, block: Block, chain: Sequence[Block]) -> None:
        """Validate a sealed block against the Clique rules.

        Raises:
            CliqueError: if the sealer is unauthorised, the seal signature is
                invalid, or the sealer violated the recent-sealing restriction.
        """
        header = block.header
        account = self._signers.get(header.sealer)
        if account is None:
            raise CliqueError(f"block {header.number} sealed by unauthorised address {header.sealer}")
        valid = verify_signature(
            account.keypair.public_key,
            account.keypair.private_key,
            {"header": header.hash()},
            header.seal_signature,
        )
        if not valid:
            raise CliqueError(f"block {header.number} carries an invalid seal signature")
        if self.recently_sealed(chain, header.sealer):
            raise CliqueError(
                f"signer {header.sealer} sealed a recent block and must wait its turn"
            )

    def seal_delay(self, block_number: int, sealer: str) -> float:
        """Simulated sealing latency: in-turn signers seal after ``block_period``,
        out-of-turn signers add a wiggle delay (as Geth does)."""
        if sealer == self.in_turn_signer(block_number):
            return self.block_period
        return self.block_period * 1.5


def consensus_delay(num_signers: int, block_period: float) -> float:
    """Expected per-block Clique consensus latency beyond the block interval.

    A sealed block is not final the instant its interval elapses: every signer
    verifies the seal (a small per-signer cost) and, once per rotation, the
    in-turn signer is ineligible and an out-of-turn signer seals after Geth's
    wiggle delay (``period / 2``, amortised over the rotation here).  The
    event-stream chain actor (:class:`repro.sched.actors.ChainActor`) adds
    this on top of the block-interval quantisation.

    Args:
        num_signers: size of the authorised signer set.
        block_period: Clique target seconds between blocks.

    Returns:
        Simulated seconds of consensus overhead per sealed block.
    """
    if num_signers <= 0:
        raise CliqueError("consensus delay requires at least one signer")
    if block_period <= 0:
        raise CliqueError("block_period must be positive")
    verification = 0.01 * num_signers
    amortised_wiggle = (block_period / 2.0) / num_signers
    return verification + amortised_wiggle
