"""Hashing, key pairs and signatures for the simulated blockchain.

Real Ethereum uses Keccak-256 and secp256k1 ECDSA.  Neither primitive is
available in the offline environment, so the chain uses SHA3-256 (the
standard-library cousin of Keccak) for content hashes and an HMAC-style
keyed-hash construction for signatures.  The properties UnifyFL relies on are
preserved: addresses are derived from public keys, a signature binds a payload
to an address, tampering with either invalidates the signature, and only the
holder of the private key can produce a valid signature for its address.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass
from typing import Any, Optional


def keccak_hex(data: bytes) -> str:
    """Hex digest of the chain's content hash (SHA3-256 standing in for Keccak)."""
    return hashlib.sha3_256(data).hexdigest()


def canonical_bytes(payload: Any) -> bytes:
    """The canonical encoding of a JSON-serialisable payload (sorted keys)."""
    return json.dumps(payload, sort_keys=True, default=str).encode("utf-8")


def hash_payload(payload: Any) -> str:
    """Deterministically hash a JSON-serialisable payload."""
    return keccak_hex(canonical_bytes(payload))


@dataclass(frozen=True)
class KeyPair:
    """A simulated asymmetric key pair.

    The private key is a random 32-byte secret; the public key is a one-way
    hash of it, and the address is the last 20 bytes of the public key's hash
    (mirroring Ethereum's address derivation).
    """

    private_key: str
    public_key: str
    address: str

    @classmethod
    def generate(cls, seed: Optional[int] = None) -> "KeyPair":
        """Create a new key pair, optionally deterministic from an integer seed."""
        if seed is None:
            import secrets

            # Unseeded generate() is the opt-in entropy path; simulation call sites all pass a seed.
            private = secrets.token_hex(32)  # detlint: ignore[DET001]
        else:
            private = hashlib.sha3_256(f"unifyfl-keypair-{seed}".encode()).hexdigest()
        public = keccak_hex(bytes.fromhex(private))
        address = "0x" + keccak_hex(bytes.fromhex(public))[-40:]
        return cls(private_key=private, public_key=public, address=address)

    def sign(self, payload: Any) -> str:
        """Sign a JSON-serialisable payload with this key pair."""
        return sign_payload(self.private_key, payload)


def sign_payload(private_key: str, payload: Any) -> str:
    """Produce a signature binding ``payload`` to the key's address."""
    return sign_bytes(private_key, canonical_bytes(payload))


def sign_bytes(private_key: str, message: bytes) -> str:
    """Sign an already canonical encoding (see :func:`canonical_bytes`)."""
    return hmac.new(bytes.fromhex(private_key), message, hashlib.sha3_256).hexdigest()


def verify_signature(public_key: str, private_key_hint: str, payload: Any, signature: str) -> bool:
    """Verify a signature.

    Because the simulation's "public key" cannot invert the keyed hash, chain
    nodes verify against the registered key material of the sender account
    (``private_key_hint``), then confirm the public key / address binding.
    This mirrors the trust model of a permissioned PoA chain where validator
    identities are registered out of band.
    """
    return verify_signed_bytes(public_key, private_key_hint, canonical_bytes(payload), signature)


def verify_signed_bytes(
    public_key: str, private_key_hint: str, message: bytes, signature: str
) -> bool:
    """:func:`verify_signature` over an already canonical encoding."""
    if keccak_hex(bytes.fromhex(private_key_hint)) != public_key:
        return False
    expected = sign_bytes(private_key_hint, message)
    return hmac.compare_digest(expected, signature)


def address_from_public_key(public_key: str) -> str:
    """Derive the 20-byte hex address for a public key."""
    return "0x" + keccak_hex(bytes.fromhex(public_key))[-40:]
