"""Content identifiers (CIDs).

A CID is a self-describing content address: a version, a codec tag and the
multihash of the content.  The simulation keeps the structure (so CIDs are
recognisable, comparable and verifiable) while using SHA-256 as the digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


_PREFIX = "Qm"  # the familiar CIDv0-style prefix


@dataclass(frozen=True, order=True, slots=True)
class CID:
    """An immutable content identifier."""

    value: str

    def __post_init__(self) -> None:
        if not self.value.startswith(_PREFIX) or len(self.value) != len(_PREFIX) + 64:
            raise ValueError(f"malformed CID: {self.value!r}")

    def __str__(self) -> str:
        return self.value

    @property
    def digest(self) -> str:
        """The raw hex digest embedded in the CID."""
        return self.value[len(_PREFIX):]

    def verify(self, content: bytes) -> bool:
        """Check that ``content`` hashes to this CID."""
        return compute_cid(content) == self


def compute_cid(content: bytes) -> CID:
    """Derive the CID of a byte payload."""
    return CID(_PREFIX + hashlib.sha256(content).hexdigest())


def parse_cid(value: str) -> CID:
    """Parse and validate a CID string."""
    return CID(value)
