"""Chunked block storage underneath an IPFS node.

IPFS splits files into fixed-size blocks, addresses every block by its hash
and links them from a root object; the root's hash is the file's CID.  This
module reproduces that layout so content integrity is verifiable block by
block and large model weights are stored as many small blocks (which is what
makes retrieval latency proportional to model size in the timing model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.ipfs.cid import CID, compute_cid

DEFAULT_CHUNK_SIZE = 256 * 1024  # IPFS's default 256 KiB chunker


def encode_manifest(chunk_cids: Sequence[CID], total_size: int) -> bytes:
    """Canonical encoding of a root object (what the root CID addresses)."""
    body = ",".join(c.value for c in chunk_cids) + f"|{total_size}"
    return body.encode("utf-8")


@dataclass
class ChunkedObject:
    """Root object describing a chunked payload: ordered links to data blocks."""

    cid: CID
    chunk_cids: List[CID]
    total_size: int


class VerifiedBlocks:
    """Block CID -> the ``bytes`` object that was hashed and found equal to it.

    ``bytes`` cannot be mutated, so "this object hashes to this CID" stays
    true wherever the object is handed (a simulated transfer hands over the
    same object): a stored or served block can only go bad by being
    *replaced*, a replacement is a different object, and a different object
    is always hashed.  One table serves every store of a swarm, so a block
    published once and pulled by many peers is hashed once.  The table holds
    references, never copies.
    """

    def __init__(self) -> None:
        self.entries: Dict[CID, bytes] = {}
        #: optional :class:`~repro.analysis.sanitizer.SimulationSanitizer`;
        #: when set, every acceptance by identity also re-hashes the block.
        self.sanitizer: Optional[Any] = None

    def accepts(self, cid: CID, chunk: bytes, holder: str) -> bool:
        """Whether ``chunk``, held or received by ``holder``, hashes to ``cid``."""
        if self.entries.get(cid) is chunk:
            if self.sanitizer is not None:
                self.sanitizer.check_block_verification(holder, cid, compute_cid(chunk))
            return True
        if not cid.verify(chunk):
            return False
        self.entries[cid] = chunk
        return True


class BlockStore:
    """Hash-addressed storage of raw blocks plus root manifests."""

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE, holder: str = "store"):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        #: who holds this store, for messages (the node id under a node).
        self.holder = holder
        #: private until the store's node joins a swarm, then the swarm's.
        self.verified = VerifiedBlocks()
        self._blocks: Dict[CID, bytes] = {}
        self._objects: Dict[CID, ChunkedObject] = {}

    # -- writes ---------------------------------------------------------------
    def put(self, content: bytes) -> ChunkedObject:
        """Chunk a payload, store every block, and return the root object.

        Every block is hashed on the way in, so whatever ``_blocks`` holds
        was hashed by this store or accepted from the swarm's table.
        """
        chunk_cids: List[CID] = []
        for start in range(0, max(len(content), 1), self.chunk_size):
            chunk = content[start : start + self.chunk_size]
            cid = compute_cid(chunk)
            # Hashed just now; keep the object a peer already entered for
            # equal content, so the two stores do not take turns re-hashing.
            self._blocks[cid] = self.verified.entries.setdefault(cid, chunk)
            chunk_cids.append(cid)
        root_cid = compute_cid(encode_manifest(chunk_cids, len(content)))
        obj = ChunkedObject(cid=root_cid, chunk_cids=chunk_cids, total_size=len(content))
        self._objects[root_cid] = obj
        return obj

    def put_object(self, obj: ChunkedObject, blocks: Dict[CID, bytes]) -> None:
        """Install a chunked object replicated from another node.

        All or nothing: every linked block is verified before any is stored.

        Raises:
            ValueError: when a block is missing, does not match its CID, or
                the blocks do not add up to the object's size.
        """
        size = 0
        for cid in obj.chunk_cids:
            chunk = blocks.get(cid)
            if chunk is None or not self.verified.accepts(cid, chunk, self.holder):
                raise ValueError(f"block {cid} is missing or does not match its CID")
            size += len(chunk)
        if size != obj.total_size:
            raise ValueError(f"blocks of {obj.cid} hold {size} bytes, not {obj.total_size}")
        for cid in obj.chunk_cids:
            self._blocks[cid] = blocks[cid]
        self._objects[obj.cid] = obj

    # -- reads ----------------------------------------------------------------
    def has(self, cid: CID) -> bool:
        """Whether the root object for a CID is stored locally."""
        return cid in self._objects

    def get_object(self, cid: CID) -> Optional[ChunkedObject]:
        """The root object for a CID, if stored locally."""
        return self._objects.get(cid)

    def get(self, cid: CID) -> Optional[bytes]:
        """Reassemble the full payload for a root CID, verifying every block."""
        obj = self._objects.get(cid)
        if obj is None:
            return None
        parts: List[bytes] = []
        for chunk_cid in obj.chunk_cids:
            chunk = self._blocks.get(chunk_cid)
            if chunk is None or not self.verified.accepts(chunk_cid, chunk, self.holder):
                return None
            parts.append(chunk)
        payload = b"".join(parts)
        if len(payload) != obj.total_size:
            return None
        return payload

    def blocks_for(self, cid: CID) -> Dict[CID, bytes]:
        """All raw blocks belonging to a root CID (for replication to peers)."""
        obj = self._objects.get(cid)
        if obj is None:
            return {}
        return {c: self._blocks[c] for c in obj.chunk_cids if c in self._blocks}

    # -- maintenance ------------------------------------------------------------
    def delete(self, cid: CID) -> bool:
        """Remove a root object and any blocks no other object references."""
        obj = self._objects.pop(cid, None)
        if obj is None:
            return False
        still_referenced = {
            chunk for other in self._objects.values() for chunk in other.chunk_cids
        }
        for chunk_cid in obj.chunk_cids:
            if chunk_cid not in still_referenced:
                self._blocks.pop(chunk_cid, None)
                self.verified.entries.pop(chunk_cid, None)
        return True

    @property
    def stored_bytes(self) -> int:
        """Total bytes of raw block data held locally."""
        # integer byte counts: addition is order-exact
        return sum(len(b) for b in self._blocks.values())  # detlint: ignore[DET003]

    def object_cids(self) -> List[CID]:
        """All locally stored root CIDs."""
        return list(self._objects)
