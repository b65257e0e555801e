"""A single IPFS node: local add/get, pinning and garbage collection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.ipfs.blockstore import BlockStore, DEFAULT_CHUNK_SIZE
from repro.ipfs.cid import CID


class IPFSError(Exception):
    """Raised for retrieval failures and invalid node operations."""


@dataclass
class NodeStats:
    """Per-node transfer counters used in the overhead accounting."""

    bytes_added: int = 0
    bytes_retrieved: int = 0
    bytes_received_from_peers: int = 0
    bytes_sent_to_peers: int = 0
    objects_added: int = 0
    objects_fetched_remote: int = 0


class IPFSNode:
    """One storage node in the swarm (hosted on an aggregator machine).

    A node can add content (returning its CID), retrieve content it holds
    locally, pin CIDs to protect them from garbage collection, and exchange
    blocks with peers through the swarm.
    """

    def __init__(self, node_id: str, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if not node_id:
            raise ValueError("node_id must be non-empty")
        self.node_id = node_id
        self.store = BlockStore(chunk_size=chunk_size, holder=node_id)
        self.pinned: Set[CID] = set()
        self.stats = NodeStats()
        self._swarm = None  # set when the node joins a swarm

    # -- swarm membership -----------------------------------------------------
    def join(self, swarm) -> None:
        """Attach this node to a swarm (called by :class:`IPFSSwarm.add_node`)."""
        self._swarm = swarm

    @property
    def swarm(self):
        return self._swarm

    # -- content --------------------------------------------------------------
    def add(self, content: bytes, pin: bool = True) -> CID:
        """Store a payload locally, announce it to the swarm, return its CID."""
        obj = self.store.put(content)
        if pin:
            self.pinned.add(obj.cid)
        self.stats.bytes_added += len(content)
        self.stats.objects_added += 1
        if self._swarm is not None:
            self._swarm.announce_provider(obj.cid, self.node_id)
        return obj.cid

    def has_local(self, cid: CID) -> bool:
        """Whether the node can serve a CID without contacting peers."""
        return self.store.has(cid)

    def get(self, cid: CID) -> bytes:
        """Retrieve a payload, fetching blocks from peers when needed.

        Raises:
            IPFSError: when no provider in the swarm holds the content.
        """
        local = self.store.get(cid)
        if local is not None:
            self.stats.bytes_retrieved += len(local)
            return local
        if self._swarm is None:
            raise IPFSError(f"node {self.node_id} does not hold {cid} and is not in a swarm")
        payload = self._swarm.fetch(cid, requester_id=self.node_id)
        self.stats.bytes_retrieved += len(payload)
        return payload

    # -- pinning & GC -----------------------------------------------------------
    def pin(self, cid: CID) -> None:
        """Protect a CID (and its blocks) from garbage collection."""
        if not self.store.has(cid):
            raise IPFSError(f"cannot pin {cid}: not stored on node {self.node_id}")
        self.pinned.add(cid)

    def unpin(self, cid: CID) -> None:
        """Remove GC protection from a CID."""
        self.pinned.discard(cid)

    def garbage_collect(self) -> List[CID]:
        """Delete every unpinned object; returns the CIDs removed."""
        removed: List[CID] = []
        for cid in list(self.store.object_cids()):
            if cid not in self.pinned:
                if self.store.delete(cid):
                    removed.append(cid)
                    if self._swarm is not None:
                        self._swarm.withdraw_provider(cid, self.node_id)
        return removed

    # -- replication hooks used by the swarm -----------------------------------
    def _serve_blocks(self, cid: CID):
        """Hand a peer the root object and raw blocks for a CID."""
        obj = self.store.get_object(cid)
        if obj is None:
            raise IPFSError(f"node {self.node_id} asked to serve unknown CID {cid}")
        blocks = self.store.blocks_for(cid)
        # integer byte counts: addition is order-exact
        size = sum(len(b) for b in blocks.values())  # detlint: ignore[DET003]
        self.stats.bytes_sent_to_peers += size
        return obj, blocks

    def _receive_blocks(self, obj, blocks: Dict[CID, bytes]) -> None:
        """Install replicated content received from a peer."""
        self.store.put_object(obj, blocks)
        # integer byte counts: addition is order-exact
        self.stats.bytes_received_from_peers += sum(  # detlint: ignore[DET003]
            len(b) for b in blocks.values()
        )
        self.stats.objects_fetched_remote += 1

    @property
    def stored_bytes(self) -> int:
        """Raw bytes held in the node's block store."""
        return self.store.stored_bytes
