"""The IPFS swarm: provider records (DHT) and peer-to-peer block exchange."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.ipfs.blockstore import VerifiedBlocks
from repro.ipfs.cid import CID
from repro.ipfs.node import IPFSError, IPFSNode


@dataclass(slots=True)
class TransferRecord:
    """One peer-to-peer content transfer, consumed by the timing simulation."""

    cid: CID
    provider: str
    requester: str
    num_bytes: int
    sim_time: float = 0.0


class IPFSSwarm:
    """A private swarm of IPFS nodes with a DHT-style provider index.

    The provider index maps a CID to the set of node ids that hold it —
    the role the Kademlia DHT plays in real IPFS.  ``fetch`` resolves a CID to
    a provider, transfers the blocks to the requesting node, verifies them
    against their hashes, and records the transfer for the overhead study.

    Verification is remembered per ``bytes`` object in ``verified_blocks``,
    the one table every member's store consults: a block is hashed when it
    first enters the swarm, not again by every node that receives or reads
    that same object.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._nodes: Dict[str, IPFSNode] = {}
        self._providers: Dict[CID, Set[str]] = {}
        self._clock = clock or (lambda: 0.0)
        self.transfers: List[TransferRecord] = []
        self.verified_blocks = VerifiedBlocks()

    # -- membership -------------------------------------------------------------
    def add_node(self, node: IPFSNode) -> IPFSNode:
        """Add a node to the swarm and index any content it already holds."""
        if node.node_id in self._nodes:
            raise IPFSError(f"a node with id '{node.node_id}' is already in the swarm")
        self._nodes[node.node_id] = node
        node.join(self)
        self.verified_blocks.entries.update(node.store.verified.entries)
        node.store.verified = self.verified_blocks
        for cid in node.store.object_cids():
            self.announce_provider(cid, node.node_id)
        return node

    def create_node(self, node_id: str, chunk_size: int = 256 * 1024) -> IPFSNode:
        """Create a node and add it to the swarm in one step."""
        return self.add_node(IPFSNode(node_id, chunk_size=chunk_size))

    def node(self, node_id: str) -> IPFSNode:
        """Look up a member node by id."""
        if node_id not in self._nodes:
            raise IPFSError(f"no node '{node_id}' in the swarm")
        return self._nodes[node_id]

    @property
    def node_ids(self) -> List[str]:
        """Ids of all member nodes."""
        return sorted(self._nodes)

    # -- provider index (DHT) ------------------------------------------------------
    def announce_provider(self, cid: CID, node_id: str) -> None:
        """Record that a node can provide a CID."""
        self._providers.setdefault(cid, set()).add(node_id)

    def withdraw_provider(self, cid: CID, node_id: str) -> None:
        """Remove a node from a CID's provider set (after GC)."""
        providers = self._providers.get(cid)
        if providers is not None:
            providers.discard(node_id)
            if not providers:
                del self._providers[cid]

    def providers(self, cid: CID) -> List[str]:
        """Node ids currently providing a CID."""
        return sorted(self._providers.get(cid, set()))

    # -- content exchange -----------------------------------------------------------
    def fetch(self, cid: CID, requester_id: str) -> bytes:
        """Transfer a CID's content to the requesting node and return it.

        A provider whose blocks do not verify is passed over for the next.

        Raises:
            IPFSError: when no provider serves valid content for the CID.
        """
        requester = self.node(requester_id)
        for provider_id in self.providers(cid):
            if provider_id == requester_id:
                continue
            provider = self._nodes.get(provider_id)
            if provider is None or not provider.has_local(cid):
                continue
            obj, blocks = provider._serve_blocks(cid)
            try:
                requester._receive_blocks(obj, blocks)
            except ValueError:
                continue  # nothing was installed: try the next provider
            payload = requester.store.get(cid)
            assert payload is not None  # installed whole and verified just above
            self.announce_provider(cid, requester_id)
            self.transfers.append(
                TransferRecord(
                    cid=cid,
                    provider=provider_id,
                    requester=requester_id,
                    num_bytes=len(payload),
                    sim_time=self._clock(),
                )
            )
            return payload
        raise IPFSError(f"no provider in the swarm serves valid content for {cid}")

    # -- aggregate statistics -----------------------------------------------------
    def total_stored_bytes(self) -> int:
        """Sum of raw block bytes across every node (counts replicas)."""
        # integer byte counts: addition is order-exact
        return sum(node.stored_bytes for node in self._nodes.values())  # detlint: ignore[DET003]

    def total_transferred_bytes(self) -> int:
        """Total bytes moved between peers since the swarm was created."""
        return sum(t.num_bytes for t in self.transfers)

    def replication_factor(self, cid: CID) -> int:
        """Number of nodes currently holding a CID."""
        return len(self.providers(cid))
