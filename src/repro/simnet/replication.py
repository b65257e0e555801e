"""Object availability across storage replicas: the replication ledger.

Distributing an uploaded artifact to several storage sites is not free — the
middleware literature on multi-site installation infrastructures makes the
point that *distribution cost dominates* exactly where replication looks most
attractive.  Earlier releases of the topology layer cut that corner: an
upload landed on exactly one replica, yet any replica could immediately serve
the download, so inter-site propagation happened off the books.

:class:`ReplicaDirectory` closes the hole.  It is a pure bookkeeping object —
a per-object ledger of *when* each artifact becomes present at each replica —
with no notion of links or time of its own.  The
:class:`~repro.sched.actors.NetworkActor` owns one directory and keeps it
consistent with the transfers it commits on the
:class:`~repro.simnet.network.LinkScheduler`:

* an **upload** records the object's *origin* replica and its arrival there
  (the upload's completion time);
* an **eager propagation** transfer records the arrival at the receiving
  peer replica when the WAN push completes;
* a **lazy fetch** records the arrival at the requesting replica when the
  on-demand origin→replica transfer completes.

Downloads then gate on the ledger (read-your-writes: a download from replica
*r* starts no earlier than the object's arrival at *r*).  Objects the
directory has never seen are treated as pre-seeded — available everywhere at
time zero — which is exactly the legacy free-replication behaviour and keeps
callers that do not thread object identities bit-identical.
"""

from __future__ import annotations

from typing import Dict, Optional

#: replication policies understood by :class:`~repro.sched.actors.NetworkActor`:
#: ``eager`` — the origin pushes the object to every peer replica right after
#: the upload commits; ``lazy`` — a download miss triggers an on-demand
#: origin→replica fetch the downloader waits behind; ``none`` — downloads are
#: pinned to the origin replica and no propagation traffic ever flows.
REPLICATION_MODES = ("eager", "lazy", "none")


class ReplicaDirectory:
    """Per-object availability ledger over a set of storage replicas.

    Records, for every object the fabric has seen, which replica it was
    first uploaded to (its *origin*) and the simulated time it becomes
    present at each replica.  All methods are O(1) dictionary operations;
    determinism follows from the callers committing transfers in
    deterministic order.
    """

    def __init__(self) -> None:
        #: object id -> replica name -> earliest simulated arrival time.
        self._arrivals: Dict[str, Dict[str, float]] = {}
        #: object id -> the replica its first upload landed on.
        self._origins: Dict[str, str] = {}

    # ------------------------------------------------------------------ writes
    def record_upload(self, object_id: str, replica: str, at: float) -> None:
        """Register an upload of ``object_id`` completing at ``replica``.

        The first upload fixes the object's origin; re-uploads (the same
        content-addressed artifact pushed again) only ever move arrival
        times *earlier*.
        """
        self._origins.setdefault(object_id, replica)
        self.record_arrival(object_id, replica, at)

    def record_arrival(self, object_id: str, replica: str, at: float) -> None:
        """Register ``object_id`` becoming present at ``replica`` at time ``at``."""
        if at < 0:
            raise ValueError("arrival time must be non-negative")
        arrivals = self._arrivals.setdefault(object_id, {})
        previous = arrivals.get(replica)
        if previous is None or at < previous:
            arrivals[replica] = at

    # ----------------------------------------------------------------- queries
    def known(self, object_id: Optional[str]) -> bool:
        """Whether the directory has ever seen this object (``None`` is never known)."""
        return object_id is not None and object_id in self._origins

    def origin(self, object_id: str) -> Optional[str]:
        """The replica the object's first upload landed on, or ``None``."""
        return self._origins.get(object_id)

    def arrival(self, object_id: str, replica: str) -> Optional[float]:
        """When the object becomes present at ``replica``.

        ``None`` means no committed or scheduled transfer brings it there —
        the caller must either fetch on demand (lazy) or go to a replica
        that has it.
        """
        return self._arrivals.get(object_id, {}).get(replica)

    def __len__(self) -> int:
        return len(self._origins)
