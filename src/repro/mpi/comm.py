"""Groups, communicators, and collective coordination contexts.

A :class:`Communicator` is (as in real MPI) a context id plus an ordered
group of endpoints; intercommunicators additionally carry a remote group
(used by ``MPI_Comm_spawn``'s parent/child communication).  Collective
operations coordinate through :class:`CollectiveContext` objects keyed by a
per-communicator sequence number -- which encodes the MPI rule that all
ranks of a communicator must call collectives in the same order.  A
communicator holds a context only until every member has fetched it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..sim.kernel import Kernel, SimEvent
from .errors import CommunicatorError

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Endpoint

__all__ = ["Group", "Communicator", "CollectiveContext"]


class Group:
    """An ordered set of endpoints; rank == index."""

    __slots__ = ("members", "_rank_index")

    def __init__(self, members: Iterable["Endpoint"]) -> None:
        self.members = tuple(members)
        if not self.members:
            raise CommunicatorError("empty group")
        # identity -> rank: rank_of/contains run on every collective and
        # every RMA epoch check, so at thousands of ranks a linear scan
        # would make each barrier round O(ranks^2)
        self._rank_index = {id(m): i for i, m in enumerate(self.members)}

    @property
    def size(self) -> int:
        return len(self.members)

    def rank_of(self, endpoint: "Endpoint") -> int:
        rank = self._rank_index.get(id(endpoint))
        if rank is None:
            raise CommunicatorError(f"endpoint {endpoint!r} not in group")
        return rank

    def contains(self, endpoint: "Endpoint") -> bool:
        return id(endpoint) in self._rank_index

    def __getitem__(self, rank: int) -> "Endpoint":
        if not 0 <= rank < len(self.members):
            raise CommunicatorError(f"rank {rank} out of range [0, {len(self.members)})")
        return self.members[rank]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


class CollectiveContext:
    """Rendezvous for one collective-operation instance.

    Ranks call :meth:`arrive`; the last arrival computes/installs the result
    (callers decide what that is) and triggers the event everyone else is
    blocked on.
    """

    def __init__(self, kernel: Kernel, expected: int, label: str = "") -> None:
        if expected < 1:
            raise CommunicatorError("collective needs at least one participant")
        self.kernel = kernel
        self.expected = expected
        self.label = label
        self.fetched = 0  # members that fetched it from their communicator
        self.arrivals: list[tuple[Any, Any]] = []  # (endpoint, value)
        self.event: SimEvent = kernel.event(name=f"coll.{label}")
        self.result: Any = None

    def arrive(self, endpoint: "Endpoint", value: Any = None) -> bool:
        """Record an arrival; returns True iff this was the last one."""
        if len(self.arrivals) >= self.expected:
            raise CommunicatorError(f"too many arrivals at collective {self.label!r}")
        self.arrivals.append((endpoint, value))
        return len(self.arrivals) == self.expected

    def values(self) -> list:
        """Arrival values ordered by the arriving endpoint's world rank
        (deterministic, independent of arrival timing)."""
        ordered = sorted(self.arrivals, key=lambda pair: pair[0].world_rank)
        return [value for _, value in ordered]

    def complete(self, result: Any = None) -> None:
        self.result = result
        self.event.trigger(result)

    @property
    def complete_now(self) -> bool:
        return self.event.triggered


class Communicator:
    """An intra- or inter-communicator."""

    def __init__(
        self,
        kernel: Kernel,
        cid: int,
        group: Group,
        *,
        remote_group: Optional[Group] = None,
        name: str = "",
        internal: bool = False,
    ) -> None:
        self.kernel = kernel
        self.cid = cid
        self.group = group
        self.remote_group = remote_group
        self.name = name or f"comm_{cid}"
        self.user_named = False
        #: internal communicators (implementation-private, e.g. LAM's hidden
        #: per-window communicator) are still visible to the tool as
        #: resources, but are flagged so reports can distinguish them.
        self.internal = internal
        self.freed = False
        #: True for intercommunicators created by MPI_Comm_spawn: both sides
        #: must MPI_Comm_disconnect them before MPI_Finalize, and the
        #: sanitizer's finalize checks report the ones that never were.
        self.connected = False
        self._collectives: dict[int, CollectiveContext] = {}
        self._coll_seq: dict[int, int] = {}  # endpoint world_rank -> next seq

    # -- shape ------------------------------------------------------------------

    @property
    def is_intercomm(self) -> bool:
        return self.remote_group is not None

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def remote_size(self) -> int:
        if self.remote_group is None:
            raise CommunicatorError(f"{self.name} is not an intercommunicator")
        return self.remote_group.size

    def rank_of(self, endpoint: "Endpoint") -> int:
        return self.local_group_for(endpoint).rank_of(endpoint)

    def local_group_for(self, endpoint: "Endpoint") -> Group:
        """The group ``endpoint`` belongs to.  On an intercommunicator the
        two sides see different local groups; this resolves the view."""
        if self.group.contains(endpoint):
            return self.group
        if self.remote_group is not None and self.remote_group.contains(endpoint):
            return self.remote_group
        raise CommunicatorError(f"{endpoint!r} not a member of {self.name}")

    def remote_group_for(self, endpoint: "Endpoint") -> Group:
        if self.remote_group is None:
            return self.group
        if self.group.contains(endpoint):
            return self.remote_group
        return self.group

    def peer_for(self, endpoint: "Endpoint", rank: int) -> "Endpoint":
        """The endpoint a send to ``rank`` reaches, from ``endpoint``'s view:
        the local group on intracomms, the remote group on intercomms."""
        if self.remote_group is None:
            return self.group[rank]
        return self.remote_group_for(endpoint)[rank]

    # -- naming (MPI-2 object naming, Section 4.2.3) ------------------------------

    def set_name(self, name: str) -> None:
        self.name = name
        self.user_named = True

    def get_name(self) -> str:
        return self.name

    # -- collectives ----------------------------------------------------------------

    def collective_context(self, endpoint: "Endpoint", label: str = "") -> CollectiveContext:
        """The context for this endpoint's next collective on this comm.

        Each endpoint advances its own sequence number; contexts are shared
        across the (local) group.  Intercomm collectives (spawn, merge) span
        both groups.  Keyed by endpoint identity: world ranks repeat across
        the parent/child worlds an intercommunicator joins.  Each member
        fetches each sequence number once, so the table drops a context at
        its last fetch, and a long run holds only collectives in flight.
        """
        key = id(endpoint)
        seq = self._coll_seq.get(key, 0)
        self._coll_seq[key] = seq + 1
        ctxt = self._collectives.get(seq)
        if ctxt is None:
            expected = self.group.size + (self.remote_group.size if self.remote_group else 0)
            ctxt = CollectiveContext(self.kernel, expected, label=f"{self.name}#{seq}:{label}")
            self._collectives[seq] = ctxt
        ctxt.fetched += 1
        if ctxt.fetched == ctxt.expected:
            del self._collectives[seq]
        return ctxt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "inter" if self.is_intercomm else "intra"
        return f"<Communicator {self.name} cid={self.cid} {kind} size={self.size}>"
