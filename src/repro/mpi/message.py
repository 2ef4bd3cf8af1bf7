"""Message envelopes and per-endpoint matching (posted + unexpected queues).

This implements the MPI matching semantics the paper's ``wrong-way``
benchmark stresses: receives match by ``(context id, source, tag)`` with
wildcard support, messages that arrive before a matching receive is posted
land in the *unexpected queue*, and matching is FIFO per arrival order so
the non-overtaking rule holds for any (sender, receiver, communicator)
triple.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..sim.kernel import Kernel, SimEvent
from .datatypes import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.network import LinkModel
    from .impls.base import FlowChannel

__all__ = ["Protocol", "Envelope", "PostedRecv", "Mailbox"]


class Protocol(enum.Enum):
    """How the payload travels."""

    EAGER = "eager"  # data travels with the envelope
    RENDEZVOUS = "rendezvous"  # envelope is a ready-to-send; data follows CTS


@dataclass(slots=True)
class Envelope:
    """One in-flight message (or rendezvous control token)."""

    protocol: Protocol
    src_rank: int  # rank within the communicator ("remote" rank on intercomms)
    tag: int
    cid: int  # communicator context id
    nbytes: int
    payload: Any = None
    arrival_seq: int = 0
    datatype: Any = None  # sender-side Datatype when known (typed sends)
    # Rendezvous coordination: the receiver triggers cts_event to tell the
    # sender to push data; the sender triggers data_event when data lands.
    cts_event: Optional[SimEvent] = None
    data_event: Optional[SimEvent] = None
    link: Optional[LinkModel] = None  # the receiver charges its copy-out by it
    # Eager flow control: the credit taken from the sender's channel to the
    # receiver, returned when the message is received (rendezvous: none).
    channel: Optional[FlowChannel] = None
    credit: int = 0
    # a library-internal RMA payload carrier (LAM's fence flush): absorbed
    # by the progress engine, never matched by a user receive
    rma_sink: bool = False

    def matches(self, source: int, tag: int, cid: int) -> bool:
        if cid != self.cid:
            return False
        if source != ANY_SOURCE and source != self.src_rank:
            return False
        if tag != ANY_TAG and tag != self.tag:
            return False
        return True


@dataclass
class PostedRecv:
    """A receive waiting for a matching envelope."""

    source: int
    tag: int
    cid: int
    event: SimEvent  # triggered with the matching Envelope
    posted_seq: int = 0


class Mailbox:
    """Matching engine for one endpoint (one MPI process)."""

    def __init__(self, kernel: Kernel, owner_name: str = "") -> None:
        self.kernel = kernel
        self.owner_name = owner_name
        self._posted: list[PostedRecv] = []
        self._unexpected: list[Envelope] = []
        self._watchers: list[tuple[int, int, int, "SimEvent"]] = []
        self._seq = 0

    # -- receiver side -------------------------------------------------------

    def match_or_post(self, source: int, tag: int, cid: int) -> tuple[Optional[Envelope], Optional[PostedRecv]]:
        """Try to match an already-arrived envelope; otherwise post a recv.

        Returns ``(envelope, None)`` on an immediate match or
        ``(None, posted)`` when the caller must wait on ``posted.event``.
        """
        for i, env in enumerate(self._unexpected):
            if env.matches(source, tag, cid):
                del self._unexpected[i]
                return env, None
        self._seq += 1
        posted = PostedRecv(
            source=source,
            tag=tag,
            cid=cid,
            event=self.kernel.event(name=f"{self.owner_name}.recv"),
            posted_seq=self._seq,
        )
        self._posted.append(posted)
        return None, posted

    def probe(self, source: int, tag: int, cid: int) -> Optional[Envelope]:
        """Nondestructive unexpected-queue lookup (MPI_Iprobe)."""
        for env in self._unexpected:
            if env.matches(source, tag, cid):
                return env
        return None

    def arrival_watch(self, source: int, tag: int, cid: int) -> "SimEvent":
        """An event triggered on the *next* matching arrival, without
        consuming it (the blocking-probe wait)."""
        event = self.kernel.event(name=f"{self.owner_name}.probe")
        self._watchers.append((source, tag, cid, event))
        return event

    # -- network side ----------------------------------------------------------

    def deliver(self, env: Envelope) -> Optional[PostedRecv]:
        """An envelope arrives: hand it to the oldest matching posted recv,
        or queue it as unexpected.  Returns the matched recv, if any.

        Envelopes flagged ``rma_sink`` are library-internal RMA payload
        carriers (LAM implements ``MPI_Win_fence`` flushes over
        ``MPI_Isend``): the progress engine absorbs them -- credit is
        returned, rendezvous tokens are auto-CTS'd, and no user receive ever
        sees them."""
        if env.rma_sink:
            if env.channel is not None:
                env.channel.release(env.credit)
            if env.cts_event is not None and not env.cts_event.triggered:
                env.cts_event.trigger(None)
            return None
        self._seq += 1
        env.arrival_seq = self._seq
        if self._watchers:
            still_waiting = []
            for source, tag, cid, event in self._watchers:
                if env.matches(source, tag, cid):
                    event.trigger(env)
                else:
                    still_waiting.append((source, tag, cid, event))
            self._watchers = still_waiting
        for i, posted in enumerate(self._posted):
            if env.matches(posted.source, posted.tag, posted.cid):
                del self._posted[i]
                posted.event.trigger(env)
                return posted
        self._unexpected.append(env)
        return None

    # -- introspection (used by tests and the MPIR-style debug interface) -------

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    @property
    def posted_count(self) -> int:
        return len(self._posted)

    def unexpected_bytes(self) -> int:
        return sum(env.nbytes for env in self._unexpected)

    def unexpected_envelopes(self) -> tuple[Envelope, ...]:
        return tuple(self._unexpected)
