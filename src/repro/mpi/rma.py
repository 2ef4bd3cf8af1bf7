"""One-sided communication (MPI-2 RMA): windows, epochs, data movement.

This module holds the implementation-independent mechanics -- window memory
(real numpy buffers), epoch legality checking, operation recording, and the
start/complete/post/wait pairing bookkeeping.  *Timing* and *blocking*
choices (which of ``MPI_Win_start``/``MPI_Win_complete`` blocks, whether
``MPI_Win_fence`` is built on ``MPI_Barrier``) belong to the MPI
implementation personalities in :mod:`repro.mpi.impls`, because those
differences are exactly what the paper's ``winscpwsync`` and ``Oned``
experiments observe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..sim.kernel import Kernel, SimEvent
from .comm import Communicator
from .datatypes import Datatype, Op
from .errors import RmaEpochError

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import Endpoint

__all__ = ["AccessEpoch", "RmaOpKind", "RmaOp", "Window", "PostEpochRecord"]


class AccessEpoch(enum.Enum):
    NONE = "none"
    FENCE = "fence"
    START = "start"  # generalized active target (start/complete)
    LOCK = "lock"  # passive target


class RmaOpKind(enum.Enum):
    PUT = "put"
    GET = "get"
    ACCUMULATE = "accumulate"


@dataclass
class RmaOp:
    """One recorded Put/Get/Accumulate, applied at epoch close (or flush)."""

    kind: RmaOpKind
    origin_world_rank: int
    target_rank: int  # rank within the window's communicator
    target_disp: int
    count: int
    datatype: Datatype
    payload: Optional[np.ndarray] = None  # for PUT / ACCUMULATE
    dest: Optional[np.ndarray] = None  # for GET: caller's buffer, filled on apply
    op: Optional[Op] = None  # for ACCUMULATE

    @property
    def nbytes(self) -> int:
        return self.datatype.extent(self.count)


@dataclass
class PostEpochRecord:
    """One exposure epoch opened by ``MPI_Win_post`` on a target rank."""

    target_rank: int
    origin_ranks: tuple[int, ...]  # comm ranks allowed to access
    posted_event: SimEvent
    all_complete_event: SimEvent
    completes_received: int = 0

    def record_complete(self) -> bool:
        self.completes_received += 1
        if self.completes_received > len(self.origin_ranks):
            raise RmaEpochError("more MPI_Win_complete notifications than origins")
        return self.completes_received == len(self.origin_ranks)


@dataclass
class _RankState:
    access: AccessEpoch = AccessEpoch.NONE
    exposure_posted: bool = False
    in_fence_epoch: bool = False
    start_group: tuple[int, ...] = ()
    lock_target: Optional[int] = None
    pending_ops: list[RmaOp] = field(default_factory=list)


class Window:
    """An RMA window over a communicator, with one buffer per rank.

    The window id is assigned by the MPI implementation and **may be reused**
    after ``MPI_Win_free`` -- this is why Paradyn gives windows the composite
    ``N-M`` identifier (Section 4.2.1); the simulation preserves the reuse
    behaviour so the tool-side uniquification is actually exercised.
    """

    def __init__(
        self,
        kernel: Kernel,
        win_id: int,
        comm: Communicator,
        buffers: dict[int, np.ndarray],
        *,
        disp_unit: int = 1,
        name: str = "",
        internal_comm: Optional[Communicator] = None,
    ) -> None:
        self.kernel = kernel
        self.win_id = win_id
        self.comm = comm
        self.buffers = buffers  # comm rank -> numpy array (element view)
        self.disp_unit = disp_unit
        self.name = name or f"win_{win_id}"
        self.user_named = False
        #: LAM allocates a hidden communicator per window and stores the
        #: window's name there (observed in Figure 23 of the paper).
        self.internal_comm = internal_comm
        self.freed = False
        #: callables (window, origin_ep, comm_rank, op) run for every
        #: recorded RMA operation (after legality checks pass).
        self.observers: list[Any] = []

        self._rank_state: dict[int, _RankState] = {
            rank: _RankState() for rank in range(comm.size)
        }
        # start/post pairing: per target rank, exposure epochs in post order;
        # per (origin, target), how many epochs the origin has consumed.
        self._post_epochs: dict[int, list[PostEpochRecord]] = {r: [] for r in range(comm.size)}
        self._consumed: dict[tuple[int, int], int] = {}
        # passive target: FIFO lock queue per target rank.  Holders map
        # origin rank -> lock type; EXCLUSIVE admits one holder, SHARED any
        # number of concurrent holders (MPI-2 Section 6.4 semantics).
        self._lock_holders: dict[int, dict[int, str]] = {r: {} for r in range(comm.size)}
        self._lock_waiters: dict[int, list[tuple[SimEvent, int, str]]] = {
            r: [] for r in range(comm.size)
        }

    # -- naming ------------------------------------------------------------------

    def set_name(self, name: str) -> None:
        self.name = name
        self.user_named = True
        if self.internal_comm is not None:
            self.internal_comm.set_name(name)

    def get_name(self) -> str:
        return self.name

    # -- epoch state -------------------------------------------------------------

    def state(self, rank: int) -> _RankState:
        try:
            return self._rank_state[rank]
        except KeyError:
            raise RmaEpochError(f"rank {rank} not in window {self.name}") from None

    def check_not_freed(self) -> None:
        if self.freed:
            raise RmaEpochError(f"window {self.name} already freed")

    def open_fence_epoch(self, rank: int) -> None:
        st = self.state(rank)
        st.in_fence_epoch = True
        st.access = AccessEpoch.FENCE

    def close_fence_epoch(self, rank: int) -> list[RmaOp]:
        st = self.state(rank)
        ops, st.pending_ops = st.pending_ops, []
        return ops

    def open_start_epoch(self, rank: int, group_ranks: tuple[int, ...]) -> None:
        st = self.state(rank)
        if st.access is AccessEpoch.START:
            raise RmaEpochError(f"rank {rank}: nested MPI_Win_start")
        st.access = AccessEpoch.START
        st.start_group = tuple(group_ranks)

    def close_start_epoch(self, rank: int) -> tuple[list[RmaOp], tuple[int, ...]]:
        st = self.state(rank)
        if st.access is not AccessEpoch.START:
            raise RmaEpochError(f"rank {rank}: MPI_Win_complete without MPI_Win_start")
        ops, st.pending_ops = st.pending_ops, []
        group, st.start_group = st.start_group, ()
        st.access = AccessEpoch.FENCE if st.in_fence_epoch else AccessEpoch.NONE
        return ops, group

    # -- start/post pairing ---------------------------------------------------------

    def post_exposure(self, target_rank: int, origin_ranks: tuple[int, ...]) -> PostEpochRecord:
        record = PostEpochRecord(
            target_rank=target_rank,
            origin_ranks=tuple(origin_ranks),
            posted_event=self.kernel.event(name=f"{self.name}.post[{target_rank}]"),
            all_complete_event=self.kernel.event(name=f"{self.name}.allcomplete[{target_rank}]"),
        )
        self._post_epochs[target_rank].append(record)
        record.posted_event.trigger(record)
        st = self.state(target_rank)
        st.exposure_posted = True
        return record

    def matching_exposure(self, origin_rank: int, target_rank: int) -> PostEpochRecord:
        """The next unconsumed exposure epoch on ``target_rank`` for this
        origin.  Creates a placeholder (un-posted) record when the origin
        gets there before the target posts -- the origin then waits on
        ``posted_event``."""
        key = (origin_rank, target_rank)
        index = self._consumed.get(key, 0)
        self._consumed[key] = index + 1
        epochs = self._post_epochs[target_rank]
        while len(epochs) <= index:
            epochs.append(
                PostEpochRecord(
                    target_rank=target_rank,
                    origin_ranks=(),
                    posted_event=self.kernel.event(name=f"{self.name}.post[{target_rank}]"),
                    all_complete_event=self.kernel.event(
                        name=f"{self.name}.allcomplete[{target_rank}]"
                    ),
                )
            )
        return epochs[index]

    def fill_placeholder_exposure(self, target_rank: int, origin_ranks: tuple[int, ...]) -> PostEpochRecord:
        """Called by Win_post when origins raced ahead: the oldest un-posted
        placeholder becomes this exposure epoch."""
        for record in self._post_epochs[target_rank]:
            if not record.posted_event.triggered:
                record.origin_ranks = tuple(origin_ranks)
                record.posted_event.trigger(record)
                st = self.state(target_rank)
                st.exposure_posted = True
                return record
        return self.post_exposure(target_rank, origin_ranks)

    # -- operation recording -----------------------------------------------------------

    def record_op(self, origin: "Endpoint", op: RmaOp) -> None:
        self.check_not_freed()
        rank = self.comm.rank_of(origin)
        st = self.state(rank)
        if st.access is AccessEpoch.NONE:
            raise RmaEpochError(
                f"{op.kind.value} on window {self.name} outside an access epoch "
                f"(rank {rank}; call MPI_Win_fence, MPI_Win_start or MPI_Win_lock first)"
            )
        if st.access is AccessEpoch.START and op.target_rank not in st.start_group:
            raise RmaEpochError(
                f"rank {rank}: target {op.target_rank} not in the MPI_Win_start group"
            )
        if st.access is AccessEpoch.LOCK and op.target_rank != st.lock_target:
            raise RmaEpochError(
                f"rank {rank}: target {op.target_rank} differs from locked rank {st.lock_target}"
            )
        if not 0 <= op.target_rank < self.comm.size:
            raise RmaEpochError(f"RMA target rank {op.target_rank} out of range")
        st.pending_ops.append(op)
        for observer in list(self.observers):
            observer(self, origin, rank, op)

    def lock_holders(self, target_rank: int) -> tuple[int, ...]:
        """Every comm rank currently holding ``target_rank``'s window lock."""
        return tuple(self._lock_holders.get(target_rank) or ())

    def apply_op(self, op: RmaOp) -> None:
        """Move the data.  Runs at epoch close / flush time."""
        buffer = self.buffers.get(op.target_rank)
        if buffer is None:
            raise RmaEpochError(f"rank {op.target_rank} exposes no memory in {self.name}")
        lo = op.target_disp
        hi = lo + op.count
        if hi > buffer.shape[0]:
            raise RmaEpochError(
                f"RMA access [{lo}:{hi}] beyond window extent {buffer.shape[0]} "
                f"on rank {op.target_rank}"
            )
        if op.kind is RmaOpKind.PUT:
            buffer[lo:hi] = op.payload
        elif op.kind is RmaOpKind.GET:
            assert op.dest is not None
            op.dest[: op.count] = buffer[lo:hi]
        elif op.kind is RmaOpKind.ACCUMULATE:
            assert op.op is not None
            buffer[lo:hi] = op.op.fn(buffer[lo:hi], op.payload)

    # -- passive target (lock queue) ------------------------------------------------------

    def acquire_lock(
        self, origin_rank: int, target_rank: int, lock_type: str = "exclusive"
    ) -> Optional[SimEvent]:
        """Try to take the target's window lock.  Returns None on success or
        an event to wait on when the lock cannot be granted yet.  Grants are
        FIFO: a shared request joins current shared holders only when no
        exclusive request is already queued ahead of it (no writer starvation)."""
        holders = self._lock_holders[target_rank]
        waiters = self._lock_waiters[target_rank]
        grantable = not holders or (
            lock_type == "shared"
            and not waiters
            and all(mode == "shared" for mode in holders.values())
        )
        if grantable:
            self._grant_lock(origin_rank, target_rank, lock_type)
            return None
        event = self.kernel.event(name=f"{self.name}.lock[{target_rank}]")
        waiters.append((event, origin_rank, lock_type))
        return event

    def _grant_lock(self, origin_rank: int, target_rank: int, lock_type: str) -> None:
        self._lock_holders[target_rank][origin_rank] = lock_type
        st = self.state(origin_rank)
        st.access = AccessEpoch.LOCK
        st.lock_target = target_rank

    def lock_granted(
        self, origin_rank: int, target_rank: int, lock_type: str = "exclusive"
    ) -> None:
        """Finish a queued acquisition after its wait event fired (the grant
        bookkeeping already ran inside :meth:`release_lock`)."""
        if origin_rank not in self._lock_holders[target_rank]:  # pragma: no cover
            self._grant_lock(origin_rank, target_rank, lock_type)

    def release_lock(self, origin_rank: int, target_rank: int) -> list[RmaOp]:
        holders = self._lock_holders[target_rank]
        if origin_rank not in holders:
            raise RmaEpochError(
                f"rank {origin_rank} unlocking window {self.name} it does not hold"
            )
        del holders[origin_rank]
        st = self.state(origin_rank)
        ops, st.pending_ops = st.pending_ops, []
        st.access = AccessEpoch.NONE
        st.lock_target = None
        waiters = self._lock_waiters[target_rank]
        if not holders and waiters:
            # FIFO head always enters; a shared head admits every
            # immediately following shared waiter alongside it.
            event, waiter, mode = waiters.pop(0)
            self._grant_lock(waiter, target_rank, mode)
            event.trigger(None)
            if mode == "shared":
                while waiters and waiters[0][2] == "shared":
                    event, waiter, mode = waiters.pop(0)
                    self._grant_lock(waiter, target_rank, mode)
                    event.trigger(None)
        return ops

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Window id={self.win_id} {self.name!r} over {self.comm.name}>"
