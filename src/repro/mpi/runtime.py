"""Per-rank MPI runtime state and the program-facing API.

An :class:`Endpoint` is one MPI rank: its simulated process, its mailbox,
and its per-rank protocol state.  :class:`MpiApi` is the handle simulated
*programs* use -- a thin pythonic veneer (mpi4py-flavoured names) whose every
method enters the MPI library through ``SimProcess.call`` with the **real C
argument layouts**, so instrumentation sees ``MPI_Put``'s window at
``$arg[7]`` exactly as the paper's MDL in Figure 2 expects.

Programs are generator functions ``main(mpi: MpiApi)`` and must ``yield
from`` every call::

    def main(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.send(dest=1, nbytes=4, tag=7)
        else:
            msg = yield from mpi.recv(source=0, tag=7)
        yield from mpi.finalize()
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

import numpy as np

from ..sim.process import SimProcess
from .comm import Communicator
from .datatypes import ANY_SOURCE as _ANY_SOURCE
from .datatypes import ANY_TAG as _ANY_TAG
from .datatypes import BYTE, Datatype, Op, SUM
from .message import Mailbox
from .rma import Window
from .status import Request, Status

if TYPE_CHECKING:  # pragma: no cover
    from .world import MpiWorld

__all__ = ["Endpoint", "MpiApi"]


class Endpoint:
    """One MPI rank's library-internal state."""

    def __init__(self, world: "MpiWorld", proc: SimProcess, world_rank: int) -> None:
        self.world = world
        self.proc = proc
        self.world_rank = world_rank
        self.mailbox = Mailbox(proc.kernel, owner_name=f"rank{world_rank}")
        self.api = MpiApi(self)
        self.parent_intercomm: Optional[Communicator] = None
        self.initialized = False
        self.finalized = False
        # generalized-active-target bookkeeping: window -> per-target records
        self.start_records: dict[int, dict[int, Any]] = {}
        self.post_record: dict[int, Any] = {}

    @property
    def kernel(self):
        return self.proc.kernel

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Endpoint world_rank={self.world_rank} pid={self.proc.pid}>"


class MpiApi:
    """The simulated program's view of MPI: each method returns what the
    caller drives with ``yield from`` (for MPI calls, the ``proc.call``
    generator itself), never a generator wrapping it."""

    def __init__(self, endpoint: Endpoint) -> None:
        self.ep = endpoint

    # -- identity ------------------------------------------------------------

    @property
    def proc(self) -> SimProcess:
        return self.ep.proc

    @property
    def comm_world(self) -> Communicator:
        return self.ep.world.comm_world

    @property
    def rank(self) -> int:
        return self.comm_world.rank_of(self.ep)

    @property
    def size(self) -> int:
        return self.comm_world.size

    @property
    def ANY_SOURCE(self) -> int:
        return _ANY_SOURCE

    @property
    def ANY_TAG(self) -> int:
        return _ANY_TAG

    # -- setup ---------------------------------------------------------------

    def init(self) -> Generator:
        return self.proc.call("MPI_Init", 0, self.proc.argv)

    def finalize(self) -> Generator:
        return self.proc.call("MPI_Finalize")

    # -- compute (not MPI, but every program needs it) --------------------------

    def compute(self, seconds: float):
        return self.proc.compute(seconds)

    def system_work(self, seconds: float):
        """Burn *system* CPU time (the ``system-time`` PPerfMark program)."""
        return self.proc.syscall(seconds)

    def call(self, name: str, *args: Any) -> Generator:
        """Call an application function registered in this process's image."""
        return self.proc.call(name, *args)

    # -- point to point -----------------------------------------------------------

    def send(
        self,
        dest: int,
        *,
        nbytes: int = 4,
        tag: int = 0,
        payload: Any = None,
        comm: Optional[Communicator] = None,
        datatype: Datatype = BYTE,
    ) -> Generator:
        comm = comm or self.comm_world
        count = nbytes // datatype.size
        return self.proc.call("MPI_Send", payload, count, datatype, dest, tag, comm)

    def recv(
        self,
        source: int = _ANY_SOURCE,
        *,
        tag: int = _ANY_TAG,
        comm: Optional[Communicator] = None,
        status: Optional[Status] = None,
        nbytes: int = 0,
        datatype: Datatype = BYTE,
    ) -> Generator:
        comm = comm or self.comm_world
        count = nbytes // datatype.size if nbytes else 0
        return self.proc.call(
            "MPI_Recv", None, count, datatype, source, tag, comm, status
        )

    def isend(
        self,
        dest: int,
        *,
        nbytes: int = 4,
        tag: int = 0,
        payload: Any = None,
        comm: Optional[Communicator] = None,
        datatype: Datatype = BYTE,
    ) -> Generator:
        comm = comm or self.comm_world
        count = nbytes // datatype.size
        return self.proc.call("MPI_Isend", payload, count, datatype, dest, tag, comm)

    def irecv(
        self,
        source: int = _ANY_SOURCE,
        *,
        tag: int = _ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Irecv", None, 0, BYTE, source, tag, comm)

    def wait(self, request: Request, status: Optional[Status] = None) -> Generator:
        return self.proc.call("MPI_Wait", request, status)

    def waitall(self, requests: Sequence[Request]) -> Generator:
        return self.proc.call("MPI_Waitall", len(requests), list(requests), None)

    def waitany(self, requests: Sequence[Request]) -> Generator:
        """Returns (index, value) of the first completed request."""
        return self.proc.call("MPI_Waitany", len(requests), list(requests))

    def test(self, request: Request, status: Optional[Status] = None) -> Generator:
        return self.proc.call("MPI_Test", request, status)

    def sendrecv(
        self,
        dest: int,
        source: int,
        *,
        send_nbytes: int = 4,
        recv_nbytes: int = 0,
        sendtag: int = 0,
        recvtag: int = _ANY_TAG,
        payload: Any = None,
        comm: Optional[Communicator] = None,
        status: Optional[Status] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call(
            "MPI_Sendrecv",
            payload,
            send_nbytes,
            BYTE,
            dest,
            sendtag,
            None,
            recv_nbytes,
            BYTE,
            source,
            recvtag,
            comm,
            status,
        )

    def ssend(
        self,
        dest: int,
        *,
        nbytes: int = 4,
        tag: int = 0,
        payload: Any = None,
        comm: Optional[Communicator] = None,
        datatype: Datatype = BYTE,
    ) -> Generator:
        """Synchronous-mode send (completes only once the receive matched)."""
        comm = comm or self.comm_world
        count = nbytes // datatype.size
        return self.proc.call("MPI_Ssend", payload, count, datatype, dest, tag, comm)

    def probe(
        self,
        source: int = _ANY_SOURCE,
        *,
        tag: int = _ANY_TAG,
        comm: Optional[Communicator] = None,
        status: Optional[Status] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Probe", source, tag, comm, status)

    def iprobe(
        self,
        source: int = _ANY_SOURCE,
        *,
        tag: int = _ANY_TAG,
        comm: Optional[Communicator] = None,
        status: Optional[Status] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Iprobe", source, tag, comm, status)

    def get_count(self, status: Status, datatype: Datatype = BYTE) -> Generator:
        return self.proc.call("MPI_Get_count", status, datatype)

    def wtime(self) -> Generator:
        return self.proc.call("MPI_Wtime")

    def abort(self, errorcode: int = 1, comm: Optional[Communicator] = None) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Abort", comm, errorcode)

    # -- collectives -------------------------------------------------------------

    def barrier(self, comm: Optional[Communicator] = None) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Barrier", comm)

    def bcast(
        self,
        value: Any = None,
        *,
        root: int = 0,
        nbytes: int = 4,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        count = nbytes
        return self.proc.call("MPI_Bcast", value, count, BYTE, root, comm)

    def reduce(
        self,
        value: Any,
        *,
        op: Op = SUM,
        root: int = 0,
        nbytes: int = 8,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Reduce", value, None, nbytes, BYTE, op, root, comm)

    def allreduce(
        self,
        value: Any,
        *,
        op: Op = SUM,
        nbytes: int = 8,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Allreduce", value, None, nbytes, BYTE, op, comm)

    def gather(
        self,
        value: Any,
        *,
        root: int = 0,
        nbytes: int = 8,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Gather", value, nbytes, BYTE, root, comm)

    def scatter(
        self,
        values: Any = None,
        *,
        root: int = 0,
        nbytes: int = 8,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Scatter", values, nbytes, BYTE, root, comm)

    def allgather(
        self,
        value: Any,
        *,
        nbytes: int = 8,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Allgather", value, nbytes, BYTE, comm)

    def alltoall(
        self,
        values: Sequence[Any],
        *,
        nbytes: int = 8,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Alltoall", list(values), nbytes, BYTE, comm)

    def comm_split(
        self,
        color: Any,
        key: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_Comm_split", comm, color, key)

    # -- RMA -----------------------------------------------------------------------

    def win_create(
        self,
        size: int,
        *,
        datatype: Datatype = BYTE,
        comm: Optional[Communicator] = None,
        fill: float = 0,
    ) -> Generator:
        """Create a window exposing ``size`` elements of ``datatype``."""
        comm = comm or self.comm_world
        base = np.full(size, fill, dtype=datatype.np_dtype or "u1")
        return self.proc.call(
            "MPI_Win_create", base, size * datatype.size, datatype.size, None, comm
        )

    def win_free(self, win: Window) -> Generator:
        return self.proc.call("MPI_Win_free", win)

    def win_fence(self, win: Window, assertion: int = 0) -> Generator:
        return self.proc.call("MPI_Win_fence", assertion, win)

    def win_start(self, win: Window, group_ranks: Sequence[int], assertion: int = 0) -> Generator:
        return self.proc.call("MPI_Win_start", tuple(group_ranks), assertion, win)

    def win_complete(self, win: Window) -> Generator:
        return self.proc.call("MPI_Win_complete", win)

    def win_post(self, win: Window, group_ranks: Sequence[int], assertion: int = 0) -> Generator:
        return self.proc.call("MPI_Win_post", tuple(group_ranks), assertion, win)

    def win_wait(self, win: Window) -> Generator:
        return self.proc.call("MPI_Win_wait", win)

    def win_lock(self, win: Window, rank: int, lock_type: str = "exclusive") -> Generator:
        return self.proc.call("MPI_Win_lock", lock_type, rank, 0, win)

    def win_unlock(self, win: Window, rank: int) -> Generator:
        return self.proc.call("MPI_Win_unlock", rank, win)

    def put(
        self,
        win: Window,
        target_rank: int,
        data: np.ndarray,
        *,
        target_disp: int = 0,
        datatype: Optional[Datatype] = None,
    ) -> Generator:
        data = np.asarray(data)
        dtype = datatype or _datatype_for(data)
        count = int(data.shape[0])
        return self.proc.call(
            "MPI_Put", data, count, dtype, target_rank, target_disp, count, dtype, win
        )

    def get(
        self,
        win: Window,
        target_rank: int,
        dest: np.ndarray,
        *,
        target_disp: int = 0,
        datatype: Optional[Datatype] = None,
    ) -> Generator:
        dest = np.asarray(dest)
        dtype = datatype or _datatype_for(dest)
        count = int(dest.shape[0])
        return self.proc.call(
            "MPI_Get", dest, count, dtype, target_rank, target_disp, count, dtype, win
        )

    def accumulate(
        self,
        win: Window,
        target_rank: int,
        data: np.ndarray,
        *,
        target_disp: int = 0,
        op: Op = SUM,
        datatype: Optional[Datatype] = None,
    ) -> Generator:
        data = np.asarray(data)
        dtype = datatype or _datatype_for(data)
        count = int(data.shape[0])
        return self.proc.call(
            "MPI_Accumulate",
            data,
            count,
            dtype,
            target_rank,
            target_disp,
            count,
            dtype,
            op,
            win,
        )

    # -- dynamic process creation -------------------------------------------------------

    def comm_spawn(
        self,
        command: str,
        argv: Sequence[str] = (),
        maxprocs: int = 1,
        *,
        info: Optional[dict] = None,
        root: int = 0,
        comm: Optional[Communicator] = None,
    ) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call(
            "MPI_Comm_spawn", command, list(argv), maxprocs, info or {}, root, comm
        )

    def comm_get_parent(self) -> Generator:
        return self.proc.call("MPI_Comm_get_parent")

    def intercomm_merge(self, intercomm: Communicator, high: bool = False) -> Generator:
        return self.proc.call("MPI_Intercomm_merge", intercomm, int(high))

    def comm_disconnect(self, comm: Communicator) -> Generator:
        """Collectively sever a connected (spawn) intercommunicator."""
        return self.proc.call("MPI_Comm_disconnect", comm)

    # -- naming ------------------------------------------------------------------------

    def comm_set_name(self, comm: Communicator, name: str) -> Generator:
        return self.proc.call("MPI_Comm_set_name", comm, name)

    def win_set_name(self, win: Window, name: str) -> Generator:
        return self.proc.call("MPI_Win_set_name", win, name)

    # -- MPI-IO --------------------------------------------------------------------------

    def file_open(self, filename: str, amode: str = "rw", comm: Optional[Communicator] = None) -> Generator:
        comm = comm or self.comm_world
        return self.proc.call("MPI_File_open", comm, filename, amode, None)

    def file_write_at(self, fh, offset: int, nbytes: int) -> Generator:
        return self.proc.call("MPI_File_write_at", fh, offset, None, nbytes, BYTE, None)

    def file_read_at(self, fh, offset: int, nbytes: int) -> Generator:
        return self.proc.call("MPI_File_read_at", fh, offset, None, nbytes, BYTE, None)

    def file_close(self, fh) -> Generator:
        return self.proc.call("MPI_File_close", fh)


def _datatype_for(array: np.ndarray) -> Datatype:
    from . import datatypes as dt

    mapping = {
        "u1": dt.BYTE,
        "i1": dt.CHAR,
        "i4": dt.INT,
        "i8": dt.LONG,
        "f4": dt.FLOAT,
        "f8": dt.DOUBLE,
    }
    key = array.dtype.str.lstrip("<>|=")
    try:
        return mapping[key]
    except KeyError:
        raise TypeError(f"no MPI datatype for numpy dtype {array.dtype}") from None
