"""Shared machinery for MPI implementation personalities.

:class:`BaseImpl` implements the full simulated MPI library -- point-to-point
engine with eager/rendezvous protocols and flow control, tree-based
collectives, RMA, dynamic process creation, naming, and minimal MPI-IO --
parameterised by the knobs that distinguish the paper's implementations:

========================  =======================  ==========================
knob                      LAM/MPI 7.0 (sysv)       MPICH ch_p4mpd / MPICH2
========================  =======================  ==========================
pmpi_weak_symbols         False (two strong sets)  True (MPI_* weak -> PMPI_*)
shared_memory_transport   True (same node == shm)  False (sockets everywhere)
socket_functions          ("writev", "readv")      ("write", "read")
visible_collective_p2p    False (internal RPI)     True (PMPI_Sendrecv etc.)
fence_uses_barrier        True  (+ Isend/Waitall)  False (internal sync)
win_start_blocks          True                     False (complete blocks)
supports spawn            True (also refmpi)       MPICH / MPICH2: False
========================  =======================  ==========================

Dynamic process creation is available on the LAM-family personalities
only: ``lam`` (round-robin placement, ``lam_spawn_file`` schema) and
``refmpi`` (packed fill-first placement, cheaper pre-forked spawn cost
model).  ``mpich`` (MPI-1) and ``mpich2`` (0.96p2 beta, no dynamic
process support yet) raise :class:`UnsupportedFeature` from every spawn
entry point.

Those knobs are exactly the implementation internals the paper's
Performance Consultant output exposes (Figures 3, 9, 21, 22, 24).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

import numpy as np

from ...sim.kernel import SimEvent, WaitEvent
from ...sim.process import SimProcess
from ..comm import Communicator
from ..datatypes import BYTE, Datatype, Op
from ..errors import MpiError, RmaEpochError, SpawnError, UnsupportedFeature
from ..message import Envelope, Mailbox, Protocol
from ..rma import RmaOp, RmaOpKind, Window
from ..runtime import Endpoint
from ..status import Request, Status

if TYPE_CHECKING:  # pragma: no cover
    from ...dyninst.image import Image
    from ..world import MpiUniverse, MpiWorld

__all__ = ["BaseImpl", "FlowChannel", "MpiFile", "COLL_TAG_BASE", "RMA_SINK_TAG"]

#: Tags above this value are reserved for library-internal traffic.
COLL_TAG_BASE = 1 << 24
#: Tags at/above this value mark RMA payload carriers absorbed by the
#: progress engine (no user receive matches them).
RMA_SINK_TAG = 1 << 28
#: Minimum bytes of flow-control credit one eager message consumes
#: (envelope/packet framing); small messages are credit-bound by count.
ENVELOPE_CREDIT = 64


class FlowChannel:
    """Bounded in-flight credit between one (sender, receiver) pair.

    Models socket/shm buffer backpressure: eager senders consume credit when
    they inject and get it back when the receiver's matching receive
    completes.  A full channel blocks the sender -- inside ``write`` for
    socket transports, which is how the paper's MPICH ``small-messages`` run
    ends up with ``ExcessiveIOBlockingTime`` true.
    """

    def __init__(self, kernel, capacity_bytes: int) -> None:
        self.kernel = kernel
        self.capacity = capacity_bytes
        self.in_flight = 0
        self._waiters: list[tuple[int, SimEvent]] = []

    def acquire(self, credit: int) -> Optional[SimEvent]:
        """Reserve credit.  Returns None when granted immediately, else an
        event granted FIFO as credit frees up (credit is pre-reserved by the
        releaser before the event fires)."""
        if not self._waiters and self.in_flight + credit <= self.capacity:
            self.in_flight += credit
            return None
        event = self.kernel.event(name="flow.credit")
        self._waiters.append((credit, event))
        return event

    def release(self, credit: int) -> None:
        self.in_flight -= credit
        while self._waiters and self.in_flight + self._waiters[0][0] <= self.capacity:
            amount, event = self._waiters.pop(0)
            self.in_flight += amount
            event.trigger(None)


class MpiFile:
    """A minimal MPI-IO file handle (shared or node-local filesystem)."""

    def __init__(self, filename: str, comm: Communicator) -> None:
        self.filename = filename
        self.comm = comm
        self.closed = False
        self.bytes_written = 0
        self.bytes_read = 0


class BaseImpl:
    """One MPI implementation personality, shared by every world in a universe."""

    # -- identity / capability knobs (overridden by subclasses) ------------------
    name = "base"
    version = "0.0"
    pmpi_weak_symbols = False
    shared_memory_transport = True
    socket_functions: Optional[tuple[str, str]] = None  # (write-like, read-like)
    visible_collective_p2p = False
    fence_uses_barrier = False
    win_start_blocks = True
    window_creates_internal_comm = False
    reuse_window_ids = True
    features: frozenset[str] = frozenset({"p2p", "collectives"})

    # -- cost model (seconds / bytes) ---------------------------------------------
    eager_threshold = 65536
    flow_capacity = 32768
    init_cost = 2e-3
    finalize_cost = 1e-3
    collective_entry_cost = 4e-6
    request_overhead = 1.5e-6
    rma_op_overhead = 6e-6
    rma_sync_overhead = 10e-6
    win_create_cost = 40e-6
    spawn_cost = 0.015
    child_startup_time = 0.04
    io_file_bandwidth = 30e6
    io_file_latency = 2e-4
    recv_copy_speedup = 4.0  # receive-side copy runs at bandwidth * this

    def __init__(self, universe: "MpiUniverse") -> None:
        self.universe = universe
        self._socket_link = universe.network.inter_node
        self._free_win_ids: list[int] = []
        self._next_win_id = 0
        self._shared_bodies: dict[str, Any] = {}
        self._image_template: Optional["Image"] = None

    # ------------------------------------------------------------------------
    # image construction
    # ------------------------------------------------------------------------

    def supports(self, feature: str) -> bool:
        return feature in self.features

    def _require(self, feature: str) -> None:
        if not self.supports(feature):
            raise UnsupportedFeature(f"{self.name} {self.version}", feature)

    def function_table(self) -> list[tuple[str, str, frozenset[str]]]:
        """(MPI name, body-method name, tags) for every library entry point."""
        t: list[tuple[str, str, frozenset[str]]] = []

        def add(name: str, method: str, *tags: str) -> None:
            t.append((name, method, frozenset(tags) | {"mpi"}))

        add("MPI_Init", "_body_init")
        add("MPI_Finalize", "_body_finalize", "sync")
        add("MPI_Send", "_body_send", "p2p", "msg", "sync")
        add("MPI_Recv", "_body_recv", "p2p", "msg", "sync")
        add("MPI_Isend", "_body_isend", "p2p", "msg")
        add("MPI_Irecv", "_body_irecv", "p2p", "msg")
        add("MPI_Wait", "_body_wait", "msg", "sync")
        add("MPI_Waitall", "_body_waitall", "msg", "sync")
        add("MPI_Waitany", "_body_waitany", "msg", "sync")
        add("MPI_Test", "_body_test", "msg")
        add("MPI_Sendrecv", "_body_sendrecv", "p2p", "msg", "sync")
        add("MPI_Ssend", "_body_ssend", "p2p", "msg", "sync")
        add("MPI_Probe", "_body_probe", "p2p", "sync")
        add("MPI_Iprobe", "_body_iprobe", "p2p")
        add("MPI_Get_count", "_body_get_count")
        add("MPI_Wtime", "_body_wtime")
        add("MPI_Abort", "_body_abort")
        add("MPI_Barrier", "_body_barrier", "collective", "barrier", "sync")
        add("MPI_Gather", "_body_gather", "collective", "msg", "sync")
        add("MPI_Scatter", "_body_scatter", "collective", "msg", "sync")
        add("MPI_Allgather", "_body_allgather", "collective", "msg", "sync")
        add("MPI_Comm_split", "_body_comm_split", "collective", "sync")
        add("MPI_Bcast", "_body_bcast", "collective", "msg", "sync")
        add("MPI_Reduce", "_body_reduce", "collective", "msg", "sync")
        add("MPI_Allreduce", "_body_allreduce", "collective", "msg", "sync")
        add("MPI_Alltoall", "_body_alltoall", "collective", "msg", "sync")
        add("MPI_Comm_rank", "_body_comm_rank")
        add("MPI_Comm_size", "_body_comm_size")
        add("MPI_Comm_dup", "_body_comm_dup", "collective")
        add("MPI_Comm_set_name", "_body_comm_set_name", "naming")
        add("MPI_Comm_get_name", "_body_comm_get_name", "naming")
        add("MPI_Type_size", "_body_type_size")
        if self.supports("rma"):
            add("MPI_Win_create", "_body_win_create", "rma", "rma_sync", "sync")
            add("MPI_Win_free", "_body_win_free", "rma", "rma_sync", "sync")
            add("MPI_Win_fence", "_body_win_fence", "rma", "rma_sync", "rma_at", "sync")
            add("MPI_Win_start", "_body_win_start", "rma", "rma_sync", "rma_at", "sync")
            add("MPI_Win_complete", "_body_win_complete", "rma", "rma_sync", "rma_at", "sync")
            add("MPI_Win_post", "_body_win_post", "rma", "rma_sync", "rma_at", "sync")
            add("MPI_Win_wait", "_body_win_wait", "rma", "rma_sync", "rma_at", "sync")
            add("MPI_Win_lock", "_body_win_lock", "rma", "rma_sync", "rma_pt", "sync")
            add("MPI_Win_unlock", "_body_win_unlock", "rma", "rma_sync", "rma_pt", "sync")
            add("MPI_Put", "_body_put", "rma", "rma_data")
            add("MPI_Get", "_body_get", "rma", "rma_data")
            add("MPI_Accumulate", "_body_accumulate", "rma", "rma_data")
            add("MPI_Win_set_name", "_body_win_set_name", "naming")
            add("MPI_Win_get_name", "_body_win_get_name", "naming")
        if self.supports("spawn") or self.supports("rma"):
            # MPI-2-era libraries export the dynamic-process symbols even
            # when the feature is incomplete (MPICH2 0.96p2): the call then
            # fails with UnsupportedFeature rather than an unresolved symbol.
            add("MPI_Comm_spawn", "_body_comm_spawn", "spawn", "collective", "sync")
            add("MPI_Comm_get_parent", "_body_comm_get_parent")
            add("MPI_Intercomm_merge", "_body_intercomm_merge", "collective", "sync")
            add("MPI_Comm_disconnect", "_body_comm_disconnect", "spawn", "collective", "sync")
        if self.supports("mpio"):
            add("MPI_File_open", "_body_file_open", "mpiio", "io")
            add("MPI_File_close", "_body_file_close", "mpiio", "io")
            add("MPI_File_write_at", "_body_file_write_at", "mpiio", "io")
            add("MPI_File_read_at", "_body_file_read_at", "mpiio", "io")
        return t

    def build_image(self, endpoint: Endpoint, image: "Image") -> None:
        """Register the MPI library and libc in a process's image.

        Every rank of a personality gets the same library, so it is built
        once as a template and cloned per process (bodies resolve the
        calling endpoint from the process at call time -- see
        :meth:`_shared_body`); binding each entry point to each endpoint
        individually made launch itself the scaling wall at thousands of
        ranks.
        """
        template = self._image_template
        if template is None:
            template = self._build_template()
            self._image_template = template
        image.clone_library(template)

    def _build_template(self) -> "Image":
        from ...dyninst.image import Image

        template = Image(name=f"lib{self.name}-template")
        for name, method, tags in self.function_table():
            body = self._shared_body(method)
            pname = "P" + name
            if self.pmpi_weak_symbols:
                # Default MPICH build: strong PMPI_*, weak MPI_* aliases.
                template.add_function(pname, body, module="libmpich.so", system=True, tags=tags)
                template.add_weak_alias(name, pname)
            else:
                # LAM-style: two full strong copies of the entry points.
                template.add_function(name, body, module="liblammpi.so", system=True, tags=tags)
                template.add_function(
                    pname, body, module="liblammpi.so", system=True, tags=tags | {"pmpi"}
                )
        if self.socket_functions is not None:
            wname, rname = self.socket_functions
            template.add_function(
                wname, self._shared_body("_body_sock_write"),
                module="libc.so", system=True, tags=frozenset({"io", "syscall"}),
            )
            template.add_function(
                rname, self._shared_body("_body_sock_read"),
                module="libc.so", system=True, tags=frozenset({"io", "syscall"}),
            )
        return template

    def _shared_body(self, method: str):
        """One body per personality method, shared by every rank's image:
        the calling endpoint is recovered from the executing process, and
        the method's own generator is returned for the call to drive."""
        body = self._shared_bodies.get(method)
        if body is not None:
            return body
        bound = getattr(self, method)
        endpoints = self.universe._ep_of_proc

        def body(proc: SimProcess, *args: Any) -> Generator:
            return bound(endpoints[id(proc)], proc, *args)

        body.__name__ = method
        self._shared_bodies[method] = body
        return body

    # ------------------------------------------------------------------------
    # links, flow control, cost charging
    # ------------------------------------------------------------------------

    def link_for(self, src: Endpoint, dst: Endpoint):
        return self.universe.network.link(
            src.proc.node, dst.proc.node, allow_shared_memory=self.shared_memory_transport
        )

    def _channel(self, src: Endpoint, dst: Endpoint) -> FlowChannel:
        key = (id(src), id(dst))
        chan = self.universe.flow_channels.get(key)
        if chan is None:
            chan = FlowChannel(self.universe.kernel, self.flow_capacity)
            self.universe.flow_channels[key] = chan
        return chan

    def _uses_socket(self, link) -> bool:
        return self.socket_functions is not None and link.syscall_fraction > 0.5

    def _charge_send(
        self,
        proc: SimProcess,
        link,
        nbytes: int,
        channel_wait: Optional[SimEvent],
        *,
        bulk: bool = False,
    ) -> Generator:
        """Sender-side cost: protocol overhead + injection (+ credit wait).

        Socket transports route the syscall share (and any credit stall)
        through the visible ``write``/``writev`` function so I/O metrics see
        it; shared-memory transports charge plain user CPU and block
        directly (visible only as time in the MPI call itself).

        ``bulk`` marks a rendezvous data push: its wire-serialization time
        is spent *blocked* (waiting in select for socket buffers to drain),
        not in ``write`` itself, so it counts as synchronization rather
        than I/O -- which is why the paper's big-message run reports only
        ``ExcessiveSyncWaitingTime`` for both implementations.
        """
        inject = nbytes / link.bandwidth
        if self._uses_socket(link):
            wname = self.socket_functions[0]
            sys_share = link.send_overhead * link.syscall_fraction
            if not bulk:
                sys_share += inject
            yield from proc.call(wname, 0, (channel_wait, sys_share), nbytes)
            yield from proc.compute(link.send_overhead * (1.0 - link.syscall_fraction))
            if bulk and inject:
                yield from proc.sleep(inject)
        else:
            if channel_wait is not None:
                yield from proc.block(channel_wait)
            yield from proc.compute(link.send_overhead)
            if inject:
                if bulk:
                    yield from proc.sleep(inject)
                else:
                    yield from proc.compute(inject)

    def _charge_recv(self, proc: SimProcess, link, nbytes: int) -> Generator:
        """Receiver-side cost: protocol overhead + copy-out."""
        copy = nbytes / (link.bandwidth * self.recv_copy_speedup)
        if self._uses_socket(link):
            rname = self.socket_functions[1]
            sys_share = link.recv_overhead * link.syscall_fraction + copy
            yield from proc.call(rname, 0, (None, sys_share), nbytes)
            yield from proc.compute(link.recv_overhead * (1.0 - link.syscall_fraction))
        else:
            yield from proc.compute(link.recv_overhead + copy)

    def _recv_wait(self, proc: SimProcess, event: SimEvent) -> Generator:
        """Block until ``event``.

        Blocking happens in the library's progress loop (select/poll), not
        in ``read`` itself, so waiting time is *synchronization*, never I/O;
        the actual copy-out syscall cost is charged by :meth:`_charge_recv`.
        """
        return (yield from proc.block(event))

    # libc bodies: args are (fd, (wait_event_or_None, syscall_seconds), count)
    def _body_sock_write(self, ep: Endpoint, proc: SimProcess, fd, token, count) -> Generator:
        wait_event, sys_seconds = token if token is not None else (None, 0.0)
        if wait_event is not None:
            yield from proc.block(wait_event)
        if sys_seconds:
            yield from proc.syscall(sys_seconds)

    def _body_sock_read(self, ep: Endpoint, proc: SimProcess, fd, token, count) -> Generator:
        wait_event, sys_seconds = token if token is not None else (None, 0.0)
        value = None
        if wait_event is not None:
            value = yield from proc.block(wait_event)
        if sys_seconds:
            yield from proc.syscall(sys_seconds)
        return value

    # ------------------------------------------------------------------------
    # point-to-point engine
    # ------------------------------------------------------------------------

    def _payload_credit(self, nbytes: int) -> int:
        return max(nbytes, ENVELOPE_CREDIT)

    def _send_inline(
        self,
        ep: Endpoint,
        proc: SimProcess,
        payload: Any,
        nbytes: int,
        dest: int,
        tag: int,
        comm: Communicator,
        datatype: Any = None,
    ) -> Generator:
        """Blocking send (the body of MPI_Send; also used internally)."""
        target = comm.peer_for(ep, dest)
        link = self.link_for(ep, target)
        src_rank = comm.rank_of(ep)
        kernel = self.universe.kernel
        if nbytes <= self.eager_threshold:
            credit = self._payload_credit(nbytes)
            channel = self._channel(ep, target)
            env = Envelope(
                protocol=Protocol.EAGER,
                src_rank=src_rank,
                tag=tag,
                cid=comm.cid,
                nbytes=nbytes,
                payload=payload,
                datatype=datatype,
            )
            env.credit = credit  # type: ignore[attr-defined]
            env.channel = channel  # type: ignore[attr-defined]
            env.link = link  # type: ignore[attr-defined]
            wait = channel.acquire(credit)
            yield from self._charge_send(proc, link, nbytes, wait)
            kernel.schedule(link.latency, lambda: target.mailbox.deliver(env))
        else:
            # Rendezvous: RTS -> (receiver matches) -> CTS -> data.
            env = Envelope(
                protocol=Protocol.RENDEZVOUS,
                src_rank=src_rank,
                tag=tag,
                cid=comm.cid,
                nbytes=nbytes,
                payload=payload,
                datatype=datatype,
                cts_event=kernel.event(name="rdv.cts"),
                data_event=kernel.event(name="rdv.data"),
            )
            env.credit = 0  # type: ignore[attr-defined]
            env.channel = None  # type: ignore[attr-defined]
            env.link = link  # type: ignore[attr-defined]
            yield from self._charge_send(proc, link, 0, None)  # protocol processing
            kernel.schedule(link.latency, lambda: target.mailbox.deliver(env))
            yield from self._recv_wait(proc, env.cts_event)  # blocked until recv posted
            yield from self._charge_send(proc, link, nbytes, None, bulk=True)  # the data push
            kernel.schedule(link.latency, lambda e=env: e.data_event.trigger(e))

    def _recv_inline(
        self,
        ep: Endpoint,
        proc: SimProcess,
        source: int,
        tag: int,
        comm: Communicator,
        status: Optional[Status],
        *,
        count: int = 0,
        datatype: Any = None,
    ) -> Generator:
        """Blocking receive (the body of MPI_Recv)."""
        env, posted = ep.mailbox.match_or_post(source, tag, comm.cid)
        if env is None:
            env = yield from self._recv_wait(proc, posted.event)
        self.universe.emit("recv_matched", ep=ep, env=env, count=count, datatype=datatype)
        link = getattr(env, "link", self.universe.network.inter_node)
        if env.protocol is Protocol.RENDEZVOUS:
            kernel = self.universe.kernel
            kernel.schedule(link.latency, lambda e=env: e.cts_event.trigger(None))
            yield from self._recv_wait(proc, env.data_event)
        yield from self._charge_recv(proc, link, env.nbytes)
        channel = getattr(env, "channel", None)
        if channel is not None:
            channel.release(getattr(env, "credit", 0))
        if status is not None:
            status.set(source=env.src_rank, tag=env.tag, count_bytes=env.nbytes)
        return env.payload

    def _isend_internal(
        self,
        ep: Endpoint,
        proc: SimProcess,
        payload: Any,
        nbytes: int,
        dest: int,
        tag: int,
        comm: Communicator,
        *,
        rma_sink: bool = False,
    ) -> Generator:
        """Start a nonblocking send; returns a Request.  Protocol progress
        runs in a background helper task (the library's progress engine)."""
        target = comm.peer_for(ep, dest)
        link = self.link_for(ep, target)
        src_rank = comm.rank_of(ep)
        kernel = self.universe.kernel
        request = Request(kernel, "isend")
        yield from proc.compute(self.request_overhead)
        protocol = Protocol.EAGER if nbytes <= self.eager_threshold else Protocol.RENDEZVOUS
        env = Envelope(
            protocol=protocol,
            src_rank=src_rank,
            tag=tag,
            cid=comm.cid,
            nbytes=nbytes,
            payload=payload,
            cts_event=kernel.event(name="rdv.cts") if protocol is Protocol.RENDEZVOUS else None,
            data_event=kernel.event(name="rdv.data") if protocol is Protocol.RENDEZVOUS else None,
        )
        env.link = link  # type: ignore[attr-defined]
        env.rma_sink = rma_sink  # type: ignore[attr-defined]
        if protocol is Protocol.EAGER:
            credit = self._payload_credit(nbytes)
            channel = self._channel(ep, target)
            env.credit = credit  # type: ignore[attr-defined]
            env.channel = channel  # type: ignore[attr-defined]
        else:
            env.credit = 0  # type: ignore[attr-defined]
            env.channel = None  # type: ignore[attr-defined]

        def progress() -> Generator:
            if protocol is Protocol.EAGER:
                wait = env.channel.acquire(env.credit)  # type: ignore[attr-defined]
                if wait is not None:
                    yield WaitEvent(wait)
                inject = nbytes / link.bandwidth
                if inject:
                    yield from _task_sleep(inject)
                kernel.schedule(link.latency, lambda: target.mailbox.deliver(env))
                request.complete()
            else:
                kernel.schedule(link.latency, lambda: target.mailbox.deliver(env))
                yield WaitEvent(env.cts_event)
                inject = nbytes / link.bandwidth
                if inject:
                    yield from _task_sleep(inject)
                kernel.schedule(link.latency, lambda e=env: e.data_event.trigger(e))
                request.complete()

        kernel.spawn(progress(), name=f"isend[{ep.world_rank}->{dest}]")
        return request

    def _irecv_internal(
        self,
        ep: Endpoint,
        proc: SimProcess,
        source: int,
        tag: int,
        comm: Communicator,
    ) -> Generator:
        kernel = self.universe.kernel
        request = Request(kernel, "irecv")
        yield from proc.compute(self.request_overhead)
        env, posted = ep.mailbox.match_or_post(source, tag, comm.cid)

        def finish(envelope: Envelope) -> Generator:
            link = getattr(envelope, "link", self.universe.network.inter_node)
            if envelope.protocol is Protocol.RENDEZVOUS:
                kernel.schedule(link.latency, lambda e=envelope: e.cts_event.trigger(None))
                yield WaitEvent(envelope.data_event)
            channel = getattr(envelope, "channel", None)
            if channel is not None:
                channel.release(getattr(envelope, "credit", 0))
            request.status.set(
                source=envelope.src_rank, tag=envelope.tag, count_bytes=envelope.nbytes
            )
            request.complete(envelope.payload)

        def progress() -> Generator:
            envelope = env
            if envelope is None:
                envelope = yield WaitEvent(posted.event)
            yield from finish(envelope)

        kernel.spawn(progress(), name=f"irecv[{ep.world_rank}]")
        return request

    # -- MPI p2p bodies (real C argument layouts) ---------------------------------

    def _body_send(self, ep, proc, buf, count, dtype, dest, tag, comm) -> Generator:
        nbytes = dtype.extent(count) if count else 0
        yield from self._send_inline(ep, proc, buf, nbytes, dest, tag, comm, datatype=dtype)

    def _body_recv(self, ep, proc, buf, count, dtype, source, tag, comm, status=None) -> Generator:
        return (
            yield from self._recv_inline(
                ep, proc, source, tag, comm, status, count=count, datatype=dtype
            )
        )

    def _body_isend(self, ep, proc, buf, count, dtype, dest, tag, comm) -> Generator:
        nbytes = dtype.extent(count) if count else 0
        return (
            yield from self._isend_internal(
                ep, proc, buf, nbytes, dest, tag, comm, rma_sink=tag >= RMA_SINK_TAG
            )
        )

    def _body_irecv(self, ep, proc, buf, count, dtype, source, tag, comm) -> Generator:
        return (yield from self._irecv_internal(ep, proc, source, tag, comm))

    def _body_wait(self, ep, proc, request, status=None) -> Generator:
        yield from proc.compute(self.request_overhead)
        if not request.completed:
            yield from proc.block(request.done)
        if status is not None and request.kind == "irecv":
            status.set(
                source=request.status.source,
                tag=request.status.tag,
                count_bytes=request.status.count_bytes,
            )
        return request.value

    def _body_waitall(self, ep, proc, count, requests, statuses=None) -> Generator:
        results = []
        for request in requests:
            yield from proc.compute(self.request_overhead)
            if not request.completed:
                yield from proc.block(request.done)
            results.append(request.value)
        return results

    def _body_ssend(self, ep, proc, buf, count, dtype, dest, tag, comm) -> Generator:
        """Synchronous send: never completes before the matching receive is
        posted (forced rendezvous regardless of size)."""
        nbytes = dtype.extent(count) if count else 0
        target = comm.peer_for(ep, dest)
        link = self.link_for(ep, target)
        kernel = self.universe.kernel
        env = Envelope(
            protocol=Protocol.RENDEZVOUS,
            src_rank=comm.rank_of(ep),
            tag=tag,
            cid=comm.cid,
            nbytes=nbytes,
            payload=buf,
            datatype=dtype,
            cts_event=kernel.event(name="ssend.cts"),
            data_event=kernel.event(name="ssend.data"),
        )
        env.credit = 0  # type: ignore[attr-defined]
        env.channel = None  # type: ignore[attr-defined]
        env.link = link  # type: ignore[attr-defined]
        yield from self._charge_send(proc, link, 0, None)
        kernel.schedule(link.latency, lambda: target.mailbox.deliver(env))
        yield from self._recv_wait(proc, env.cts_event)
        yield from self._charge_send(proc, link, nbytes, None, bulk=nbytes > self.eager_threshold)
        kernel.schedule(link.latency, lambda e=env: e.data_event.trigger(e))

    def _body_probe(self, ep, proc, source, tag, comm, status=None) -> Generator:
        """Blocking probe: wait until a matching message is available, but
        leave it in the queue.  Event-driven rather than a spin loop, so a
        probe that can never match still deadlocks detectably."""
        yield from proc.compute(self.request_overhead)
        while True:
            env = ep.mailbox.probe(source, tag, comm.cid)
            if env is not None:
                if status is not None:
                    status.set(source=env.src_rank, tag=env.tag, count_bytes=env.nbytes)
                return True
            watch = ep.mailbox.arrival_watch(source, tag, comm.cid)
            yield from proc.block(watch)

    def _body_iprobe(self, ep, proc, source, tag, comm, status=None) -> Generator:
        yield from proc.compute(self.request_overhead)
        env = ep.mailbox.probe(source, tag, comm.cid)
        if env is not None and status is not None:
            status.set(source=env.src_rank, tag=env.tag, count_bytes=env.nbytes)
        return env is not None

    def _body_get_count(self, ep, proc, status, dtype) -> Generator:
        return status.count_bytes // dtype.size
        yield  # pragma: no cover

    def _body_wtime(self, ep, proc) -> Generator:
        return self.universe.kernel.now
        yield  # pragma: no cover

    def _body_abort(self, ep, proc, comm, errorcode) -> Generator:
        raise MpiError(f"MPI_Abort called with error code {errorcode} "
                       f"by world rank {ep.world_rank}")
        yield  # pragma: no cover

    def _body_waitany(self, ep, proc, count, requests) -> Generator:
        """Block until any request completes; returns (index, value)."""
        yield from proc.compute(self.request_overhead)
        while True:
            for index, request in enumerate(requests):
                if request.completed:
                    return index, request.value
            # wait for the earliest completion among pending requests
            kernel = self.universe.kernel
            any_done = kernel.event(name="waitany")
            remaining = [r for r in requests if not r.completed]
            fired = [False]

            def relay(value, _e=any_done, _f=fired):
                if not _f[0]:
                    _f[0] = True
                    _e.trigger(value)

            for request in remaining:
                request.done.add_waiter(_RelayTask(relay))
            yield from proc.block(any_done)

    def _body_test(self, ep, proc, request, status=None) -> Generator:
        yield from proc.compute(self.request_overhead)
        if request.completed and status is not None and request.kind == "irecv":
            status.set(
                source=request.status.source,
                tag=request.status.tag,
                count_bytes=request.status.count_bytes,
            )
        return request.completed

    def _body_sendrecv(
        self, ep, proc,
        sendbuf, sendcount, sendtype, dest, sendtag,
        recvbuf, recvcount, recvtype, source, recvtag,
        comm, status=None,
    ) -> Generator:
        nbytes = sendtype.extent(sendcount) if sendcount else 0
        request = yield from self._isend_internal(ep, proc, sendbuf, nbytes, dest, sendtag, comm)
        payload = yield from self._recv_inline(ep, proc, source, recvtag, comm, status)
        if not request.completed:
            yield from proc.block(request.done)
        return payload

    # ------------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------------

    #: fixed library-internal tags (like MPICH's MPIR_BARRIER_TAG etc.);
    #: safe with per-pair FIFO matching because every collective instance
    #: exchanges the same per-pair message counts in the same order.
    BARRIER_TAG = COLL_TAG_BASE + 1
    BCAST_TAG = COLL_TAG_BASE + 2
    REDUCE_TAG = COLL_TAG_BASE + 3

    def _coll_send(self, ep, proc, payload, nbytes, dest, tag, comm) -> Generator:
        if self.visible_collective_p2p:
            yield from proc.call("MPI_Send", payload, nbytes, BYTE, dest, tag, comm)
        else:
            yield from self._send_inline(ep, proc, payload, nbytes, dest, tag, comm)

    def _coll_recv(self, ep, proc, source, tag, comm) -> Generator:
        if self.visible_collective_p2p:
            return (yield from proc.call("MPI_Recv", None, 0, BYTE, source, tag, comm, None))
        return (yield from self._recv_inline(ep, proc, source, tag, comm, None))

    def _body_barrier(self, ep, proc, comm) -> Generator:
        yield from proc.compute(self.collective_entry_cost)
        n = comm.size
        if n <= 1:
            return
        if self.visible_collective_p2p:
            # Dissemination barrier over (P)MPI_Sendrecv -- the structure the
            # paper's PC exposes for MPICH (Figure 9).
            rank = comm.rank_of(ep)
            tag = self.BARRIER_TAG
            mask = 1
            while mask < n:
                dst = (rank + mask) % n
                src = (rank - mask) % n
                yield from proc.call(
                    "MPI_Sendrecv",
                    None, 0, BYTE, dst, tag,
                    None, 0, BYTE, src, tag,
                    comm, None,
                )
                mask <<= 1
        else:
            ctxt = comm.collective_context(ep, "barrier")
            if ctxt.arrive(ep):
                ctxt.complete()
            else:
                yield from proc.block(ctxt.event)
            yield from proc.compute(self.collective_entry_cost)

    def _body_bcast(self, ep, proc, buf, count, dtype, root, comm) -> Generator:
        yield from proc.compute(self.collective_entry_cost)
        n = comm.size
        nbytes = dtype.extent(count) if count else 0
        if n <= 1:
            return buf
        rank = comm.rank_of(ep)
        rr = (rank - root) % n
        tag = self.BCAST_TAG
        value = buf
        mask = 1
        while mask < n:
            if rr & mask:
                src = (rank - mask) % n
                value = yield from self._coll_recv(ep, proc, src, tag, comm)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if rr + mask < n:
                dst = (rank + mask) % n
                yield from self._coll_send(ep, proc, value, nbytes, dst, tag, comm)
            mask >>= 1
        return value

    def _body_reduce(self, ep, proc, sendbuf, recvbuf, count, dtype, op, root, comm) -> Generator:
        yield from proc.compute(self.collective_entry_cost)
        n = comm.size
        nbytes = dtype.extent(count) if count else 0
        if n <= 1:
            return sendbuf
        rank = comm.rank_of(ep)
        rr = (rank - root) % n
        tag = self.REDUCE_TAG
        value = sendbuf
        mask = 1
        while mask < n:
            if rr & mask:
                dst = (rr - mask + root) % n
                yield from self._coll_send(ep, proc, value, nbytes, dst, tag, comm)
                return None
            src_rr = rr + mask
            if src_rr < n:
                src = (src_rr + root) % n
                other = yield from self._coll_recv(ep, proc, src, tag, comm)
                value = op.fn(value, other)
            mask <<= 1
        return value if rank == root else None

    def _body_allreduce(self, ep, proc, sendbuf, recvbuf, count, dtype, op, comm) -> Generator:
        partial = yield from self._body_reduce(ep, proc, sendbuf, recvbuf, count, dtype, op, 0, comm)
        result = yield from self._body_bcast(ep, proc, partial, count, dtype, 0, comm)
        return result

    GATHER_TAG = COLL_TAG_BASE + 4
    SCATTER_TAG = COLL_TAG_BASE + 5
    ALLTOALL_TAG = COLL_TAG_BASE + 6

    def _body_alltoall(self, ep, proc, sendbuf, count, dtype, comm) -> Generator:
        """Linear all-to-all: rank r's element k goes to rank k; returns the
        rank-ordered list of received elements."""
        yield from proc.compute(self.collective_entry_cost)
        n = comm.size
        rank = comm.rank_of(ep)
        if sendbuf is None or len(sendbuf) < n:
            raise MpiError("MPI_Alltoall buffer smaller than communicator")
        nbytes = dtype.extent(count) if count else 0
        received: dict[int, Any] = {rank: sendbuf[rank]}
        requests = []
        for dest in range(n):
            if dest != rank:
                request = yield from self._isend_internal(
                    ep, proc, (rank, sendbuf[dest]), nbytes, dest, self.ALLTOALL_TAG, comm
                )
                requests.append(request)
        for _ in range(n - 1):
            pair = yield from self._recv_inline(ep, proc, -1, self.ALLTOALL_TAG, comm, None)
            received[pair[0]] = pair[1]
        for request in requests:
            if not request.completed:
                yield from proc.block(request.done)
        return [received[r] for r in range(n)]

    def _body_gather(self, ep, proc, sendbuf, count, dtype, root, comm) -> Generator:
        """Linear gather (LAM/MPICH both used linear gathers at this era):
        returns the rank-ordered list at the root, None elsewhere."""
        yield from proc.compute(self.collective_entry_cost)
        nbytes = dtype.extent(count) if count else 0
        rank = comm.rank_of(ep)
        if rank != root:
            yield from self._coll_send(ep, proc, (rank, sendbuf), nbytes, root, self.GATHER_TAG, comm)
            return None
        values: dict[int, Any] = {root: sendbuf}
        for _ in range(comm.size - 1):
            pair = yield from self._coll_recv(ep, proc, -1, self.GATHER_TAG, comm)
            values[pair[0]] = pair[1]
        return [values[r] for r in range(comm.size)]

    def _body_scatter(self, ep, proc, sendbuf, count, dtype, root, comm) -> Generator:
        """Linear scatter: the root sends element r of ``sendbuf`` to rank r."""
        yield from proc.compute(self.collective_entry_cost)
        nbytes = dtype.extent(count) if count else 0
        rank = comm.rank_of(ep)
        if rank == root:
            if sendbuf is None or len(sendbuf) < comm.size:
                raise MpiError("MPI_Scatter root buffer smaller than communicator")
            for dest in range(comm.size):
                if dest != root:
                    yield from self._coll_send(
                        ep, proc, sendbuf[dest], nbytes, dest, self.SCATTER_TAG, comm
                    )
            return sendbuf[root]
        return (yield from self._coll_recv(ep, proc, root, self.SCATTER_TAG, comm))

    def _body_allgather(self, ep, proc, sendbuf, count, dtype, comm) -> Generator:
        gathered = yield from self._body_gather(ep, proc, sendbuf, count, dtype, 0, comm)
        result = yield from self._body_bcast(ep, proc, gathered, count * comm.size, dtype, 0, comm)
        return result

    def _body_comm_split(self, ep, proc, comm, color, key) -> Generator:
        """Collective split into per-color communicators, ordered by (key,
        original rank); color None (MPI_UNDEFINED) yields None."""
        yield from proc.compute(self.collective_entry_cost)
        rank = comm.rank_of(ep)
        ctxt = comm.collective_context(ep, "comm_split")
        if ctxt.arrive(ep, (color, key, rank, ep)):
            groups: dict[Any, list] = {}
            for c, k, r, endpoint in ctxt.values():
                if c is not None:
                    groups.setdefault(c, []).append((k, r, endpoint))
            comms = {}
            for c, members in sorted(groups.items(), key=lambda kv: str(kv[0])):
                members.sort(key=lambda t: (t[0], t[1]))
                comms[c] = self.universe.new_communicator(
                    [m[2] for m in members], name=f"{comm.name}_split{c}"
                )
            ctxt.complete(comms)
            result = comms
        else:
            result = yield from proc.block(ctxt.event)
        return result.get(color) if color is not None else None

    # ------------------------------------------------------------------------
    # communicator management / naming / misc
    # ------------------------------------------------------------------------

    def _body_init(self, ep, proc, argc, argv) -> Generator:
        ep.initialized = True
        yield from proc.compute(self.init_cost)

    def _body_finalize(self, ep, proc) -> Generator:
        # MPI_Finalize synchronizes the world (both LAM and MPICH effectively
        # barrier before tearing connections down).
        yield from proc.compute(self.finalize_cost)
        comm = ep.world.comm_world
        if comm.size > 1:
            ctxt = comm.collective_context(ep, "finalize")
            if ctxt.arrive(ep):
                ctxt.complete()
            else:
                yield from proc.block(ctxt.event)
        ep.finalized = True

    def _body_comm_rank(self, ep, proc, comm) -> Generator:
        return comm.rank_of(ep)
        yield  # pragma: no cover

    def _body_comm_size(self, ep, proc, comm) -> Generator:
        return comm.size
        yield  # pragma: no cover

    def _body_comm_dup(self, ep, proc, comm) -> Generator:
        ctxt = comm.collective_context(ep, "comm_dup")
        yield from proc.compute(self.collective_entry_cost)
        if ctxt.arrive(ep):
            dup = self.universe.new_communicator(comm.group, name=f"{comm.name}_dup")
            ctxt.complete(dup)
            return dup
        dup = yield from proc.block(ctxt.event)
        return dup

    def _body_comm_set_name(self, ep, proc, comm, name) -> Generator:
        comm.set_name(str(name))
        yield from proc.compute(1e-7)

    def _body_comm_get_name(self, ep, proc, comm) -> Generator:
        return comm.get_name()
        yield  # pragma: no cover

    def _body_type_size(self, ep, proc, dtype) -> Generator:
        return dtype.size
        yield  # pragma: no cover

    # ------------------------------------------------------------------------
    # RMA
    # ------------------------------------------------------------------------

    def alloc_win_id(self) -> int:
        if self.reuse_window_ids and self._free_win_ids:
            return self._free_win_ids.pop(0)
        win_id = self._next_win_id
        self._next_win_id += 1
        return win_id

    def release_win_id(self, win_id: int) -> None:
        if self.reuse_window_ids:
            self._free_win_ids.append(win_id)
            self._free_win_ids.sort()

    def _body_win_create(self, ep, proc, base, size, disp_unit, info, comm) -> Generator:
        self._require("rma")
        yield from proc.compute(self.win_create_cost)
        rank = comm.rank_of(ep)
        ctxt = comm.collective_context(ep, "win_create")
        if ctxt.arrive(ep, (rank, base)):
            buffers = {r: buf for r, buf in ctxt.values()}
            internal_comm = None
            if self.window_creates_internal_comm:
                internal_comm = self.universe.new_communicator(
                    comm.group, internal=True, name=""
                )
            win = Window(
                self.universe.kernel,
                self.alloc_win_id(),
                comm,
                buffers,
                disp_unit=disp_unit,
                internal_comm=internal_comm,
            )
            if internal_comm is not None:
                internal_comm.set_name(win.name)
                internal_comm.user_named = False
            for r in range(comm.size):
                win.open_fence_epoch(r)
            self.universe.notify_window(win)
            ctxt.complete(win)
            return win
        win = yield from proc.block(ctxt.event)
        return win

    def _body_win_free(self, ep, proc, win) -> Generator:
        self._require("rma")
        win.check_not_freed()
        yield from proc.compute(self.rma_sync_overhead)
        ctxt = win.comm.collective_context(ep, "win_free")
        if ctxt.arrive(ep):
            win.freed = True
            self.release_win_id(win.win_id)
            ctxt.complete()
        else:
            yield from proc.block(ctxt.event)

    def _flush_rma_ops(self, ep, proc, win, ops) -> Generator:
        """Default (MPICH2-style) flush: internal progress, ops applied now.

        Data was pushed incrementally as the operations were issued (see
        :meth:`_rma_origin_cost`); the flush pays only completion handling.
        """
        total = 0
        for op in ops:
            win.apply_op(op)
            total += op.nbytes
        if total:
            link = self.universe.network.inter_node
            yield from proc.compute(total / (8.0 * link.bandwidth) + len(ops) * 2e-6)

    def _body_win_fence(self, ep, proc, assertion, win) -> Generator:
        self._require("rma")
        win.check_not_freed()
        yield from proc.compute(self.rma_sync_overhead)
        rank = win.comm.rank_of(ep)
        ops = win.close_fence_epoch(rank)
        yield from self._flush_rma_ops(ep, proc, win, ops)
        # internal fence synchronization (MPICH2 sock channel style)
        ctxt = win.comm.collective_context(ep, "win_fence")
        if ctxt.arrive(ep):
            ctxt.complete()
        else:
            yield from proc.block(ctxt.event)
        win.open_fence_epoch(rank)

    def _body_win_start(self, ep, proc, group_ranks, assertion, win) -> Generator:
        self._require("rma")
        win.check_not_freed()
        yield from proc.compute(self.rma_sync_overhead)
        rank = win.comm.rank_of(ep)
        win.open_start_epoch(rank, tuple(group_ranks))
        records = {}
        for target in group_ranks:
            records[target] = win.matching_exposure(rank, target)
        ep.start_records[win.win_id] = records
        if self.win_start_blocks:
            for record in records.values():
                if not record.posted_event.triggered:
                    yield from proc.block(record.posted_event)

    def _body_win_complete(self, ep, proc, win) -> Generator:
        self._require("rma")
        yield from proc.compute(self.rma_sync_overhead)
        rank = win.comm.rank_of(ep)
        records = ep.start_records.pop(win.win_id, {})
        if not self.win_start_blocks:
            for record in records.values():
                if not record.posted_event.triggered:
                    yield from proc.block(record.posted_event)
        ops, _group = win.close_start_epoch(rank)
        yield from self._flush_rma_ops(ep, proc, win, ops)
        for record in records.values():
            if record.record_complete():
                record.all_complete_event.trigger(None)

    def _body_win_post(self, ep, proc, group_ranks, assertion, win) -> Generator:
        self._require("rma")
        win.check_not_freed()
        yield from proc.compute(self.rma_sync_overhead)
        rank = win.comm.rank_of(ep)
        if win.win_id in ep.post_record:
            raise RmaEpochError(f"rank {rank}: MPI_Win_post while an exposure epoch is open")
        record = win.fill_placeholder_exposure(rank, tuple(group_ranks))
        ep.post_record[win.win_id] = record

    def _body_win_wait(self, ep, proc, win) -> Generator:
        self._require("rma")
        yield from proc.compute(self.rma_sync_overhead)
        record = ep.post_record.pop(win.win_id, None)
        if record is None:
            raise RmaEpochError("MPI_Win_wait without a matching MPI_Win_post")
        if not record.all_complete_event.triggered:
            yield from proc.block(record.all_complete_event)

    def _body_win_lock(self, ep, proc, lock_type, target_rank, assertion, win) -> Generator:
        self._require("rma_passive")
        win.check_not_freed()
        if lock_type not in ("shared", "exclusive"):
            raise MpiError(
                f"MPI_Win_lock: lock type must be MPI_LOCK_SHARED or "
                f"MPI_LOCK_EXCLUSIVE, got {lock_type!r}"
            )
        yield from proc.compute(self.rma_sync_overhead)
        rank = win.comm.rank_of(ep)
        wait = win.acquire_lock(rank, target_rank, lock_type)
        if wait is not None:
            yield from proc.block(wait)
            win.lock_granted(rank, target_rank, lock_type)

    def _body_win_unlock(self, ep, proc, target_rank, win) -> Generator:
        self._require("rma_passive")
        yield from proc.compute(self.rma_sync_overhead)
        rank = win.comm.rank_of(ep)
        ops = win.release_lock(rank, target_rank)
        # MPI_Win_unlock may not return until the transfer completed at both
        # origin and target (the paper quotes this as a passive-target
        # bottleneck source), so the flush happens inside the unlock.
        yield from self._flush_rma_ops(ep, proc, win, ops)

    def _rma_origin_cost(self, proc, nbytes: int) -> Generator:
        """Origin-side cost of issuing one Put/Get/Accumulate: protocol
        overhead (user CPU) plus pushing the data into the transport --
        socket writes, i.e. system time, invisible to user-CPU metrics."""
        yield from proc.compute(self.rma_op_overhead)
        inject = nbytes / self._socket_link.bandwidth
        if inject:
            yield from proc.syscall(inject)

    def _body_put(
        self, ep, proc, origin, count, dtype, target_rank, target_disp, tcount, tdtype, win
    ) -> Generator:
        self._require("rma")
        op = RmaOp(
            kind=RmaOpKind.PUT,
            origin_world_rank=ep.world_rank,
            target_rank=target_rank,
            target_disp=target_disp,
            count=count,
            datatype=dtype,
            payload=np.array(origin, copy=True),
        )
        win.record_op(ep, op)
        yield from self._rma_origin_cost(proc, op.nbytes)

    def _body_get(
        self, ep, proc, origin, count, dtype, target_rank, target_disp, tcount, tdtype, win
    ) -> Generator:
        self._require("rma")
        op = RmaOp(
            kind=RmaOpKind.GET,
            origin_world_rank=ep.world_rank,
            target_rank=target_rank,
            target_disp=target_disp,
            count=count,
            datatype=dtype,
            dest=origin,
        )
        win.record_op(ep, op)
        yield from self._rma_origin_cost(proc, op.nbytes)

    def _body_accumulate(
        self, ep, proc, origin, count, dtype, target_rank, target_disp, tcount, tdtype, op_, win
    ) -> Generator:
        self._require("rma")
        op = RmaOp(
            kind=RmaOpKind.ACCUMULATE,
            origin_world_rank=ep.world_rank,
            target_rank=target_rank,
            target_disp=target_disp,
            count=count,
            datatype=dtype,
            payload=np.array(origin, copy=True),
            op=op_,
        )
        win.record_op(ep, op)
        yield from self._rma_origin_cost(proc, op.nbytes)

    def _body_win_set_name(self, ep, proc, win, name) -> Generator:
        win.set_name(str(name))
        yield from proc.compute(1e-7)

    def _body_win_get_name(self, ep, proc, win) -> Generator:
        return win.get_name()
        yield  # pragma: no cover

    # ------------------------------------------------------------------------
    # dynamic process creation
    # ------------------------------------------------------------------------

    def spawn_placement(self, maxprocs: int, info: dict) -> list:
        """Choose CPUs for spawned children (personality hook)."""
        return self.universe.round_robin_placement(maxprocs)

    def _body_comm_spawn(self, ep, proc, command, argv, maxprocs, info, root, comm) -> Generator:
        self._require("spawn")
        yield from proc.compute(self.spawn_cost)
        gather = comm.collective_context(ep, "spawn_gather")
        if gather.arrive(ep):
            gather.complete()
        else:
            yield from proc.block(gather.event)
        result = comm.collective_context(ep, "spawn_result")
        if comm.rank_of(ep) == root:
            placement = self.spawn_placement(maxprocs, info or {})
            child_world = self.universe.spawn_world(
                command=command,
                argv=list(argv or []),
                nprocs=maxprocs,
                parent_comm=comm,
                placement=placement,
                startup_delay=self.child_startup_time,
            )
            # The root blocks until children are up (LAM semantics).
            yield from proc.sleep(self.child_startup_time)
            result.arrive(ep)
            result.complete(child_world.parent_intercomm)
            intercomm = child_world.parent_intercomm
        else:
            result.arrive(ep)
            if not result.complete_now:
                intercomm = yield from proc.block(result.event)
            else:  # pragma: no cover - root always completes the context
                intercomm = result.result
        errcodes = [0] * maxprocs
        return intercomm, errcodes

    def _body_comm_get_parent(self, ep, proc) -> Generator:
        return ep.parent_intercomm
        yield  # pragma: no cover

    def _body_comm_disconnect(self, ep, proc, comm) -> Generator:
        """Collective over both sides of the intercomm: every member (local
        and remote group) arrives before the communicator is marked freed."""
        self._require("spawn")
        yield from proc.compute(self.collective_entry_cost)
        ctxt = comm.collective_context(ep, "disconnect")
        if ctxt.arrive(ep):
            comm.freed = True
            ctxt.complete()
        else:
            yield from proc.block(ctxt.event)

    def _body_intercomm_merge(self, ep, proc, intercomm, high) -> Generator:
        yield from proc.compute(self.collective_entry_cost)
        ctxt = intercomm.collective_context(ep, "merge")
        if ctxt.arrive(ep):
            low_group = intercomm.group
            high_group = intercomm.remote_group
            members = list(low_group) + list(high_group or [])
            merged = self.universe.new_communicator(
                members, name=f"{intercomm.name}_merged"
            )
            ctxt.complete(merged)
            return merged
        merged = yield from proc.block(ctxt.event)
        return merged

    # ------------------------------------------------------------------------
    # MPI-IO (minimal)
    # ------------------------------------------------------------------------

    def _body_file_open(self, ep, proc, comm, filename, amode, info) -> Generator:
        self._require("mpio")
        yield from proc.syscall(self.io_file_latency)
        ctxt = comm.collective_context(ep, "file_open")
        if ctxt.arrive(ep):
            ctxt.complete(MpiFile(filename, comm))
            return ctxt.result
        fh = yield from proc.block(ctxt.event)
        return fh

    def _body_file_close(self, ep, proc, fh) -> Generator:
        self._require("mpio")
        yield from proc.syscall(self.io_file_latency)
        fh.closed = True

    def _body_file_write_at(self, ep, proc, fh, offset, buf, count, dtype, status) -> Generator:
        self._require("mpio")
        nbytes = dtype.extent(count)
        fh.bytes_written += nbytes
        yield from proc.syscall(self.io_file_latency + nbytes / self.io_file_bandwidth)

    def _body_file_read_at(self, ep, proc, fh, offset, buf, count, dtype, status) -> Generator:
        self._require("mpio")
        nbytes = dtype.extent(count)
        fh.bytes_read += nbytes
        yield from proc.syscall(self.io_file_latency + nbytes / self.io_file_bandwidth)
        return nbytes


class _RelayTask:
    """Minimal waiter for SimEvent.add_waiter: forwards the trigger value to
    a callback (used by MPI_Waitany's any-of wait).  Like a Task it is its
    own wakeup entry, so it carries the entry slots the kernel fills in."""

    __slots__ = ("time", "seq", "value", "callback")

    cancelled = False

    def __init__(self, relay):
        self.callback = relay


def _task_sleep(seconds: float) -> Generator:
    """Sleep inside a background helper task (no process CPU accounting)."""
    from ...sim.kernel import Delay

    yield Delay(seconds)
