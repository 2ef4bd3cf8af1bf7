"""The LAM/MPI 7.0 personality (sysv RPI).

Internals modelled after the behaviours the paper observes:

* shared-memory transport between same-node processes; ``writev``/``readv``
  socket calls across nodes (Paradyn's default I/O metric set covers
  ``read``/``write`` only, which is why LAM runs never show
  ``ExcessiveIOBlockingTime`` -- Section 5.1.2);
* two full strong symbol sets (``MPI_*`` and ``PMPI_*``), no weak aliases;
* collectives implemented inside the RPI (invisible to function-level
  instrumentation, so the PC reports time in ``MPI_Barrier`` itself);
* ``MPI_Win_fence`` built from ``MPI_Isend``/``MPI_Waitall`` plus
  ``MPI_Barrier`` (Figures 22 and 24);
* blocking ``MPI_Win_start`` (waits for the matching posts -- Figure 21);
* a hidden per-window communicator carrying the window's name (Figure 23);
* dynamic process creation (round-robin over the LAM session's nodes, or an
  application schema named by the ``lam_spawn_file`` info key);
* window ids reused after ``MPI_Win_free``.
"""

from __future__ import annotations

from typing import Generator

from ..datatypes import BYTE
from .base import BaseImpl, RMA_SINK_TAG

__all__ = ["LamImpl"]


class LamImpl(BaseImpl):
    name = "lam"
    version = "7.0"
    pmpi_weak_symbols = False
    shared_memory_transport = True
    socket_functions = ("writev", "readv")
    visible_collective_p2p = False
    win_start_blocks = True
    window_creates_internal_comm = True
    features = frozenset(
        {"p2p", "collectives", "rma", "spawn", "naming", "mpio"}
    )

    def _body_win_fence(self, ep, proc, assertion, win) -> Generator:
        """LAM's fence: flush pending one-sided operations as nonblocking
        sends on the window's hidden communicator, then barrier."""
        self._require("rma")
        win.check_not_freed()
        yield from proc.compute(self.rma_sync_overhead)
        rank = win.comm.rank_of(ep)
        ops = win.close_fence_epoch(rank)
        comm = win.internal_comm if win.internal_comm is not None else win.comm
        requests = []
        for op in ops:
            win.apply_op(op)
            if op.target_rank == rank:
                continue  # local window access needs no message
            request = yield from proc.call(
                "MPI_Isend",
                None,
                op.count,
                op.datatype,
                op.target_rank,
                RMA_SINK_TAG + win.win_id,
                comm,
            )
            requests.append(request)
        if requests:
            yield from proc.call("MPI_Waitall", len(requests), requests, None)
        yield from proc.call("MPI_Barrier", win.comm)
        win.open_fence_epoch(rank)

    def spawn_placement(self, maxprocs: int, info: dict):
        """LAM schedules spawned children round-robin over the session's
        nodes unless an application schema (``lam_spawn_file``) pins them."""
        schema_file = (info or {}).get("lam_spawn_file")
        if schema_file is not None:
            from ...launch.appschema import AppSchema

            schema = (
                schema_file
                if isinstance(schema_file, AppSchema)
                else AppSchema.parse(schema_file)
            )
            return schema.placement(self.universe.cluster, maxprocs)
        return self.universe.round_robin_placement(maxprocs)
