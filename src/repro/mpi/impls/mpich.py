"""The MPICH 1.2.x ch_p4mpd personality (MPI-1 only).

Internals modelled after the behaviours the paper observes:

* default build uses **weak symbols**: application calls to ``MPI_Send``
  resolve to the strong ``PMPI_Send`` definitions -- so instrumentation must
  name the PMPI variants too (the Paradyn 4.0 metric-definition gap Section
  4.1.1 fixes);
* no SMP support -- sockets (``write``/``read``) even between processes on
  the same node, which routes communication time into Paradyn's I/O metrics
  (``ExcessiveIOBlockingTime`` in Figure 3);
* collectives built from point-to-point MPI calls: the PC sees
  ``PMPI_Sendrecv`` under ``PMPI_Barrier`` (Figure 9) and can discover the
  communicator/tag the collective uses;
* no MPI-2: RMA, dynamic process creation and naming raise
  :class:`~repro.mpi.errors.UnsupportedFeature`.
"""

from __future__ import annotations

from .base import BaseImpl

__all__ = ["MpichImpl"]


class MpichImpl(BaseImpl):
    name = "mpich"
    version = "1.2.5 (ch_p4mpd)"
    pmpi_weak_symbols = True
    shared_memory_transport = False
    socket_functions = ("write", "read")
    visible_collective_p2p = True
    win_start_blocks = False
    window_creates_internal_comm = False
    features = frozenset({"p2p", "collectives"})
