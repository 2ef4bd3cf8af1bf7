"""The MPICH2 0.96p2 beta personality (sock channel, mpd process manager).

Adds the MPI-2 features the paper tested with MPICH2 on top of the MPICH
socket transport:

* RMA with an *internal* fence (no nested ``MPI_Barrier`` -- contrast with
  LAM in Figure 22) and a **non-blocking** ``MPI_Win_start`` whose
  synchronization cost surfaces in ``MPI_Win_complete`` instead (the
  implementation difference Figure 21 shows);
* MPI object naming and MPI-IO;
* **no dynamic process creation** -- the paper notes "MPICH2 0.96p2 beta
  does not yet fully support dynamic process creation", so every spawn
  entry point (``MPI_Comm_spawn``/``MPI_Comm_disconnect``) raises
  :class:`~repro.mpi.errors.UnsupportedFeature` whose message names the
  personalities that do support spawn (``lam`` and ``refmpi``);
* no passive-target RMA (lock/unlock unsupported, as in the paper).

Passive target is carved out by overriding the feature set rather than the
bodies: the base implementation is complete, but ``MPI_Win_lock`` checks the
``rma_passive`` capability first.
"""

from __future__ import annotations

from ..errors import UnsupportedFeature
from .base import BaseImpl

__all__ = ["Mpich2Impl"]


class Mpich2Impl(BaseImpl):
    name = "mpich2"
    version = "0.96p2 (sock/mpd)"
    pmpi_weak_symbols = True
    shared_memory_transport = False
    socket_functions = ("write", "read")
    visible_collective_p2p = True
    win_start_blocks = False
    window_creates_internal_comm = False
    features = frozenset({"p2p", "collectives", "rma", "naming", "mpio"})

    def _require(self, feature: str) -> None:
        if feature == "spawn" and not self.supports(feature):
            # Point users at the personalities that do implement spawn
            # (the base-class docstring capability table is the source
            # of truth: lam and refmpi only).
            raise UnsupportedFeature(
                f"{self.name} {self.version}",
                "spawn (dynamic process creation is implemented by the "
                "lam and refmpi personalities only)",
            )
        super()._require(feature)
