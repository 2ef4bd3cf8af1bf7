"""An mpiP-style profiling report.

The paper's related-work survey singles mpiP out among the post-mortem
tools: "An exception is mpiP, which uses profiling information to perform
its analysis of the MPI program" -- aggregate statistics instead of traces,
so it sidesteps the trace-size scalability limit.  This module is that
comparator: per-(callsite, rank) aggregated MPI time and message sizes,
rendered as mpiP's familiar "@--- MPI Time" / "Aggregate Time" sections.

The *callsite* is the application function that invoked MPI (mpiP uses the
call-stack return address); aggregation keyed on it reproduces mpiP's most
useful view at simulation fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.world import MpiWorld
    from ..sim.process import Frame, SimProcess

__all__ = ["MpipProfiler", "CallsiteStats"]


@dataclass
class CallsiteStats:
    """Aggregate statistics for one (MPI function, calling function) site."""

    mpi_function: str
    callsite: str
    calls: int = 0
    time: float = 0.0
    bytes_sent: int = 0

    @property
    def mean_time(self) -> float:
        return self.time / self.calls if self.calls else 0.0


class MpipProfiler:
    """Link-time MPI profiler: aggregates, never traces."""

    #: argument layouts whose (count, datatype) describe an outgoing payload
    _SEND_LIKE = {"MPI_Send", "PMPI_Send", "MPI_Isend", "PMPI_Isend",
                  "MPI_Ssend", "PMPI_Ssend", "MPI_Put", "PMPI_Put"}

    def __init__(self) -> None:
        self.sites: dict[tuple[str, str], CallsiteStats] = {}
        self.app_time: dict[int, float] = {}  # rank -> wall time
        self.mpi_time: dict[int, float] = {}  # rank -> time inside MPI
        self._ranks: dict[int, int] = {}

    def attach_world(self, world: "MpiWorld") -> None:
        for ep in world.endpoints:
            self.attach(ep.proc, ep.world_rank)

    def attach(self, proc: "SimProcess", rank: int) -> None:
        """Profile ``proc`` from now on.  Each MPI call is counted at its
        exit, timed from its frame's entry time, so a call already in
        flight when this attaches counts too."""
        self._ranks[proc.pid] = rank

        def hook(p: "SimProcess", frame: "Frame") -> None:
            if "mpi" not in frame.function.tags:
                return
            # only the outermost MPI frame counts (internal PMPI_Sendrecv
            # inside PMPI_Barrier is the implementation's business)
            stack = p.stack
            if sum(1 for f in stack if "mpi" in f.function.tags) != 1:
                return
            elapsed = p.kernel.now - frame.entry_time
            callsite = stack[-2].name if len(stack) > 1 else "<top>"
            key = (frame.function.name, callsite)
            site = self.sites.get(key)
            if site is None:
                site = CallsiteStats(mpi_function=frame.function.name, callsite=callsite)
                self.sites[key] = site
            site.calls += 1
            site.time += elapsed
            if frame.function.name in self._SEND_LIKE and len(frame.args) >= 3:
                count, dtype = frame.args[1], frame.args[2]
                try:
                    site.bytes_sent += dtype.extent(count)
                except AttributeError:
                    pass
            myrank = self._ranks[p.pid]
            self.mpi_time[myrank] = self.mpi_time.get(myrank, 0.0) + elapsed

        proc.exit_hooks.append(hook)

        def on_exit(p: "SimProcess") -> None:
            self.app_time[self._ranks[p.pid]] = p.wall_time()

        proc.atexit_hooks.append(on_exit)

    # -- reporting -----------------------------------------------------------

    def top_sites(self, n: int = 10) -> list[CallsiteStats]:
        return sorted(self.sites.values(), key=lambda s: s.time, reverse=True)[:n]

    def total_mpi_fraction(self) -> float:
        app = sum(self.app_time.values())
        return sum(self.mpi_time.values()) / app if app else 0.0

    def render(self, top: int = 10) -> str:
        """The mpiP-flavoured text report."""
        lines = ["@--- MPI Time (seconds) ---"]
        for rank in sorted(self.app_time):
            app = self.app_time[rank]
            mpi = self.mpi_time.get(rank, 0.0)
            pct = 100.0 * mpi / app if app else 0.0
            lines.append(f"  rank {rank:3d}   apptime {app:8.3f}   mpitime {mpi:8.3f}   {pct:5.1f}%")
        total_app = sum(self.app_time.values())
        total_mpi = sum(self.mpi_time.values())
        lines.append(f"  *         apptime {total_app:8.3f}   mpitime {total_mpi:8.3f}   "
                     f"{100.0 * self.total_mpi_fraction():5.1f}%")
        lines.append("")
        lines.append("@--- Aggregate Time (top sites, descending) ---")
        lines.append("  MPI call         callsite               calls      time    mean      bytes")
        for site in self.top_sites(top):
            lines.append(
                f"  {site.mpi_function:16s} {site.callsite:20s} {site.calls:7d} "
                f"{site.time:9.3f} {site.mean_time * 1e3:7.3f}ms {site.bytes_sent:10d}"
            )
        return "\n".join(lines)
