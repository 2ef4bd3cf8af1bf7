"""MPE-style trace logging.

The paper validates Paradyn's findings against MPICH's MPE profiling
libraries viewed in Jumpshot-3 (Figures 12, 13, 16, 17).  This module is
the MPE analogue: link-time wrappers (here: an entry and an exit hook on
each process's calls) record an event log of MPI function entry/exit per
process, from which Jumpshot-style views are computed.

The paper had to shorten the traced runs "because of file size
limitations" -- trace logs grow with every event, the scalability problem
Section 2 attributes to post-mortem tools.  :attr:`MpeLog.size_bytes`
models that growth so the trade-off is measurable (see the instrumentation
ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.world import MpiWorld
    from ..sim.process import Frame, SimProcess

__all__ = ["MpeEvent", "MpeLog", "MpeLogger", "EVENT_BYTES"]

#: bytes per logged event record in the CLOG-ish format
EVENT_BYTES = 24


@dataclass(frozen=True)
class MpeEvent:
    time: float
    rank: int
    function: str
    kind: str  # "entry" | "exit"


@dataclass
class MpeLog:
    """One run's merged event log."""

    events: list[MpeEvent] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return len(self.events) * EVENT_BYTES

    def for_rank(self, rank: int) -> list[MpeEvent]:
        return [e for e in self.events if e.rank == rank]

    def functions(self) -> set[str]:
        return {e.function for e in self.events}

    def intervals(self, rank: int) -> list[tuple[float, float, str]]:
        """(start, end, function) state intervals for one process,
        outermost MPI call only (matching Jumpshot's MPI states)."""
        out: list[tuple[float, float, str]] = []
        stack: list[MpeEvent] = []
        for event in self.for_rank(rank):
            if event.kind == "entry":
                stack.append(event)
            elif stack:
                start = stack.pop()
                if not stack:  # outermost call closed
                    out.append((start.time, event.time, start.function))
        return out


class MpeLogger:
    """Attaches to a world's processes and records MPI entry/exit events."""

    def __init__(self, *, functions: Optional[Iterable[str]] = None) -> None:
        self.log = MpeLog()
        self._filter = set(functions) if functions is not None else None
        self._ranks: dict[int, int] = {}  # pid -> rank

    def attach_world(self, world: "MpiWorld") -> None:
        for ep in world.endpoints:
            self.attach(ep.proc, ep.world_rank)

    def attach(self, proc: "SimProcess", rank: int) -> None:
        self._ranks[proc.pid] = rank
        proc.entry_hooks.append(lambda p, frame: self._log(p, frame, "entry"))
        proc.exit_hooks.append(lambda p, frame: self._log(p, frame, "exit"))

    def _log(self, p: "SimProcess", frame: "Frame", kind: str) -> None:
        name = frame.function.name
        if "mpi" not in frame.function.tags:
            return
        if self._filter is not None and name not in self._filter:
            return
        self.log.events.append(
            MpeEvent(time=p.kernel.now, rank=self._ranks[p.pid], function=name, kind=kind)
        )
