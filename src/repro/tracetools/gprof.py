"""A gprof-style flat profile of simulated programs.

Figure 19 of the paper validates Paradyn's hot-procedure diagnosis against
gprof: ``bottleneckProcedure`` consumes 100% of the running time while the
``irrelevantProcedure``s are called equally often but take ~0 us/call.
This profiler reproduces that flat-profile table (% time, cumulative /
self seconds, calls, us/call) from an entry and an exit hook on each
process's calls, using *CPU* time like real gprof's sampling does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.process import Frame, SimProcess

__all__ = ["FlatProfileRow", "GprofProfiler"]


@dataclass
class FlatProfileRow:
    name: str
    self_seconds: float
    calls: int

    @property
    def us_per_call(self) -> float:
        return self.self_seconds / self.calls * 1e6 if self.calls else 0.0


class GprofProfiler:
    """Accumulates exclusive (self) CPU time and call counts per function."""

    def __init__(self, *, app_only: bool = True) -> None:
        self.app_only = app_only
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        # per-pid shadow stack of (function name, cpu time at last boundary)
        self._stacks: dict[int, list[list]] = {}

    def attach(self, proc: "SimProcess") -> None:
        self._stacks[proc.pid] = []

        def on_entry(p: "SimProcess", frame: "Frame") -> None:
            if self.app_only and "app" not in frame.function.tags:
                # still account the time to the enclosing app function
                return
            stack = self._stacks[p.pid]
            now_cpu = p.cpu_user_time()
            if stack:
                top = stack[-1]
                self.self_time[top[0]] = self.self_time.get(top[0], 0.0) + now_cpu - top[1]
            name = frame.function.name
            self.calls[name] = self.calls.get(name, 0) + 1
            stack.append([name, now_cpu])

        def on_exit(p: "SimProcess", frame: "Frame") -> None:
            stack = self._stacks[p.pid]
            if not stack or stack[-1][0] != frame.function.name:
                return  # not tracked at entry, or attached mid-run
            now_cpu = p.cpu_user_time()
            name, since = stack.pop()
            self.self_time[name] = self.self_time.get(name, 0.0) + now_cpu - since
            if stack:
                stack[-1][1] = now_cpu

        proc.entry_hooks.append(on_entry)
        proc.exit_hooks.append(on_exit)

    def rows(self) -> list[FlatProfileRow]:
        names = set(self.self_time) | set(self.calls)
        rows = [
            FlatProfileRow(
                name=name,
                self_seconds=self.self_time.get(name, 0.0),
                calls=self.calls.get(name, 0),
            )
            for name in names
        ]
        # tie-break by name: ties (all the zero-time procedures) would
        # otherwise surface the hash-randomized set order above
        rows.sort(key=lambda r: (-r.self_seconds, r.name))
        return rows

    def total_seconds(self) -> float:
        return sum(self.self_time.values())

    def render(self) -> str:
        """The gprof flat-profile table of Figure 19."""
        total = self.total_seconds() or 1.0
        lines = [
            "  %   cumulative   self              self",
            " time   seconds   seconds    calls  us/call  name",
        ]
        cumulative = 0.0
        for row in self.rows():
            cumulative += row.self_seconds
            lines.append(
                f"{100.0 * row.self_seconds / total:5.1f} {cumulative:10.2f} "
                f"{row.self_seconds:9.2f} {row.calls:8d} {row.us_per_call:8.2f}  {row.name}"
            )
        return "\n".join(lines)
