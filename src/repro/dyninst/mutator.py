"""The mutator: runtime insertion and deletion of instrumentation.

This is the simulated Dyninst API used by the tool daemon: attach to a
process, allocate instrumentation variables in it, insert snippets at
function entry/return points, and delete them again.  Insertion and deletion
are *dynamic* -- they happen while the mutatee runs, which is the property
the paper leans on to keep data volume manageable ("performance measurement
instructions only need to be inserted in code sections where a performance
problem is suspected").

Each insertion returns an :class:`InstrumentationHandle`; deleting the
handle removes every snippet it installed, so a metric-focus pair can be
disabled as one unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..sim.process import SimProcess
from .image import FunctionDef, ImageError
from .snippets import CounterVar, InstrVar, ProcTimerVar, Snippet, WallTimerVar

__all__ = ["Mutator", "InstrumentationHandle"]


@dataclass
class _Installed:
    function: FunctionDef
    where: str
    snippet: Snippet


@dataclass
class InstrumentationHandle:
    """All snippets + variables installed for one logical request."""

    mutator: "Mutator"
    label: str = ""
    installed: list[_Installed] = field(default_factory=list)
    variables: list[InstrVar] = field(default_factory=list)
    active: bool = True

    def delete(self) -> None:
        self.mutator.delete(self)


class Mutator:
    """Instrumentation controller for a single mutatee process."""

    def __init__(self, proc: SimProcess) -> None:
        self.proc = proc

    # -- variables -------------------------------------------------------------

    def new_counter(self, name: str = "", initial: float = 0.0) -> CounterVar:
        var = CounterVar(name=name, initial=initial)
        self.proc.instr_vars[var.var_id] = var
        return var

    def new_wall_timer(self, name: str = "") -> WallTimerVar:
        var = WallTimerVar(name=name)
        self.proc.instr_vars[var.var_id] = var
        return var

    def new_proc_timer(self, name: str = "") -> ProcTimerVar:
        var = ProcTimerVar(name=name)
        self.proc.instr_vars[var.var_id] = var
        return var

    def free_variable(self, var: InstrVar) -> None:
        self.proc.instr_vars.pop(var.var_id, None)

    # -- builtins ---------------------------------------------------------------

    def register_builtin(self, name: str, fn: Callable) -> None:
        """Expose an instrumentation runtime call (e.g. MPI_Type_size)."""
        self.proc.instr_builtins[name] = fn

    # -- snippet insertion -------------------------------------------------------

    def handle(self, label: str = "") -> InstrumentationHandle:
        return InstrumentationHandle(mutator=self, label=label)

    def insert(
        self,
        handle: InstrumentationHandle,
        function: str | FunctionDef,
        where: str,
        snippet: Snippet,
        *,
        order: str = "append",
    ) -> None:
        """Insert ``snippet`` at ``function``'s ``where`` point.

        ``function`` may be a name (resolved through the image, weak-symbol
        aware) or a :class:`FunctionDef` already in hand.  Unknown names
        raise :class:`ImageError` -- callers that probe for optionally
        present functions should use :meth:`insert_if_present`.
        """
        fn = function if isinstance(function, FunctionDef) else self.proc.image.resolve(function)
        fn.insert(snippet, where=where, order=order)
        handle.installed.append(_Installed(function=fn, where=where, snippet=snippet))
        if where == "entry":
            # "catch-up" execution (as Dyninst does): if the mutatee is
            # currently inside the instrumented function, run the entry
            # snippet now -- otherwise timers on long-running functions
            # (main!) would never start for instrumentation inserted
            # mid-flight.  One execution per live activation keeps timer
            # nesting depths consistent with the eventual exits.
            for frame in self.proc.stack:
                if frame.function is fn:
                    snippet.execute(self.proc, frame, at_entry=True)

    def insert_if_present(
        self,
        handle: InstrumentationHandle,
        function: str,
        where: str,
        snippet: Snippet,
        *,
        order: str = "append",
    ) -> bool:
        """Insert if the symbol exists; metric definitions list function
        names for several MPI implementations, most absent in any one image."""
        fn = self.proc.image.lookup(function)
        if fn is None:
            return False
        self.insert(handle, fn, where, snippet, order=order)
        return True

    def delete(self, handle: InstrumentationHandle) -> None:
        """Remove everything the handle installed and free its variables."""
        if not handle.active:
            return
        for item in handle.installed:
            try:
                item.function.remove(item.snippet, where=item.where)
            except ImageError:  # pragma: no cover - double-removal guard
                pass
        handle.installed.clear()
        for var in handle.variables:
            self.free_variable(var)
        handle.variables.clear()
        handle.active = False

    def track_variable(self, handle: InstrumentationHandle, var: InstrVar) -> InstrVar:
        handle.variables.append(var)
        return var
