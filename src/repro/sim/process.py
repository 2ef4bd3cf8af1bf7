"""Simulated processes: virtual CPU accounting and instrumentable calls.

A :class:`SimProcess` is one OS process on one CPU of the simulated cluster.
It owns:

* **time accounting** -- wall time comes from the kernel clock; user and
  system CPU time accrue while the process is in :meth:`compute` /
  :meth:`syscall`.  CPU clocks are *interpolated*: sampling mid-compute sees
  partially-accrued time, which is what makes Paradyn-style periodic sampling
  of process timers meaningful.
* **a call stack** of :class:`Frame` objects.  Every function call in a
  simulated program goes through :meth:`call`, which resolves the callee in
  the process's binary image (weak-symbol aware, see
  :mod:`repro.dyninst.image`), runs any entry instrumentation, executes the
  body, and runs exit instrumentation.  This is the boundary at which the
  dynamic-instrumentation substrate operates -- the simulated equivalent of
  Dyninst trampolines.
* **call hooks** (``entry_hooks``, ``exit_hooks``), each ``hook(proc,
  frame)``, for the comparator tools, the Consultant and the sanitizer.  A
  hooked frame is on top of :attr:`SimProcess.stack`, its caller below it:
  only one task per process makes calls.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from .kernel import Delay, Kernel, WaitEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..dyninst.image import FunctionDef, Image
    from .node import Cpu, Node

__all__ = ["ProcState", "Frame", "SimProcess"]


class ProcState(enum.Enum):
    """What the process is doing right now (for CPU-clock interpolation)."""

    BLOCKED = "blocked"
    USER = "user"
    SYSTEM = "system"
    EXITED = "exited"


# hot-path aliases: enum member access is an attribute lookup on the enum
# class plus a descriptor call, which shows up in the CPU-accounting paths
_BLOCKED = ProcState.BLOCKED
_USER = ProcState.USER
_SYSTEM = ProcState.SYSTEM


class Frame:
    """One activation record on a simulated process's call stack.

    Slotted, positional construction: one Frame is allocated per simulated
    function call, which makes this one of the hottest allocations in the
    whole system (see DESIGN.md "kernel fast path")."""

    __slots__ = ("function", "args", "entry_time", "return_value")

    def __init__(
        self,
        function: "FunctionDef",
        args: tuple = (),
        entry_time: float = 0.0,
        return_value: Any = None,
    ) -> None:
        self.function = function
        self.args = args
        self.entry_time = entry_time
        self.return_value = return_value

    @property
    def name(self) -> str:
        return self.function.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Frame {self.name}>"


class SimProcess:
    """One simulated OS process.

    ``instr_vars`` is the process-local instrumentation data block: the
    counters and timers inserted by the tool daemon live here, keyed by
    variable id.  It is intentionally a plain dict -- the daemon allocates
    and samples entries; the process itself never interprets them.
    """

    def __init__(
        self,
        kernel: Kernel,
        image: "Image",
        *,
        pid: int,
        node: "Node",
        cpu: "Cpu",
        name: str = "a.out",
        argv: Optional[list[str]] = None,
        working_dir: str = "/home/user",
    ) -> None:
        self.kernel = kernel
        self.image = image
        self.pid = pid
        self.node = node
        self.cpu = cpu
        self.name = name
        self.argv = list(argv or [])
        self.working_dir = working_dir
        self.env: dict[str, str] = {}

        self.start_time = kernel.now
        self.exit_time: Optional[float] = None
        self.exited = False
        self.exit_event = kernel.event(name=f"proc{pid}.exit")

        self._state = ProcState.BLOCKED
        self._state_since = kernel.now
        self._cpu_user = 0.0
        self._cpu_system = 0.0

        self.stack: list[Frame] = []
        # symbol-resolution cache for the instrumented-call fast path;
        # invalidated whenever the image's symbol table changes (version
        # counter bumped by add_function/interpose/add_weak_alias)
        self._resolve_cache: dict[str, "FunctionDef"] = {}
        self._resolve_version = -1
        self.instr_vars: dict[int, Any] = {}
        #: instrumentation-runtime calls snippets reach through
        #: ``BuiltinCall`` (``MPI_Type_size`` etc.), registered by the mutator
        self.instr_builtins: dict[str, Callable] = {}
        # call hooks, callable(proc, frame): entry hooks run before the
        # entry snippets, exit hooks after the exit snippets
        self.entry_hooks: list[Callable[["SimProcess", Frame], None]] = []
        self.exit_hooks: list[Callable[["SimProcess", Frame], None]] = []
        # hooks run when the process exits (daemon bookkeeping).
        self.atexit_hooks: list[Callable[["SimProcess"], None]] = []
        # instrumentation perturbation: virtual seconds charged per executed
        # snippet (0.0 disables perturbation entirely).
        self.snippet_cost = 0.0
        self.snippets_executed = 0

    # -- CPU clocks ----------------------------------------------------------

    def _set_state(self, state: ProcState) -> None:
        # accrual inlined: this runs twice per compute/syscall, which in
        # message-heavy workloads means several times per simulated call
        now = self.kernel.now
        prev = self._state
        if prev is _USER:
            self._cpu_user += now - self._state_since
        elif prev is _SYSTEM:
            self._cpu_system += now - self._state_since
        self._state_since = now
        self._state = state

    @property
    def state(self) -> ProcState:
        return self._state

    def cpu_user_time(self) -> float:
        """User CPU seconds, interpolated to the current instant."""
        extra = self.kernel.now - self._state_since if self._state is ProcState.USER else 0.0
        return self._cpu_user + extra

    def cpu_system_time(self) -> float:
        """System CPU seconds, interpolated to the current instant."""
        extra = self.kernel.now - self._state_since if self._state is ProcState.SYSTEM else 0.0
        return self._cpu_system + extra

    def cpu_time(self) -> float:
        return self.cpu_user_time() + self.cpu_system_time()

    def wall_time(self) -> float:
        end = self.exit_time if self.exit_time is not None else self.kernel.now
        return end - self.start_time

    # -- effects used by simulated code ---------------------------------------

    def compute(self, seconds: float):
        """Burn ``seconds`` of user CPU time.

        Returns an iterable to drive with ``yield from`` at once: the burn
        starts when this is called.  When the kernel can run ahead
        (:meth:`Kernel.advance`), the clock and the CPU time move here and
        the result is an empty tuple -- ``yield from ()`` resumes the caller
        with no kernel round trip; otherwise it is a generator that yields
        one ``Delay``.  The zero-cost case returns an empty tuple too."""
        if seconds == 0.0:
            return ()
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        return self._burn(seconds, _USER)

    def syscall(self, seconds: float):
        """Burn ``seconds`` of *system* CPU time (invisible to user-CPU metrics)."""
        if seconds == 0.0:
            return ()
        if seconds < 0:
            raise ValueError(f"negative syscall time: {seconds}")
        return self._burn(seconds, _SYSTEM)

    def _burn(self, seconds: float, state: ProcState):
        # _set_state inlined: every compute/syscall and every snippet charge
        # passes through here.  The accrual arithmetic is identical on both
        # branches: the run-ahead adds ``kernel.now - now`` exactly as the
        # resumed generator adds ``kernel.now - self._state_since``.
        kernel = self.kernel
        now = kernel.now
        prev = self._state
        if prev is _USER:
            self._cpu_user += now - self._state_since
        elif prev is _SYSTEM:
            self._cpu_system += now - self._state_since
        if kernel.advance(seconds):
            if state is _USER:
                self._cpu_user += kernel.now - now
            else:
                self._cpu_system += kernel.now - now
            self._state_since = kernel.now
            self._state = _BLOCKED
            return ()
        self._state_since = now
        self._state = state
        return self._burn_delayed(seconds, state)

    def _burn_delayed(self, seconds: float, state: ProcState) -> Generator:
        yield Delay(seconds)
        now = self.kernel.now
        if state is _USER:
            self._cpu_user += now - self._state_since
        else:
            self._cpu_system += now - self._state_since
        self._state_since = now
        self._state = _BLOCKED

    def block(self, event) -> Generator:
        """Block (no CPU accrual) until ``event`` triggers; returns its value."""
        self._set_state(_BLOCKED)
        value = yield WaitEvent(event)
        return value

    def sleep(self, seconds: float) -> Generator:
        """Idle (blocked, no CPU) for ``seconds``."""
        if seconds < 0:
            raise ValueError(f"negative sleep: {seconds}")
        self._set_state(ProcState.BLOCKED)
        if seconds > 0.0:
            yield Delay(seconds)

    # -- the instrumented call boundary ---------------------------------------

    def call(self, name: str, *args: Any) -> Generator:
        """Call the function ``name`` in this process's image.

        Resolution honours weak symbols (an MPICH ``MPI_Send`` call executes
        ``PMPI_Send``); entry and exit instrumentation snippets attached to
        the resolved function run around the body.  ``body(proc, *args)``
        returns the generator to drive: its own or the one it delegates to.

        Not itself a generator: it resolves the symbol (through a
        per-process cache keyed on the image's symbol-table version) and
        returns :meth:`_call_function`'s generator, the only one between
        the caller and the body.
        """
        image = self.image
        if self._resolve_version != image.version:
            self._resolve_cache.clear()
            self._resolve_version = image.version
        fn = self._resolve_cache.get(name)
        if fn is None:
            fn = image.resolve(name)
            self._resolve_cache[name] = fn
        return self._call_function(fn, args)

    def _call_function(self, fn: "FunctionDef", args: tuple) -> Generator:
        # Each point's snippets run from the tuple of compiled closures the
        # image built at insert time, and their perturbation is charged in
        # this same generator.  The charge is ``snippet_cost`` added once
        # per snippet, so the float is what per-snippet accrual sums to.
        stack = self.stack
        frame = Frame(fn, args, self.kernel.now)
        stack.append(frame)
        for hook in self.entry_hooks:
            hook(self, frame)
        runs = fn.entry_runs
        if runs is not None:
            sc = self.snippet_cost
            cost = 0.0
            for run in runs:
                run(self, frame, True)
                cost += sc
            self.snippets_executed += len(runs)
            if cost > 0.0:
                yield from self._burn(cost, _USER)
        result: Any = None
        closed = False
        try:
            result = yield from fn.body(self, *args)
        except GeneratorExit:
            closed = True
            raise
        finally:
            # Exit snippets and hooks run even if the body raises, so
            # timers never dangle when simulated programs abort -- but not
            # when the garbage collector closes a call that never returned
            # (its task stranded by a deadlock or an ``until`` cut): that
            # call has no exit, and its run may be long over.  The exit
            # point is read now, so snippets inserted mid-call run.
            if not closed:
                frame.return_value = result
                runs = fn.exit_runs
                if runs is not None:
                    sc = self.snippet_cost
                    cost = 0.0
                    for run in runs:
                        run(self, frame, False)
                        cost += sc
                    self.snippets_executed += len(runs)
                    if cost > 0.0:
                        yield from self._burn(cost, _USER)
                for hook in self.exit_hooks:
                    hook(self, frame)
                stack.pop()
        return result

    def call_path(self) -> list[str]:
        return [frame.name for frame in self.stack]

    # -- lifecycle -------------------------------------------------------------

    def run_main(self, body: Generator) -> Generator:
        """Wrap a program's top-level generator with exit bookkeeping, which
        runs when the body returns or raises -- not when the garbage
        collector closes a program that never finished."""
        closed = False
        try:
            result = yield from body
        except GeneratorExit:
            closed = True
            raise
        finally:
            if not closed:
                self._set_state(ProcState.EXITED)
                self.exited = True
                self.exit_time = self.kernel.now
                for hook in list(self.atexit_hooks):
                    hook(self)
                self.exit_event.trigger(self)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimProcess pid={self.pid} {self.name!r} on {self.node.name}>"
