"""Reference event loop: the pre-fast-path kernel, kept verbatim.

This is the seed implementation of :class:`~repro.sim.kernel.Kernel`
(``@dataclass(order=True)`` heap entries, a single heapq lane, one
``schedule`` per woken waiter), preserved for two jobs:

* **property tests** -- ``tests/test_kernel_fastpath.py`` drives random
  mixed workloads (schedule / zero-delay / SimEvent churn / mass wakeups)
  through both kernels and asserts identical execution order and identical
  virtual times, which is the determinism argument for the fast path;
* **perf baseline** -- ``benchmarks/bench_kernel_throughput.py`` times the
  same scenarios on both kernels, so ``BENCH_kernel.json`` carries real
  before/after events-per-second numbers and a machine-independent speedup
  ratio for the CI perf-smoke gate.

It intentionally duplicates the effect/event/task classes' *protocol* from
``kernel.py`` rather than importing the optimized ones, so a regression in
the fast path cannot silently leak into the baseline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from .kernel import DeadlockError, Delay, SimulationError, WaitEvent

__all__ = ["ReferenceKernel", "ReferenceEvent", "ReferenceTask"]


class ReferenceEvent:
    """One-shot event (reference semantics, mirrors SimEvent)."""

    __slots__ = ("kernel", "name", "_value", "_triggered", "_waiters")

    def __init__(self, kernel: "ReferenceKernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._value: Any = None
        self._triggered = False
        self._waiters: list["ReferenceTask"] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for task in waiters:
            self.kernel.schedule(0.0, task._step, value)

    def add_waiter(self, task: "ReferenceTask") -> None:
        if self._triggered:
            self.kernel.schedule(0.0, task._step, self._value)
        else:
            self._waiters.append(task)


class ReferenceTask:
    """Generator coroutine driven by the reference kernel."""

    __slots__ = ("kernel", "name", "_gen", "result", "done_event", "finished", "error")

    def __init__(self, kernel: "ReferenceKernel", gen: Generator, name: str = "task") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"task body for {name!r} must be a generator, got {type(gen).__name__}")
        self.kernel = kernel
        self.name = name
        self._gen = gen
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.finished = False
        self.done_event = ReferenceEvent(kernel, name=f"{name}.done")

    def _step(self, value: Any = None) -> None:
        try:
            effect = self._gen.send(value)
        except StopIteration as stop:
            self.result = stop.value
            self.finished = True
            self.kernel._live_tasks -= 1
            self.done_event.trigger(stop.value)
            return
        except BaseException:
            self.finished = True
            self.kernel._live_tasks -= 1
            raise
        if isinstance(effect, Delay):
            self.kernel.schedule(effect.dt, self._step, None)
        elif isinstance(effect, WaitEvent):
            effect.event.add_waiter(self)
        else:
            raise SimulationError(
                f"task {self.name!r} yielded unsupported effect {effect!r}"
            )


class _NoValue:
    __slots__ = ()


_NOVALUE = _NoValue()


@dataclass(order=True)
class _ScheduledCall:
    time: float
    seq: int
    callback: Callable = field(compare=False)
    value: Any = field(compare=False, default=_NOVALUE)
    cancelled: bool = field(compare=False, default=False)


class ReferenceKernel:
    """The seed event loop: one heap, dataclass entries, linear pop."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[_ScheduledCall] = []
        self._seq = 0
        self._live_tasks = 0
        self.deadlock_hooks: list[Callable[[], None]] = []

    def schedule(self, delay: float, callback: Callable, value: Any = _NOVALUE) -> _ScheduledCall:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._seq += 1
        call = _ScheduledCall(self.now + delay, self._seq, callback, value)
        heapq.heappush(self._queue, call)
        return call

    def live_tasks(self) -> int:
        return self._live_tasks

    def queue_depth(self) -> int:
        return len(self._queue)

    def advance(self, dt: float) -> bool:
        """Never runs ahead: every delay here is a heap round trip, which
        is what the fast kernel's run-ahead is checked against."""
        return False

    def event(self, name: str = "") -> ReferenceEvent:
        return ReferenceEvent(self, name=name)

    def spawn(self, gen: Generator, name: str = "task") -> ReferenceTask:
        task = ReferenceTask(self, gen, name=name)
        self._live_tasks += 1
        self.schedule(0.0, task._step, None)
        return task

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        events = 0
        while self._queue:
            call = self._queue[0]
            if until is not None and call.time > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            if call.cancelled:
                continue
            self.now = call.time
            if call.value is _NOVALUE:
                call.callback()
            else:
                call.callback(call.value)
            events += 1
            if events > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if self._live_tasks > 0:
            for hook in list(self.deadlock_hooks):
                hook()
            raise DeadlockError(
                f"simulation deadlock at t={self.now:.6f}: {self._live_tasks} task(s) "
                "blocked with an empty event queue"
            )
        return self.now
