"""Discrete-event simulation kernel.

The kernel owns a virtual clock and an event queue.  All other subsystems
(the cluster model, the simulated MPI library, the Paradyn-style tool) are
built on top of three primitives:

* :class:`Kernel` -- the event loop (``schedule`` / ``run``).
* :class:`SimEvent` -- a one-shot trigger that tasks can wait on.
* :class:`Task` -- a coroutine (generator) driven by the kernel.

Tasks are plain Python generators.  They communicate with the kernel by
yielding *effects*:

* ``Delay(dt)`` -- resume the task ``dt`` simulated seconds later.
* ``WaitEvent(ev)`` -- suspend until ``ev.trigger(value)`` fires; the
  triggered value becomes the result of the ``yield``.

Nested calls compose with ``yield from``, so user-level "programs" read like
ordinary sequential code.  The design deliberately mirrors process-based DES
frameworks (SimPy) so that simulated MPI programs stay legible.

Scheduling internals (the fast path; see DESIGN.md "kernel fast path"):

* Heap entries are plain ``(time, seq, call)`` tuples, so ordering is
  resolved by C-level tuple comparison -- no Python ``__lt__`` runs.
* A task's wakeup entry is the task itself: its ``Delay`` wakeup, its
  trigger wakeup and its first step fill in the task's ``time``, ``seq``
  and ``value`` slots and queue it, where :meth:`Kernel.schedule` would
  allocate a :class:`_ScheduledCall` around a bound method.  A suspended
  task waits on exactly one effect, so it has at most one entry pending,
  and seqs are consumed exactly as ``schedule`` consumes them.
* Zero-delay calls (event triggers, task spawns -- the majority of all
  scheduling in message-heavy workloads) bypass the heap through a FIFO
  deque.  Global execution order is still exactly (time, seq): a zero-delay
  call carries ``time == now`` and the largest seq issued so far, the heap
  never holds anything earlier than ``now``, and the run loop merges the
  two lanes by comparing (time, seq) across their heads.
* An event trigger queues each waiter as its own zero-lane entry, in the
  order the waiters registered, exactly as the reference kernel does.
* A task whose ``Delay(dt)`` wakeup would be the very next entry to run
  calls :meth:`Kernel.advance` instead: the clock moves, one seq and one
  event are consumed, and the task carries on inside the entry being
  dispatched, with no heap round trip.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Optional

from ..observe.recorder import active as _observe_active

__all__ = [
    "Delay",
    "WaitEvent",
    "SimEvent",
    "Task",
    "Kernel",
    "SimulationError",
    "DeadlockError",
]


#: the run-ahead bound outside run()
_NO_RUN_AHEAD = float("-inf")
_INF = float("inf")


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation kernel."""


class DeadlockError(SimulationError):
    """Raised when tasks remain but no event can ever fire again."""


class Delay:
    """Effect: resume the yielding task after ``dt`` simulated seconds."""

    __slots__ = ("dt",)

    def __init__(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative delay: {dt}")
        self.dt = dt


class WaitEvent:
    """Effect: suspend the yielding task until the event triggers."""

    __slots__ = ("event",)

    def __init__(self, event: "SimEvent") -> None:
        self.event = event


class SimEvent:
    """One-shot event with an optional payload value.

    Tasks wait on an event by yielding ``WaitEvent(event)``; the value passed
    to :meth:`trigger` is delivered as the result of the ``yield``.  Waiting
    on an already-triggered event resumes immediately with the stored value.
    """

    __slots__ = ("kernel", "name", "_value", "_triggered", "_waiters")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._value: Any = None
        self._triggered = False
        self._waiters: list[Task] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking every waiter at the current time."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        kernel = self.kernel
        # each waiter is its own zero-lane entry (Kernel._wake, inlined)
        now = kernel.now
        seq = kernel._seq
        append = kernel._zero.append
        for task in waiters:
            seq += 1
            task.time = now
            task.seq = seq
            task.value = value
            append(task)
        kernel._seq = seq

    def add_waiter(self, task: "Task") -> None:
        """Wait ``task`` on this event: a :class:`Task`, or any object with
        the same entry slots (``time``, ``seq``, ``value``, ``callback``)
        that has no other wakeup pending."""
        if self._triggered:
            self.kernel._wake(task, self._value)
        else:
            self._waiters.append(task)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class Task:
    """A generator coroutine driven by the kernel.

    The task finishes when its generator returns; the return value is stored
    on :attr:`result` and :attr:`done_event` is triggered with it.  Exceptions
    escaping the generator are re-raised out of :meth:`Kernel.run` wrapped in
    their original type, so test failures point at simulated program bugs.

    A task is its own wakeup entry: ``time``, ``seq``, ``value`` and
    ``callback`` (its ``_step``, bound once) are the slots the run loop
    reads off a queue entry.  A suspended task waits on exactly one effect,
    so it has at most one wakeup pending and one set of slots suffices.
    """

    __slots__ = ("kernel", "name", "_gen", "result", "done_event", "finished", "error",
                 "time", "seq", "value", "callback")

    def __init__(self, kernel: "Kernel", gen: Generator, name: str = "task") -> None:
        if not hasattr(gen, "send"):
            raise TypeError(f"task body for {name!r} must be a generator, got {type(gen).__name__}")
        self.kernel = kernel
        self.name = name
        self._gen = gen
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.finished = False
        self.done_event = SimEvent(kernel, name=f"{name}.done")
        self.callback = self._step

    def _step(self, value: Any = None) -> None:
        try:
            effect = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # propagate simulated-program bugs
            self.error = exc
            self.finished = True
            self.callback = None
            self.kernel._live_tasks -= 1
            raise
        cls = effect.__class__
        if cls is Delay:
            # Kernel.schedule(dt, self._step, None), with the task itself
            # as the entry: the same seq, the same time, the same lane
            kernel = self.kernel
            dt = effect.dt
            seq = kernel._seq + 1
            kernel._seq = seq
            self.seq = seq
            self.value = None
            if dt == 0.0:
                self.time = kernel.now
                kernel._zero.append(self)
            else:
                t = self.time = kernel.now + dt
                heapq.heappush(kernel._queue, (t, seq, self))
        elif cls is WaitEvent:
            effect.event.add_waiter(self)
        else:
            raise SimulationError(
                f"task {self.name!r} yielded unsupported effect {effect!r}; "
                "yield Delay(...) or WaitEvent(...)"
            )

    def _finish(self, value: Any) -> None:
        self.result = value
        self.finished = True
        # a finished task is never queued again: dropping its bound _step
        # breaks the self-reference, so reference counting frees it
        self.callback = None
        self.kernel._live_tasks -= 1
        self.done_event.trigger(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self.finished else "running"
        return f"<Task {self.name!r} {state}>"


class _NoValue:
    """Sentinel: the callback takes no argument."""

    __slots__ = ()


_NOVALUE = _NoValue()


class _ScheduledCall:
    """One pending callback.  Heap ordering lives in the surrounding
    ``(time, seq, call)`` tuple, not here, so no comparison methods run in
    the hot loop; the record itself is just a slotted attribute bundle."""

    __slots__ = ("time", "seq", "callback", "value")

    def __init__(self, time: float, seq: int, callback: Callable, value: Any = _NOVALUE) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<_ScheduledCall t={self.time} seq={self.seq}>"


class Kernel:
    """The event loop: a priority queue of timestamped callbacks.

    Determinism: ties in time are broken by insertion order (a monotonically
    increasing sequence number), so a run is fully reproducible.  The
    zero-delay FIFO lane preserves exactly that (time, seq) order -- see the
    module docstring.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: timed lane: a heap of (time, seq, entry) tuples, where an entry
        #: is a _ScheduledCall or a waking Task
        self._queue: list[tuple[float, int, Any]] = []
        #: zero-delay lane: FIFO of entries with time == now
        self._zero: deque[Any] = deque()
        self._seq = 0
        self._live_tasks = 0
        # run() state that advance() reads: the latest time a wakeup may be
        # dispatched at (run()'s ``until``, +inf without one; _NO_RUN_AHEAD
        # outside run()), the events counted so far, advances included, and
        # the cap on them
        self._horizon = _NO_RUN_AHEAD
        self._events = 0
        self._max_events = 0
        self._rec = None
        #: callables run (once each) just before :class:`DeadlockError` is
        #: raised, while the blocked tasks' state is still intact -- this is
        #: how correctness tools snapshot the wait-for graph.
        self.deadlock_hooks: list[Callable[[], None]] = []

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable, value: Any = _NOVALUE) -> None:
        """Schedule ``callback(value)`` -- or ``callback()`` when no value is
        given -- at ``now + delay``."""
        if delay == 0.0:
            seq = self._seq + 1
            self._seq = seq
            self._zero.append(_ScheduledCall(self.now, seq, callback, value))
            return
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        seq = self._seq + 1
        self._seq = seq
        call = _ScheduledCall(self.now + delay, seq, callback, value)
        heapq.heappush(self._queue, (call.time, seq, call))

    def live_tasks(self) -> int:
        """Tasks spawned and not yet finished, blocked ones included."""
        return self._live_tasks

    def queue_depth(self) -> int:
        """Pending entries across both lanes."""
        return len(self._queue) + len(self._zero)

    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name=name)

    def spawn(self, gen: Generator, name: str = "task") -> Task:
        """Create a task and schedule its first step at the current time."""
        task = Task(self, gen, name=name)
        self._live_tasks += 1
        self._wake(task, None)
        return task

    def _wake(self, task: Task, value: Any) -> None:
        """Queue ``task`` itself as a zero-delay entry run as
        ``task.callback(value)``: ``schedule(0.0, task.callback, value)``
        without the :class:`_ScheduledCall` (the same seq, the same lane)."""
        seq = self._seq + 1
        self._seq = seq
        task.time = self.now
        task.seq = seq
        task.value = value
        self._zero.append(task)

    # -- running ------------------------------------------------------------

    def advance(self, dt: float) -> bool:
        """Run the calling task ``dt`` ahead without a heap round trip.

        Acts only when the wakeup of a ``Delay(dt)`` yielded now would be
        the next entry run() dispatches: inside run(), the zero lane is
        empty (so no woken waiter is left to run first), the heap head is
        strictly later than ``now + dt``, and ``now + dt`` is within run()'s
        ``until``.  Then
        ``now`` becomes ``now + dt``, computed as :meth:`schedule` computes
        it, and one seq and one event are consumed, as scheduling and
        popping that wakeup would, so later seqs, the ``kernel.run`` event
        count and the ``max_events`` cap all come out the same.  Returns
        whether it acted; on ``False`` the caller yields ``Delay(dt)``.
        """
        if dt < 0:
            raise ValueError(f"negative delay: {dt}")
        t = self.now + dt
        if t > self._horizon or self._zero:
            return False
        queue = self._queue
        if queue and queue[0][0] <= t:
            return False
        events = self._events + 1
        if events > self._max_events:
            return False  # the wakeup the caller yields trips the cap
        self._events = events
        self._seq += 1
        self.now = t
        rec = self._rec
        if rec is not None and not (events & 8191):
            rec.counter("kernel.events", events, clock="sim", t=t)
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or ``until`` simulated seconds pass.

        Returns the final simulated time.  Raises :class:`DeadlockError` when
        live tasks remain but nothing is scheduled (a real deadlock in the
        simulated program, e.g. an unmatched blocking receive).
        """
        queue = self._queue
        zero = self._zero
        heappop = heapq.heappop
        popleft = zero.popleft
        novalue = _NOVALUE
        # Flight recorder: one identity check per dispatched event when
        # disabled; when enabled, counters are batched (every 8192 events)
        # so the hot loop stays tight.
        rec = _observe_active()
        run_start = rec.now() if rec is not None else 0.0
        horizon = _INF if until is None else until
        self._events = 0
        self._max_events = max_events
        self._rec = rec
        self._horizon = horizon
        try:
            while True:
                # pick the earlier lane head by (time, seq); zero-lane entries
                # always carry time == now, so they win unless a heap entry is
                # strictly earlier (impossible) or tied-in-time with smaller seq
                if zero:
                    head = zero[0]
                    if queue:
                        htime, hseq, _ = queue[0]
                        from_zero = head.time < htime or (head.time == htime and head.seq < hseq)
                    else:
                        from_zero = True
                    if not from_zero:
                        head = queue[0][2]
                elif queue:
                    head = queue[0][2]
                    from_zero = False
                else:
                    break
                if head.time > horizon:
                    self.now = until
                    if rec is not None and self._events:
                        rec.complete("kernel.run", rec.now() - run_start,
                                     events=self._events)
                    return until
                if from_zero:
                    popleft()
                else:
                    heappop(queue)
                self.now = head.time
                value = head.value
                if value is novalue:
                    head.callback()
                else:
                    head.callback(value)
                events = self._events + 1
                self._events = events
                if rec is not None and not (events & 8191):
                    rec.counter("kernel.events", events, clock="sim", t=self.now)
                if events > max_events:
                    raise SimulationError(f"exceeded max_events={max_events}; runaway simulation?")
        finally:
            self._horizon = _NO_RUN_AHEAD
        if rec is not None and self._events:
            rec.complete("kernel.run", rec.now() - run_start, events=self._events)
        if self._live_tasks > 0:
            blocked = self._live_tasks
            for hook in list(self.deadlock_hooks):
                hook()
            raise DeadlockError(
                f"simulation deadlock at t={self.now:.6f}: {blocked} task(s) "
                "blocked with an empty event queue"
            )
        return self.now
