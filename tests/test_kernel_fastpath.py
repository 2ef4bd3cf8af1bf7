"""The kernel fast path against the reference implementation.

The optimized :class:`~repro.sim.kernel.Kernel` (tuple heap entries,
zero-delay FIFO lane, cancellation compaction) must execute every workload
in exactly the same order, at exactly the same virtual times, as the seed
:class:`~repro.sim.reference.ReferenceKernel` (single heapq of
``@dataclass(order=True)`` entries).  A hypothesis property test drives
randomly generated mixed workloads -- timed schedules, zero delays,
cancellations, event trigger/wait churn, task spawns -- through both and
compares the full execution logs.

Also here: the cancelled-entry heap-compaction behavior (satellite of the
fast-path PR: mass cancellation must not leak queue memory), the run-ahead
(:meth:`Kernel.advance`, which the reference never takes) and the
run-to-run determinism of the ``BENCH_kernel.json`` scenario observables.
"""

from __future__ import annotations

import pathlib
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.impls.base import _RelayTask
from repro.observe.recorder import recording
from repro.sim.kernel import Delay, Kernel, SimulationError, WaitEvent
from repro.sim.reference import ReferenceKernel

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))


# -- the workload interpreter -------------------------------------------------
#
# A workload is a list of ops executed against either kernel through the
# same code, so any divergence is the kernel's doing.  Ops reference
# previously scheduled calls / created events by index (modulo the pool
# size), covering cancel-after-fire, double-cancel, trigger-with-waiters,
# wait-on-already-triggered, and zero-delay storms.

OP = st.one_of(
    st.tuples(st.just("sched"), st.floats(min_value=0.0, max_value=5.0,
                                          allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("sched0"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("event"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("trigger"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("spawn_waiter"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("spawn_sleeper"), st.floats(min_value=0.0, max_value=2.0,
                                                  allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("spawn_runner"), st.floats(min_value=0.0, max_value=2.0,
                                                 allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("relay"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("spawn_zero"), st.integers(min_value=1, max_value=3)),
)


def _relay(kernel, callback):
    """A waiter that is not a task: MPI_Waitany's relay on the fast kernel,
    a bare ``_step`` holder (the reference's waiter protocol) on the oracle."""
    if isinstance(kernel, Kernel):
        return _RelayTask(callback)
    return SimpleNamespace(_step=callback)


def _execute(kernel, ops):
    """Run one workload; return the execution log [(tag, time), ...]."""
    log = []
    calls = []
    events = []

    def fire(tag):
        def cb():
            log.append((tag, kernel.now))
            # first-generation firings schedule more work from inside a
            # callback; the tag offsets push children past 1000 so chains
            # terminate after one generation
            if tag < 1000:
                if tag % 5 == 0:
                    calls.append(kernel.schedule(0.25, fire(tag + 1000)))
                if tag % 7 == 0:
                    calls.append(kernel.schedule(0.0, fire(tag + 2000)))
        return cb

    def waiter(tag, event):
        value = yield WaitEvent(event)
        log.append((tag, kernel.now, value))
        if tag % 3 == 0:
            yield Delay(0.5)
            log.append((tag + 3000, kernel.now))

    def runner(tag, dt, event=None):
        # SimProcess.compute's pattern: run ahead, else round-trip a Delay
        if event is not None:
            yield WaitEvent(event)
        for _ in range(3):
            if not kernel.advance(dt):
                yield Delay(dt)
            log.append((tag, kernel.now))

    def relay_to(tag, event):
        event.add_waiter(_relay(kernel, lambda value: log.append((tag, kernel.now, value))))

    next_tag = 0
    for op in ops:
        kind, arg = op
        next_tag += 1
        if kind == "sched":
            calls.append(kernel.schedule(arg, fire(next_tag)))
        elif kind == "sched0":
            for _ in range(arg):
                next_tag += 1
                calls.append(kernel.schedule(0.0, fire(next_tag)))
        elif kind == "cancel":
            if calls:
                kernel.cancel(calls[arg % len(calls)])
        elif kind == "event":
            for _ in range(arg + 1):
                events.append(kernel.event(f"ev{len(events)}"))
        elif kind == "trigger":
            if events:
                ev = events[arg % len(events)]
                if not ev.triggered:
                    ev.trigger(next_tag)
        elif kind == "spawn_waiter":
            if events:
                kernel.spawn(waiter(next_tag, events[arg % len(events)]),
                             name=f"w{next_tag}")
        elif kind in ("mass_wait", "mass_run"):
            # a fresh event with ``arg`` tasks parked on it, triggered from
            # inside the run (before run() no waiter has registered yet):
            # with >= BATCH_MIN_WAITERS the fast kernel wakes them as one
            # batched cohort (one _BatchCall owning a contiguous seq block),
            # the reference one entry per waiter.  Waiters whose tag is
            # divisible by 3 Delay after waking, and runners try to run
            # ahead, so members leave the cohort mid-flight too.
            ev = kernel.event(f"mass{next_tag}")
            for i in range(arg):
                next_tag += 1
                if i == arg // 2:  # a relay among the cohort's members
                    relay_to(next_tag, ev)
                if kind == "mass_wait":
                    kernel.spawn(waiter(next_tag, ev), name=f"mw{next_tag}")
                else:
                    kernel.spawn(runner(next_tag, (next_tag % 4) * 0.25, ev),
                                 name=f"mr{next_tag}")
            kernel.schedule(0.5, lambda ev=ev, tag=next_tag: ev.trigger(tag))
        elif kind == "spawn_sleeper":
            def sleeper(tag=next_tag, dt=arg):
                yield Delay(dt)
                log.append((tag, kernel.now))
            kernel.spawn(sleeper(), name=f"s{next_tag}")
        elif kind == "spawn_runner":
            kernel.spawn(runner(next_tag, arg), name=f"r{next_tag}")
        elif kind == "relay":
            # on a triggered event the relay is queued at once
            if events:
                relay_to(next_tag, events[arg % len(events)])
        elif kind == "spawn_zero":
            def yielder(tag=next_tag, n=arg):
                for _ in range(n):
                    yield Delay(0.0)
                    log.append((tag, kernel.now))
            kernel.spawn(yielder(), name=f"z{next_tag}")
    # trigger any leftover events so waiters cannot deadlock
    for ev in events:
        if not ev.triggered:
            ev.trigger(-1)
    kernel.run()
    return log, kernel.now


@settings(max_examples=120, deadline=None)
@given(st.lists(OP, min_size=0, max_size=40))
def test_mixed_workloads_match_reference(ops):
    fast_log, fast_now = _execute(Kernel(), ops)
    ref_log, ref_now = _execute(ReferenceKernel(), ops)
    assert fast_log == ref_log
    assert fast_now == ref_now


# -- batched event cohorts ----------------------------------------------------
#
# Triggering an event with >= BATCH_MIN_WAITERS (8) waiters wakes them as one
# batched cohort step instead of one queue entry each.  The property test
# mixes mass waits into the general op soup; cohorts interact with timed
# entries, zero-delay storms, cancellations, and members that block again
# mid-cohort (Delay after wake), and the log must still match the reference
# entry-per-waiter kernel exactly.

COHORT_OP = st.one_of(
    OP,
    st.tuples(st.just("mass_wait"), st.integers(min_value=8, max_value=32)),
    st.tuples(st.just("mass_run"), st.integers(min_value=4, max_value=20)),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(COHORT_OP, min_size=1, max_size=30))
def test_cohort_workloads_match_reference(ops):
    fast_log, fast_now = _execute(Kernel(), ops)
    ref_log, ref_now = _execute(ReferenceKernel(), ops)
    assert fast_log == ref_log
    assert fast_now == ref_now


def test_large_cohort_matches_reference():
    """Directed case at bench scale: a thousand waiters on one event, woken
    by a single trigger, with every third member re-blocking mid-cohort."""
    ops = [
        ("sched", 1.0),
        ("mass_wait", 1000),
        ("sched0", 4),
        ("sched", 0.25),
    ]
    fast_log, fast_now = _execute(Kernel(), ops)
    ref_log, ref_now = _execute(ReferenceKernel(), ops)
    assert len(fast_log) > 1000
    assert fast_log == ref_log
    assert fast_now == ref_now


def test_zero_delay_storm_matches_reference():
    """Directed case: interleaved zero-delay and equal-time timed entries,
    where the FIFO-lane/heap merge must get (time, seq) order exactly right."""
    ops = [
        ("sched", 1.0), ("sched0", 4), ("sched", 0.0), ("sched", 1.0),
        ("sched0", 4), ("event", 2), ("spawn_waiter", 0), ("trigger", 0),
        ("sched0", 3), ("sched", 0.5), ("spawn_waiter", 1), ("trigger", 1),
    ]
    fast_log, fast_now = _execute(Kernel(), ops)
    ref_log, ref_now = _execute(ReferenceKernel(), ops)
    assert fast_log == ref_log
    assert fast_now == ref_now


# -- a task is its own wakeup entry ------------------------------------------
#
# A suspended task waits on exactly one effect, so the kernel queues the task
# itself (its time, seq and value slots filled in) instead of a
# _ScheduledCall around a bound method; seqs are consumed as schedule()
# consumes them.


def test_task_wakeups_queue_the_task_itself():
    kernel = Kernel()
    ev = kernel.event("ev")
    seen = []

    def body():
        seen.append((yield Delay(0.0)))
        yield Delay(1.5)
        seen.append((yield WaitEvent(ev)))
        seen.append((yield WaitEvent(ev)))  # already triggered

    def peek():
        seen.append((list(kernel._zero), task.time, task.seq))

    def fire():
        ev.trigger("v")  # the trigger's wakeup is the task, with the value
        seen.append((list(kernel._zero), task.time, task.seq, task.value))

    task = kernel.spawn(body(), name="t")
    assert list(kernel._zero) == [task] and (task.seq, task.value) == (1, None)
    kernel.schedule(0.0, peek)  # seq 2: runs after the task's first step
    kernel.schedule(2.0, fire)  # seq 3
    kernel.run(until=1.0)
    # the Delay(0.0) wakeup is the task, in the zero lane, at seq 4
    assert seen == [([task], 0.0, 4), None]
    assert len(kernel._queue) == 2 and kernel._queue[0] == (1.5, 5, task)
    kernel.run()
    assert seen[2:] == [([task], 2.0, 6, "v"), "v", "v"]
    assert kernel._seq == 7 and task.finished


def test_relay_waiter_is_its_own_entry_too():
    kernel = Kernel()
    ev = kernel.event("ev")
    got = []
    relay = _RelayTask(got.append)
    ev.add_waiter(relay)
    ev.trigger(7)
    assert list(kernel._zero) == [relay] and relay.value == 7
    kernel.run()
    assert got == [7]


# -- run-ahead -----------------------------------------------------------------
#
# Kernel.advance(dt) moves the clock inside the entry being dispatched when a
# Delay(dt) wakeup would be the next entry run anyway.  The ops above check it
# against the reference (whose advance always declines); these pin each
# condition under which it must decline, and the event accounting.


def _advance_from_task(kernel, dt, *, until=None):
    """Run one task that tries ``advance(dt)`` once; (result, now after)."""
    seen = []

    def task():
        seen.append((kernel.advance(dt), kernel.now))
        yield from ()

    kernel.spawn(task())
    kernel.run(until=until)
    return seen[0]


def test_advance_declines_outside_run():
    kernel = Kernel()
    kernel.schedule(5.0, lambda: None)
    assert kernel.advance(1.0) is False
    assert kernel.now == 0.0 and kernel._seq == 1
    kernel.run()
    assert kernel.advance(1.0) is False and kernel.now == 5.0


def test_advance_declines_inside_a_cohort_with_members_left():
    kernel = Kernel()
    go = kernel.event("go")
    results = []

    def member():
        yield WaitEvent(go)
        results.append(kernel.advance(1.0))

    for _ in range(8):  # BATCH_MIN_WAITERS: one batched cohort
        kernel.spawn(member())
    kernel.schedule(0.5, lambda: go.trigger())
    kernel.run()
    # only the last member has no member left behind it
    assert results == [False] * 7 + [True]
    assert kernel.now == 1.5


def test_advance_declines_past_until():
    assert _advance_from_task(Kernel(), 2.0, until=1.0) == (False, 0.0)
    # a wakeup exactly at ``until`` would still be dispatched
    assert _advance_from_task(Kernel(), 1.0, until=1.0) == (True, 1.0)


def test_advance_declines_when_a_heap_entry_has_the_same_time():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)  # earlier seq: runs before the wakeup
    assert _advance_from_task(kernel, 1.0) == (False, 0.0)
    kernel = Kernel()
    kernel.schedule(9.0, lambda: None)
    kernel.schedule(9.0, lambda: None)  # live majority: no compaction
    kernel.cancel(kernel.schedule(1.0, lambda: None))  # cancelled or not
    assert _advance_from_task(kernel, 1.0) == (False, 0.0)
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    assert _advance_from_task(kernel, 0.5) == (True, 0.5)


def _spin(kernel, steps, dt=1.0):
    for _ in range(steps):  # bounded: a broken guard fails, never hangs
        if not kernel.advance(dt):
            yield Delay(dt)


def test_kernel_run_span_counts_advances():
    spans = {}
    for name, make in (("fast", Kernel), ("reference", ReferenceKernel)):
        kernel = make()
        with recording(capacity=64) as rec:
            kernel.spawn(_spin(kernel, 50))
            kernel.run()
        spans[name] = [e["args"]["events"] for e in rec.events()
                       if e["name"] == "kernel.run"]
        assert kernel.now == 50.0
    # the reference emits no span; its count is one step plus 50 wakeups
    assert spans == {"fast": [51], "reference": []}


def test_spinning_on_advance_still_hits_max_events():
    stops = []
    for make in (Kernel, ReferenceKernel):
        kernel = make()
        kernel.spawn(_spin(kernel, 10_000))
        with pytest.raises(SimulationError, match="max_events=100"):
            kernel.run(max_events=100)
        stops.append((kernel.now, kernel._seq))
    assert stops[0] == stops[1] == (100.0, 102)


# -- cancellation compaction --------------------------------------------------


def test_mass_cancellation_compacts_heap():
    """Cancelling most of the queue must shrink it (the seed leaked dead
    entries until their pop time arrived)."""
    kernel = Kernel()
    calls = [kernel.schedule(float(i + 1), lambda: None) for i in range(1000)]
    assert kernel.queue_depth() == 1000
    for call in calls[:900]:
        kernel.cancel(call)
    # compaction triggers once cancelled entries outnumber live ones
    assert kernel.queue_depth() < 200
    assert kernel.queue_depth() >= 100  # live entries survive


def test_cancelled_calls_never_fire():
    kernel = Kernel()
    fired = []
    keep = kernel.schedule(1.0, lambda: fired.append("keep"))
    for i in range(50):
        kernel.cancel(kernel.schedule(2.0, lambda i=i: fired.append(i)))
    zero = kernel.schedule(0.0, lambda: fired.append("zero"))
    kernel.cancel(zero)
    kernel.run()
    assert fired == ["keep"]
    assert keep.time == 1.0


def test_cancel_is_idempotent_and_order_preserving():
    kernel = Kernel()
    log = []
    a = kernel.schedule(1.0, lambda: log.append("a"))
    b = kernel.schedule(2.0, lambda: log.append("b"))
    c = kernel.schedule(3.0, lambda: log.append("c"))
    kernel.cancel(b)
    kernel.cancel(b)  # double-cancel must not corrupt the count
    kernel.run()
    assert log == ["a", "c"]
    assert kernel.queue_depth() == 0
    assert (a.cancelled, b.cancelled, c.cancelled) == (False, True, False)


# -- BENCH_kernel.json determinism -------------------------------------------


def test_bench_scenarios_deterministic_across_runs():
    """The deterministic observables of every bench scenario (events,
    virtual time, order checksum) must be identical run to run and across
    both kernels -- this is the regression test that keeps BENCH_kernel.json
    artifacts comparable PR over PR."""
    import bench_kernel_throughput as bench

    sizes = {
        "timer_churn": {"timers": 40, "fires": 10},
        "timer_churn_traced": {"timers": 40, "fires": 10},
        "zero_delay_pingpong": {"rounds": 300},
        "calls_uninstrumented": {"calls": 200},
        "calls_instrumented": {"calls": 200},
        "sampling_on": {"samples": 200},
        "sampling_off": {"samples": 200},
        "sampling_batched": {"ranks": 4, "rounds": 12},
    }
    for name, fn in bench.SCENARIOS.items():
        kwargs = sizes[name]
        runs = [fn(Kernel, **kwargs) for _ in range(2)]
        runs.append(fn(ReferenceKernel, **kwargs))
        assert runs[0] == runs[1] == runs[2], f"scenario {name!r} not deterministic"
        events, vtime, checksum = runs[0]
        assert events > 0 and vtime > 0.0 and checksum != 0
        if name == "sampling_batched":
            # the daemon's sampling output, pinned on both kernels: the
            # checksum covers every per-process histogram bin
            assert runs[0] == (36, 0.03, 1146610855546937857)


def test_bench_summary_has_required_schema_fields():
    import bench_kernel_throughput as bench

    sizes = {
        "timer_churn": {"timers": 20, "fires": 5},
        "timer_churn_traced": {"timers": 20, "fires": 5},
        "zero_delay_pingpong": {"rounds": 50},
        "calls_uninstrumented": {"calls": 50},
        "calls_instrumented": {"calls": 50},
        "sampling_on": {"samples": 50},
        "sampling_off": {"samples": 50},
        "sampling_batched": {"ranks": 2, "rounds": 6},
    }
    summary = bench.run_scenarios(sizes)
    assert summary["schema"] == 1
    assert summary["calibration_events_per_sec"] > 0
    assert set(summary["scenarios"]) == set(bench.SCENARIOS)
    for entry in summary["scenarios"].values():
        for side in ("before", "after"):
            assert {"events", "virtual_time", "checksum", "wall",
                    "events_per_sec"} <= set(entry[side])
        assert entry["speedup"] is not None
        assert entry["normalized"] is not None
