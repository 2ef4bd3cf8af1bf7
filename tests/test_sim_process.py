"""Tests for simulated processes: CPU clocks, calls, hooks."""

import gc
import sys

import pytest

from repro.core import Paradyn
from repro.dyninst.image import Image
from repro.dyninst.snippets import AddCounter, Const, CounterVar, Snippet
from repro.sanitizer.core import Sanitizer
from repro.sim.kernel import DeadlockError, Kernel
from repro.sim.node import Cluster
from repro.sim.process import Frame, ProcState, SimProcess

from conftest import ScriptProgram, make_universe


def make_proc(kernel=None, image=None):
    kernel = kernel or Kernel()
    cluster = Cluster(num_nodes=1, cpus_per_node=1)
    node = cluster.nodes[0]
    image = image or Image()
    return kernel, SimProcess(
        kernel, image, pid=cluster.allocate_pid(), node=node, cpu=node.cpus[0]
    )


def drive(kernel, gen):
    task = kernel.spawn(gen)
    kernel.run()
    return task


def test_compute_accrues_user_cpu():
    kernel, proc = make_proc()

    def body():
        yield from proc.compute(2.0)
        yield from proc.syscall(1.0)
        yield from proc.sleep(3.0)

    drive(kernel, body())
    assert proc.cpu_user_time() == pytest.approx(2.0)
    assert proc.cpu_system_time() == pytest.approx(1.0)
    assert kernel.now == pytest.approx(6.0)


def test_cpu_clock_interpolates_mid_compute():
    kernel, proc = make_proc()
    samples = []

    def body():
        yield from proc.compute(4.0)

    kernel.spawn(body())
    kernel.schedule(1.0, lambda: samples.append(proc.cpu_user_time()))
    kernel.schedule(3.0, lambda: samples.append(proc.cpu_user_time()))
    kernel.run()
    assert samples[0] == pytest.approx(1.0)
    assert samples[1] == pytest.approx(3.0)


def test_negative_times_rejected():
    kernel, proc = make_proc()
    for method in (proc.compute, proc.syscall, proc.sleep):
        with pytest.raises(ValueError):
            list(method(-1.0))


def test_call_resolves_and_tracks_stack():
    kernel, proc = make_proc()
    depths = []

    def leaf(p):
        depths.append(list(p.call_path()))
        yield from p.compute(0.1)

    def caller(p):
        yield from p.call("leaf")

    proc.image.add_function("leaf", leaf, module="app.c")
    proc.image.add_function("caller", caller, module="app.c")

    def body():
        yield from proc.call("caller")

    drive(kernel, body())
    assert depths == [["caller", "leaf"]]
    assert proc.call_path() == []


def test_entry_and_exit_snippets_execute():
    kernel, proc = make_proc()
    counter_in = CounterVar("in")
    counter_out = CounterVar("out")

    def fn(p):
        yield from p.compute(0.1)

    fdef = proc.image.add_function("fn", fn, module="app.c")
    fdef.insert(Snippet([AddCounter(counter_in, Const(1))]), where="entry")
    fdef.insert(Snippet([AddCounter(counter_out, Const(1))]), where="return")

    def body():
        for _ in range(3):
            yield from proc.call("fn")

    drive(kernel, body())
    assert counter_in.value == 3
    assert counter_out.value == 3


def test_snippet_cost_perturbs_cpu():
    kernel, proc = make_proc()
    proc.snippet_cost = 0.01
    counter = CounterVar("c")

    def fn(p):
        yield from p.compute(0.0)

    fdef = proc.image.add_function("fn", fn, module="app.c")
    fdef.insert(Snippet([AddCounter(counter, Const(1))]), where="entry")

    def body():
        for _ in range(5):
            yield from proc.call("fn")

    drive(kernel, body())
    assert proc.snippets_executed == 5
    assert proc.cpu_user_time() == pytest.approx(0.05)


def test_exit_snippets_run_even_when_body_raises():
    kernel, proc = make_proc()
    counter = CounterVar("c")

    def fn(p):
        raise RuntimeError("body failed")
        yield  # pragma: no cover

    fdef = proc.image.add_function("fn", fn, module="app.c")
    fdef.insert(Snippet([AddCounter(counter, Const(1))]), where="return")

    def body():
        yield from proc.call("fn")

    kernel.spawn(body())
    with pytest.raises(RuntimeError, match="body failed"):
        kernel.run()
    assert counter.value == 1


def test_trace_hooks_fire_entry_and_exit():
    kernel, proc = make_proc()
    events = []
    proc.entry_hooks.append(lambda p, frame: events.append((frame.name, "entry")))
    proc.exit_hooks.append(lambda p, frame: events.append((frame.name, "exit")))

    def fn(p):
        yield from p.compute(0.1)

    proc.image.add_function("fn", fn, module="app.c")

    def body():
        yield from proc.call("fn")

    drive(kernel, body())
    assert events == [("fn", "entry"), ("fn", "exit")]


def test_hooks_bracket_the_snippets_and_find_the_caller_below():
    """Entry hooks run before the entry snippets and exit hooks after the
    exit snippets; the hooked frame is on top of the stack, its caller
    just below it."""
    kernel, proc = make_proc()
    counter = CounterVar("c")
    seen = []

    def record(event):
        def hook(p, frame):
            below = p.stack[-2].name if len(p.stack) > 1 else None
            seen.append((event, frame.name, p.stack[-1] is frame, below, counter.value))
        return hook

    proc.entry_hooks.append(record("entry"))
    proc.exit_hooks.append(record("exit"))

    def inner(p):
        yield from p.compute(0.1)

    def outer(p):
        yield from p.call("inner")

    proc.image.add_function("outer", outer, module="app.c")
    fdef = proc.image.add_function("inner", inner, module="app.c")
    fdef.insert(Snippet([AddCounter(counter, Const(1))]), where="entry")
    fdef.insert(Snippet([AddCounter(counter, Const(10))]), where="return")

    drive(kernel, proc.call("outer"))
    assert seen == [
        ("entry", "outer", True, None, 0),
        ("entry", "inner", True, "outer", 0),
        ("exit", "inner", True, "outer", 11),
        ("exit", "outer", True, None, 11),
    ]


def test_frame_has_no_caller_slot():
    assert "caller" not in Frame.__slots__
    _, proc = make_proc()
    fdef = proc.image.add_function("fn", lambda p: iter(()), module="app.c")
    assert not hasattr(Frame(fdef), "caller")


def test_run_main_sets_exit_state_and_fires_hooks():
    kernel, proc = make_proc()
    exited = []
    proc.atexit_hooks.append(lambda p: exited.append(p.pid))

    def main():
        yield from proc.compute(1.0)
        return "ok"

    task = kernel.spawn(proc.run_main(main()))
    kernel.run()
    assert task.result == "ok"
    assert proc.exited
    assert proc.state is ProcState.EXITED
    assert proc.exit_time == pytest.approx(1.0)
    assert exited == [proc.pid]
    assert proc.wall_time() == pytest.approx(1.0)


def test_exit_snippet_inserted_mid_call_runs_at_that_exit():
    kernel, proc = make_proc()
    counter = CounterVar("late")

    def fn(p):
        yield from p.compute(1.0)

    fdef = proc.image.add_function("fn", fn, module="app.c")
    # inserted while fn is live: the exit point is read at exit time
    kernel.schedule(0.5, lambda: fdef.insert(
        Snippet([AddCounter(counter, Const(1))]), where="return"))

    def body():
        yield from proc.call("fn")

    drive(kernel, body())
    assert counter.value == 1
    assert proc.snippets_executed == 1


def test_snippet_cost_change_after_insert_charges_the_new_cost():
    kernel, proc = make_proc()
    proc.snippet_cost = 0.01

    def fn(p):
        yield from p.compute(0.0)

    fdef = proc.image.add_function("fn", fn, module="app.c")
    fdef.insert(Snippet([AddCounter(CounterVar("c"), Const(1))]), where="entry")
    charged = []

    def body():
        yield from proc.call("fn")
        charged.append(proc.cpu_user_time())
        proc.snippet_cost = 0.03
        yield from proc.call("fn")
        charged.append(proc.cpu_user_time())

    drive(kernel, body())
    assert charged == [0.01, 0.01 + 0.03]


def _burns(make_kernel, blocker):
    """CPU clocks and end time of a compute/syscall mix, with an optional
    competing timer inside the first burn; and the run-ahead decisions."""
    kernel, proc = make_proc(make_kernel())
    decisions = []
    real_advance = kernel.advance

    def advance(dt):
        decisions.append(real_advance(dt))
        return decisions[-1]

    kernel.advance = advance

    def body():
        yield from proc.compute(0.1)
        yield from proc.syscall(0.2)
        yield from proc.compute(0.7)
        yield from proc.syscall(0.3)

    if blocker is not None:
        kernel.schedule(blocker, lambda: None)
    drive(kernel, body())
    return (proc.cpu_user_time(), proc.cpu_system_time(), kernel.now), decisions


def test_compute_and_syscall_exact_with_and_without_run_ahead():
    from repro.sim.reference import ReferenceKernel

    free, ran = _burns(Kernel, None)
    blocked, ran_blocked = _burns(Kernel, 0.05)
    oracle, ran_oracle = _burns(ReferenceKernel, None)
    assert ran == [True] * 4
    assert ran_blocked == [False, True, True, True]
    assert ran_oracle == [False] * 4
    # bit-identical, not approximately equal
    assert free == blocked == oracle
    assert free == pytest.approx((0.8, 0.5, 1.3))


# -- calls the garbage collector closes -----------------------------------------
#
# Two ranks that each recv from the other never return from MPI_Recv.  Once
# the run is over and the universe is dropped, the garbage collector closes
# the stranded generators; such a call has no exit, so no exit work runs.


def _mutual_recv(mpi):
    yield from mpi.init()
    yield from mpi.recv(1 - mpi.rank)
    yield from mpi.finalize()


def test_gc_closing_a_stranded_call_under_paradyn_raises_nothing(monkeypatch):
    def run_cut():
        universe = make_universe("lam")
        tool = Paradyn(universe)
        tool.enable("sync_wait")
        universe.launch(ScriptProgram(_mutual_recv), 2)
        with pytest.raises(DeadlockError):
            universe.run(until=5.0)

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    run_cut()
    gc.collect()
    # an exit charge yielded inside the close would raise "generator
    # ignored GeneratorExit" once per stranded rank
    assert [repr(u.exc_value) for u in unraisable] == []


def test_gc_closing_a_stranded_call_fires_no_exit_hook():
    exits = []

    def run_deadlocked():
        universe = make_universe("lam")
        Sanitizer(universe).attach()
        universe.process_hooks.append(
            lambda proc, ep, world: proc.exit_hooks.append(
                lambda p, frame: exits.append(frame.name)))
        universe.launch(ScriptProgram(_mutual_recv), 2)
        with pytest.raises(DeadlockError):
            universe.run()

    gc.collect()
    run_deadlocked()
    during_run = len(exits)
    assert during_run > 0
    gc.collect()
    assert len(exits) == during_run
