"""Tests for simulated processes: CPU clocks, calls, hooks."""

import pytest

from repro.dyninst.image import Image
from repro.dyninst.snippets import AddCounter, Const, CounterVar, Snippet
from repro.sim.kernel import Kernel
from repro.sim.node import Cluster
from repro.sim.process import ProcState, SimProcess


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
    proc.trace_hooks.append(lambda p, frame, kind: events.append((frame.name, kind)))

    def fn(p):
        yield from p.compute(0.1)

    proc.image.add_function("fn", fn, module="app.c")

    def body():
        yield from proc.call("fn")

    drive(kernel, body())
    assert events == [("fn", "entry"), ("fn", "exit")]


def test_run_main_sets_exit_state_and_fires_hooks():
    kernel, proc = make_proc()
    exited = []
    proc.exit_hooks.append(lambda p: exited.append(p.pid))

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
