"""Performance Consultant behaviour on synthetic workloads."""

import pytest

from repro.core import Paradyn
from repro.core.consultant import NodeState, PerformanceConsultant
from repro.sim.process import SimProcess

from conftest import ScriptProgram, make_universe


def run_pc(script, nprocs=2, impl="lam", *, functions=None, thresholds=None,
           window=0.5, **tool_kw):
    universe = make_universe(impl)
    tool = Paradyn(universe, pc_thresholds=thresholds,
                   pc_experiment_window=window, **tool_kw)
    tool.run_consultant()
    universe.launch(ScriptProgram(script, functions=functions), nprocs)
    universe.run()
    return tool.consultant


def spin(mpi, proc, seconds):
    yield from mpi.compute(seconds)


def test_cpu_bound_program_found_and_drilled():
    def script(mpi):
        yield from mpi.init()
        for _ in range(60):
            yield from mpi.call("hot_loop", 0.1)
        yield from mpi.finalize()

    pc = run_pc(script, 2, functions={"hot_loop": spin})
    assert pc.found("CPUBound")
    assert pc.found("CPUBound", "hot_loop")
    assert not pc.found("ExcessiveSyncWaitingTime")
    assert not pc.found("ExcessiveIOBlockingTime")


def test_sync_bound_program_found():
    def script(mpi):
        yield from mpi.init()
        for i in range(40):
            if mpi.rank == 0:
                yield from mpi.compute(0.1)
            yield from mpi.barrier()
        yield from mpi.finalize()

    pc = run_pc(script, 3)
    assert pc.found("ExcessiveSyncWaitingTime")
    assert pc.found("ExcessiveSyncWaitingTime", "Barrier")


def test_idle_program_tests_false():
    def script(mpi):
        yield from mpi.init()
        yield from mpi.proc.sleep(6.0)  # blocked outside MPI entirely
        yield from mpi.finalize()

    pc = run_pc(script, 2)
    assert pc.true_nodes() == []


def test_thresholds_control_detection():
    """A ~25% CPU load is invisible at threshold 0.3, found at 0.2 --
    the diffuse-procedure knob of Section 5.1.7."""

    def script(mpi):
        yield from mpi.init()
        for _ in range(100):
            yield from mpi.call("quarter_load", 0.025)
            yield from mpi.proc.sleep(0.075)
        yield from mpi.finalize()

    pc_default = run_pc(script, 2, functions={"quarter_load": spin})
    assert not pc_default.found("CPUBound")
    pc_low = run_pc(
        script, 2, functions={"quarter_load": spin},
        thresholds={"PC_CPUThreshold": 0.2},
    )
    assert pc_low.found("CPUBound")


def test_decided_nodes_release_instrumentation():
    def script(mpi):
        yield from mpi.init()
        for _ in range(50):
            yield from mpi.call("hot_loop", 0.1)
        yield from mpi.finalize()

    universe = make_universe()
    tool = Paradyn(universe, pc_experiment_window=0.5)
    tool.run_consultant()
    universe.launch(ScriptProgram(script, functions={"hot_loop": spin}), 2)
    universe.run()
    active_pairs = [d for d in tool.frontend.enabled.values() if d.active]
    assert active_pairs == []  # everything decided and torn down


def test_unfinished_experiments_marked_unknown():
    def script(mpi):
        yield from mpi.init()
        yield from mpi.compute(0.4)  # ends before one full window
        yield from mpi.finalize()

    pc = run_pc(script, 2, window=5.0)
    states = {c.state for c in pc.root.children}
    assert states <= {NodeState.UNKNOWN, NodeState.FALSE}


def test_render_condensed_shows_only_true_nodes():
    def script(mpi):
        yield from mpi.init()
        for _ in range(60):
            yield from mpi.call("hot_loop", 0.1)
        yield from mpi.finalize()

    pc = run_pc(script, 2, functions={"hot_loop": spin})
    text = pc.render_condensed()
    assert "CPUBound" in text
    assert "hot_loop" in text
    assert "ExcessiveIOBlockingTime" not in text


def _outer(mpi, proc):
    yield from mpi.call("inner")


def _inner(mpi, proc):
    yield from mpi.compute(0.01)


def _nested_script(mpi):
    yield from mpi.init()
    for _ in range(10):
        yield from mpi.call("outer")
    yield from mpi.finalize()


def test_callgraph_observed():
    pc = run_pc(_nested_script, 1, functions={"outer": _outer, "inner": _inner})
    assert "inner" in pc.callgraph.get("outer", set())
    assert "outer" in pc.callgraph.get("main", set())


def test_callgraph_hook_runs_once_per_call_at_entry(monkeypatch):
    observed, calls = [], []
    observe_call = PerformanceConsultant.observe_call
    call_function = SimProcess._call_function

    def counting_observe(self, proc, frame):
        observed.append(frame.function.name)
        observe_call(self, proc, frame)

    def counting_call(self, fn, args):
        calls.append(fn.name)
        return call_function(self, fn, args)

    monkeypatch.setattr(PerformanceConsultant, "observe_call", counting_observe)
    monkeypatch.setattr(SimProcess, "_call_function", counting_call)
    universe = make_universe()
    tool = Paradyn(universe, pc_experiment_window=0.5)
    tool.run_consultant()
    world = universe.launch(
        ScriptProgram(_nested_script, functions={"outer": _outer, "inner": _inner}), 2
    )
    universe.run()
    hook = tool.consultant.observe_call
    for proc in world.procs():
        assert proc.entry_hooks.count(hook) == 1
        assert hook not in proc.exit_hooks
    assert len(calls) > 40 and observed == calls
    assert "inner" in tool.consultant.callgraph["outer"]


def test_callgraph_hook_only_while_the_search_runs():
    """Without the Consultant no call feeds the call graph; starting it
    after launch hooks the processes already attached."""
    functions = {"outer": _outer, "inner": _inner}
    universe = make_universe()
    tool = Paradyn(universe)
    world = universe.launch(ScriptProgram(_nested_script, functions=functions), 2)
    universe.run()
    assert all(proc.entry_hooks == [] for proc in world.procs())
    assert tool.consultant.callgraph == {}

    universe = make_universe()
    tool = Paradyn(universe, pc_experiment_window=0.5)
    world = universe.launch(ScriptProgram(_nested_script, functions=functions), 2)
    tool.run_consultant()
    universe.run()
    for proc in world.procs():
        assert proc.entry_hooks == [tool.consultant.observe_call]
    assert "outer" in tool.consultant.callgraph["main"]


@pytest.mark.slow
def test_io_hypothesis_fires_for_socket_flooding():
    """MPICH small-message flooding blocks in write -> IO blocking true."""

    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            for _ in range(40_000):
                yield from mpi.send(1, nbytes=4, tag=1)
        else:
            for _ in range(40_000):
                yield from mpi.recv(source=0, tag=1)
        yield from mpi.finalize()

    pc = run_pc(script, 2, impl="mpich")
    assert pc.found("ExcessiveIOBlockingTime")

    pc_lam = run_pc(script, 2, impl="lam")
    assert not pc_lam.found("ExcessiveIOBlockingTime")
