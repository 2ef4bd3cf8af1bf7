"""Tool-level tests: attach, detection, metric-focus data, naming, PCL."""

import pytest

from repro.core import Focus, Paradyn, parse_pcl
from repro.core.pcl import PclConfig
from repro.mpi import INT, MpiProgram
from repro.sim.kernel import DeadlockError

from conftest import ScriptProgram, make_universe

import numpy as np


def tool_run(script, nprocs=2, impl="lam", *, functions=None, metrics=(), **tool_kw):
    universe = make_universe(impl)
    tool = Paradyn(universe, **tool_kw)
    for metric, focus in metrics:
        tool.enable(metric, focus)
    world = universe.launch(ScriptProgram(script, functions=functions), nprocs)
    universe.run()
    return tool, universe, world


class TestAttachAndDetection:
    def test_processes_and_code_enter_hierarchy(self):
        def script(mpi):
            yield from mpi.init()
            yield from mpi.finalize()

        tool, universe, world = tool_run(script, 3)
        h = tool.hierarchy
        pids = [ep.proc.pid for ep in world.endpoints]
        for ep in world.endpoints:
            assert h.exists(f"/Machine/{ep.proc.node.name}/pid{ep.proc.pid}")
        assert h.exists("/Code/script.c/main")
        assert h.exists("/SyncObject/Message/comm_1")

    def test_window_detected_and_retired_dynamically(self):
        def script(mpi):
            yield from mpi.init()
            win = yield from mpi.win_create(8, datatype=INT)
            yield from mpi.win_fence(win)
            yield from mpi.win_free(win)
            yield from mpi.finalize()

        tool, _, _ = tool_run(script, 2)
        windows = tool.hierarchy.sync_objects.child("Window").children
        assert len(windows) == 1
        (node,) = windows.values()
        assert node.name == "0-0"
        assert node.retired

    def test_window_and_comm_naming_reach_display(self):
        """Section 4.2.3: user-friendly names shown in the hierarchy."""

        def script(mpi):
            yield from mpi.init()
            win = yield from mpi.win_create(8, datatype=INT)
            yield from mpi.win_set_name(win, "MyWin")
            yield from mpi.comm_set_name(mpi.comm_world, "TheWorld")
            yield from mpi.win_free(win)
            yield from mpi.finalize()

        tool, _, _ = tool_run(script, 2)
        win_node = next(iter(tool.hierarchy.sync_objects.child("Window").children.values()))
        assert win_node.display_name == "MyWin"
        comm_node = tool.hierarchy.find("/SyncObject/Message/comm_1")
        assert comm_node.display_name == "TheWorld"

    def test_message_tags_discovered(self):
        def script(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.send(1, tag=42)
            else:
                yield from mpi.recv(source=0, tag=42)
            yield from mpi.finalize()

        tool, _, _ = tool_run(script, 2)
        assert tool.hierarchy.exists("/SyncObject/Message/comm_1/tag_42")


class TestMetricFocusData:
    def test_byte_counting_metric_matches_ground_truth(self):
        count = 50

        def script(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                for _ in range(count):
                    yield from mpi.send(1, nbytes=100, tag=1)
            else:
                for _ in range(count):
                    yield from mpi.recv(source=0, tag=1, nbytes=100)
            yield from mpi.finalize()

        tool, _, _ = tool_run(
            script, 2, metrics=[("msg_bytes_sent", Focus.whole_program()),
                                ("msgs_sent", Focus.whole_program())]
        )
        assert tool.data("msg_bytes_sent").total() == count * 100
        assert tool.data("msgs_sent").total() == count

    def test_focus_restricts_to_one_process(self):
        def script(mpi):
            yield from mpi.init()
            peer = 1 - mpi.rank
            yield from mpi.sendrecv(peer, peer, send_nbytes=8)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        world = universe.launch(ScriptProgram(script), 2)
        pid0 = world.endpoints[0].proc.pid
        node0 = world.endpoints[0].proc.node.name
        focus = Focus.whole_program().with_machine(f"/Machine/{node0}/pid{pid0}")
        tool.enable("msgs_sent", focus)
        universe.run()
        data = tool.data("msgs_sent", focus)
        assert data.total() == 1  # only rank 0's send counted
        assert list(data.per_process) == [pid0]

    def test_disable_removes_instrumentation(self):
        def script(mpi):
            yield from mpi.init()
            for i in range(10):
                if mpi.rank == 0:
                    yield from mpi.send(1, tag=1)
                else:
                    yield from mpi.recv(source=0, tag=1)
                if i == 4 and mpi.rank == 0:
                    tool.disable("msgs_sent")
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        tool.enable("msgs_sent")
        universe.launch(ScriptProgram(script), 2)
        universe.run()
        assert tool.data("msgs_sent").total() == 5

    def test_window_constrained_metric(self):
        """The Figure 2 constraint: count only the focused window's puts."""

        def script(mpi):
            yield from mpi.init()
            win_a = yield from mpi.win_create(8, datatype=INT)
            win_b = yield from mpi.win_create(8, datatype=INT)
            yield from mpi.win_fence(win_a)
            yield from mpi.win_fence(win_b)
            if mpi.rank == 0:
                data = np.ones(2, dtype="i4")
                for _ in range(3):
                    yield from mpi.put(win_a, 1, data)
                for _ in range(5):
                    yield from mpi.put(win_b, 1, data)
            yield from mpi.win_fence(win_a)
            yield from mpi.win_fence(win_b)
            yield from mpi.win_free(win_a)
            yield from mpi.win_free(win_b)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        focus_a = Focus.whole_program().with_sync_object("/SyncObject/Window/0-0")
        focus_b = Focus.whole_program().with_sync_object("/SyncObject/Window/1-0")
        tool.enable("rma_put_ops", focus_a)
        tool.enable("rma_put_ops", focus_b)
        tool.enable("rma_put_ops", Focus.whole_program())
        universe.launch(ScriptProgram(script), 2)
        universe.run()
        assert tool.data("rma_put_ops", focus_a).total() == 3
        assert tool.data("rma_put_ops", focus_b).total() == 5
        assert tool.data("rma_put_ops", Focus.whole_program()).total() == 8

    def test_procedure_constrained_sync_metric(self):
        """Inclusive sync time restricted to one application function."""

        def in_fn(mpi, proc):
            yield from mpi.recv(source=0, tag=1)

        def script(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.compute(1.0)
                yield from mpi.send(1, tag=1)
                yield from mpi.send(1, tag=2)
            else:
                yield from mpi.call("slow_recv", )
                yield from mpi.recv(source=0, tag=2)
            yield from mpi.finalize()

        universe = make_universe()
        tool = Paradyn(universe)
        focus = Focus.whole_program().with_code("/Code/script.c/slow_recv")
        tool.enable("msg_sync_wait", focus)
        tool.enable("msg_sync_wait", Focus.whole_program())
        universe.launch(
            ScriptProgram(script, functions={"slow_recv": in_fn}), 2
        )
        universe.run()
        constrained = tool.data("msg_sync_wait", focus).total()
        overall = tool.data("msg_sync_wait", Focus.whole_program()).total()
        assert constrained == pytest.approx(1.0, rel=0.1)
        assert overall > constrained

    def test_legacy_metrics_miss_mpich_weak_symbols(self):
        """The Paradyn 4.0 bug of Section 4.1.1: metric definitions without
        the C PMPI names measure nothing on a default MPICH build."""

        def script(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1)
            else:
                yield from mpi.recv(source=0, tag=1)
            yield from mpi.finalize()

        tool, _, _ = tool_run(
            script, 2, impl="mpich",
            metrics=[("msgs_sent", Focus.whole_program())], legacy_metrics=True,
        )
        assert tool.data("msgs_sent").total() == 0

        tool2, _, _ = tool_run(
            script, 2, impl="mpich",
            metrics=[("msgs_sent", Focus.whole_program())],
        )
        assert tool2.data("msgs_sent").total() == 1


class TestPcl:
    def test_daemon_process_tunables_and_inline_mdl(self):
        config = parse_pcl(
            """
            daemon pd_lam {
                flavor mpi;
                mpi_implementation "lam";
            }
            process app {
                daemon pd_lam;
                command "-np 6 small_messages";
            }
            tunable_constant {
                PC_CPUThreshold 0.2;
                samplingInterval 0.4;
            }
            funcset extra = { my_fn };
            """
        )
        assert config.daemons["pd_lam"].mpi_implementation == "lam"
        assert config.processes["app"].command == "-np 6 small_messages"
        assert config.tunable("PC_CPUThreshold", 0.3) == 0.2
        assert config.tunable("missing", 1.5) == 1.5
        assert "extra" in config.mdl.funcsets

    def test_pcl_errors(self):
        from repro.core.mdl import MdlSyntaxError

        with pytest.raises(MdlSyntaxError):
            parse_pcl("daemon d { bogus x; }")
        with pytest.raises(MdlSyntaxError):
            parse_pcl('tunable_constant { name "str"; }')

    def test_tool_consumes_pcl_tunables(self):
        config = parse_pcl("tunable_constant { PC_CPUThreshold 0.05; samplingInterval 0.1; }")
        universe = make_universe()
        tool = Paradyn(universe, config=config)
        assert tool.consultant.thresholds["PC_CPUThreshold"] == 0.05
        assert tool.frontend.bin_width == 0.1


def _mutual_recv(mpi):
    yield from mpi.init()
    yield from mpi.recv(1 - mpi.rank)
    yield from mpi.finalize()


@pytest.mark.parametrize("consultant", [False, True])
def test_deadlock_surfaces_under_the_tool(consultant):
    """The daemons' samples and the Consultant's passes stop once they are
    all that is queued while ranks are blocked, so the kernel reports the
    deadlock as it does without the tool.  The run is bounded: ticks that
    mask the deadlock return at ``until`` instead of hanging the suite."""
    universe = make_universe("lam")
    tool = Paradyn(universe)
    tool.enable("sync_wait")
    if consultant:
        tool.run_consultant()
    universe.launch(ScriptProgram(_mutual_recv), 2)
    with pytest.raises(DeadlockError, match="2 task"):
        universe.run(until=50.0)
    assert universe.kernel.queue_depth() == 0
    assert not any(daemon._sampling for daemon in tool.daemons)
    assert tool.consultant.finished == consultant


@pytest.mark.parametrize("consultant", [False, True])
def test_spawned_children_are_sampled_to_the_end(consultant):
    """A daemon for a node that only spawned children reach starts sampling
    from inside the spawning rank's call, while that rank is live but not
    queued: the deadlock check must not hold its first tick back, or the
    children's messages go uncounted."""
    from repro.analysis.runner import run_program
    from repro.pperfmark.mpi2 import SpawnSync

    program = SpawnSync()
    result = run_program(program, consultant=consultant,
                         metrics=[("msgs_recv", Focus.whole_program())])
    assert len(result.tool.daemons) == 2  # the children run on a second node
    assert result.data("msgs_recv").total() == program.expected_messages() == 2100
