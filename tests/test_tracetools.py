"""Comparator tools: MPE tracing, Jumpshot views, gprof profiles."""

import hashlib

import pytest

from repro.tracetools import (
    EVENT_BYTES,
    GprofProfiler,
    MpeLogger,
    MpipProfiler,
    StatisticalPreview,
    render_timelines,
)

from conftest import ScriptProgram, make_universe


def traced_run(script, nprocs=2, impl="lam", functions=None):
    universe = make_universe(impl)
    logger = MpeLogger()
    world = universe.launch(ScriptProgram(script, functions=functions), nprocs)
    logger.attach_world(world)
    universe.run()
    return logger.log, universe, world


def test_mpe_log_records_mpi_entry_exit_pairs():
    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.send(1, tag=1)
        else:
            yield from mpi.recv(source=0, tag=1)
        yield from mpi.finalize()

    log, _, _ = traced_run(script)
    names = {e.function for e in log.events}
    assert "MPI_Send" in names and "MPI_Recv" in names
    rank0 = log.for_rank(0)
    kinds = [e.kind for e in rank0 if e.function == "MPI_Send"]
    assert kinds == ["entry", "exit"]
    assert log.size_bytes == len(log.events) * EVENT_BYTES


def test_mpe_intervals_use_outermost_call():
    """Nested internal MPI calls (LAM fence -> barrier) collapse into the
    outermost state, matching Jumpshot's MPI-state view."""

    def script(mpi):
        yield from mpi.init()
        for _ in range(3):
            yield from mpi.barrier()
        yield from mpi.finalize()

    log, _, _ = traced_run(script, impl="mpich")
    intervals = log.intervals(0)
    names = [name for _, _, name in intervals]
    # PMPI_Sendrecv runs inside PMPI_Barrier: not a separate top interval
    assert "PMPI_Sendrecv" not in names
    assert names.count("PMPI_Barrier") == 3
    for start, end, _ in intervals:
        assert end >= start


def test_statistical_preview_reads_barrier_occupancy():
    """The Figure 17 check: with one rank computing and the others in
    MPI_Barrier, about n-1 processes are in the barrier at any time."""

    def script(mpi):
        yield from mpi.init()
        for i in range(30):
            if mpi.rank == i % mpi.size:
                yield from mpi.compute(0.02)
            yield from mpi.barrier()
        yield from mpi.finalize()

    log, universe, world = traced_run(script, nprocs=4)
    preview = StatisticalPreview(log, num_ranks=4)
    barrier_name = "MPI_Barrier"
    mean = preview.mean_concurrency(barrier_name)
    assert 2.2 <= mean <= 4.0  # ~3 of 4 processes in the barrier
    top = preview.busiest_states(top=1)
    assert top[0][0] == barrier_name
    assert barrier_name in preview.render()


def test_render_timelines_shows_states():
    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.compute(0.5)
            yield from mpi.send(1, tag=1)
        else:
            yield from mpi.recv(source=0, tag=1)
        yield from mpi.finalize()

    log, _, _ = traced_run(script)
    text = render_timelines(log, 2, columns=40)
    assert "rank 0:" in text and "rank 1:" in text
    # rank 1 spends the first half waiting in MPI_Recv
    rank1_row = [l for l in text.splitlines() if l.startswith("rank 1:")][0]
    assert "R" in rank1_row


def test_gprof_flat_profile_matches_figure19_shape():
    """bottleneckProcedure takes ~100% of CPU; irrelevantProcedures are
    called equally often at ~0 us/call."""

    def bottleneck(mpi, proc):
        yield from mpi.compute(0.01)

    def irrelevant(mpi, proc):
        yield from mpi.compute(0.0)

    def script(mpi):
        yield from mpi.init()
        for _ in range(50):
            yield from mpi.call("bottleneckProcedure")
            yield from mpi.call("irrelevantProcedure1")
            yield from mpi.call("irrelevantProcedure2")
        yield from mpi.finalize()

    universe = make_universe()
    profiler = GprofProfiler()
    world = universe.launch(
        ScriptProgram(
            script,
            functions={
                "bottleneckProcedure": bottleneck,
                "irrelevantProcedure1": irrelevant,
                "irrelevantProcedure2": irrelevant,
            },
        ),
        1,
    )
    profiler.attach(world.endpoints[0].proc)
    universe.run()
    rows = {r.name: r for r in profiler.rows()}
    assert rows["bottleneckProcedure"].calls == 50
    assert rows["irrelevantProcedure1"].calls == 50
    total = profiler.total_seconds()
    assert rows["bottleneckProcedure"].self_seconds / total > 0.95
    assert rows["irrelevantProcedure1"].us_per_call < 1.0
    text = profiler.render()
    assert "bottleneckProcedure" in text and "us/call" in text


def test_gprof_self_time_excludes_children():
    def child(mpi, proc):
        yield from mpi.compute(0.08)

    def parent(mpi, proc):
        yield from mpi.compute(0.02)
        yield from mpi.call("child_fn")

    def script(mpi):
        yield from mpi.init()
        for _ in range(10):
            yield from mpi.call("parent_fn")
        yield from mpi.finalize()

    universe = make_universe()
    profiler = GprofProfiler()
    world = universe.launch(
        ScriptProgram(script, functions={"parent_fn": parent, "child_fn": child}), 1
    )
    profiler.attach(world.endpoints[0].proc)
    universe.run()
    rows = {r.name: r for r in profiler.rows()}
    assert rows["parent_fn"].self_seconds == pytest.approx(0.2, rel=0.05)
    assert rows["child_fn"].self_seconds == pytest.approx(0.8, rel=0.05)


# -- byte-exact comparator outputs --------------------------------------------
#
# One small MPICH run (nested PMPI calls, app callsites, nonblocking p2p)
# with all three comparators attached.  A change to the call boundary or to
# the tools' hooks must leave these digests as they are.


def _crunch(mpi, proc, seconds):
    yield from mpi.compute(seconds)


def _exchange(mpi, proc, peer):
    request = yield from mpi.irecv(source=peer, tag=3)
    yield from mpi.send(peer, nbytes=256, tag=3)
    yield from mpi.wait(request)


def _pinned_script(mpi):
    yield from mpi.init()
    for _ in range(4):
        yield from mpi.call("crunch", 0.01 * (mpi.rank + 1))
        if mpi.rank < 2:
            yield from mpi.call("exchange", 1 - mpi.rank)
        yield from mpi.barrier()
    yield from mpi.allreduce(mpi.rank)
    yield from mpi.finalize()


@pytest.fixture(scope="module")
def pinned_tools():
    universe = make_universe("mpich")
    program = ScriptProgram(
        _pinned_script, functions={"crunch": _crunch, "exchange": _exchange}
    )
    world = universe.launch(program, 3)
    mpe, mpip, gprof = MpeLogger(), MpipProfiler(), GprofProfiler()
    mpe.attach_world(world)
    mpip.attach_world(world)
    for ep in world.endpoints:
        gprof.attach(ep.proc)
    universe.run()
    return mpe, mpip, gprof


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_mpe_events_pinned(pinned_tools):
    log = pinned_tools[0].log
    text = "".join(f"{e.time!r}|{e.rank}|{e.function}|{e.kind}\n" for e in log.events)
    assert len(log.events) == 154
    assert _sha(text) == "7bd158c63a84594349393581f555931994cf4170173d2b4c148d80d37ab7e0c1"


def test_mpip_report_pinned(pinned_tools):
    mpip = pinned_tools[1]
    exact = repr((
        sorted((k, s.calls, s.time, s.bytes_sent) for k, s in mpip.sites.items()),
        sorted(mpip.mpi_time.items()),
        sorted(mpip.app_time.items()),
    ))
    assert _sha(mpip.render()) == "c0ecbaf988b90161398a602c5d2aa35c388fe43c1dfb207cecaa81d368d4816a"
    assert _sha(exact) == "fccb90f4a08a131eb13800eb46df9af21306fea623f81f2482ad27e28505020c"


def test_gprof_profile_pinned(pinned_tools):
    gprof = pinned_tools[2]
    exact = repr((sorted(gprof.self_time.items()), sorted(gprof.calls.items())))
    assert _sha(gprof.render()) == "b9247c114af069cf912be4a7fb2cd234c4ee5a05cde349274ced41187ef8e124"
    assert _sha(exact) == "c92b0dc95ba6eecf2006d9224c6f15ec49f33b7c6a89578d1f56dc4d5d5b630f"
