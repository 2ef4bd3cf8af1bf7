"""Collective semantics on both implementation styles."""

import pytest

from repro.mpi import MAX, MIN, PROD, SUM

from conftest import run_script

IMPLS = ["lam", "mpich"]


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 6])
def test_barrier_no_early_exit(impl, nprocs):
    """No process leaves a barrier before the last one has entered."""
    entries = {}
    exits = {}

    def script(mpi):
        yield from mpi.init()
        yield from mpi.compute(0.1 * (mpi.rank + 1))  # staggered arrival
        entries[mpi.rank] = mpi.proc.kernel.now
        yield from mpi.barrier()
        exits[mpi.rank] = mpi.proc.kernel.now
        yield from mpi.finalize()

    run_script(script, nprocs, impl=impl)
    last_entry = max(entries.values())
    assert all(t >= last_entry - 1e-9 for t in exits.values())


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("nprocs", [2, 3, 5])
def test_bcast_delivers_root_value(impl, nprocs):
    got = {}

    def script(mpi):
        yield from mpi.init()
        value = "the payload" if mpi.rank == 1 else None
        got[mpi.rank] = yield from mpi.bcast(value, root=1)
        yield from mpi.finalize()

    run_script(script, nprocs, impl=impl)
    assert got == {r: "the payload" for r in range(nprocs)}


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("op,expected", [(SUM, 0 + 1 + 2 + 3), (MAX, 3), (MIN, 0), (PROD, 0)])
def test_reduce_ops(impl, op, expected):
    got = {}

    def script(mpi):
        yield from mpi.init()
        got[mpi.rank] = yield from mpi.reduce(mpi.rank, op=op, root=0)
        yield from mpi.finalize()

    run_script(script, 4, impl=impl)
    assert got[0] == expected
    assert all(got[r] is None for r in range(1, 4))


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("nprocs", [2, 3, 4, 7])
def test_allreduce_everyone_gets_result(impl, nprocs):
    got = {}

    def script(mpi):
        yield from mpi.init()
        got[mpi.rank] = yield from mpi.allreduce(mpi.rank + 1)
        yield from mpi.finalize()

    run_script(script, nprocs, impl=impl)
    expected = sum(range(1, nprocs + 1))
    assert got == {r: expected for r in range(nprocs)}


def test_repeated_barriers_stay_synchronized():
    """Back-to-back barriers with the fixed internal tag must not cross-talk."""
    counts = {}

    def script(mpi):
        yield from mpi.init()
        n = 0
        for i in range(50):
            if mpi.rank == i % mpi.size:
                yield from mpi.compute(1e-3)
            yield from mpi.barrier()
            n += 1
        counts[mpi.rank] = n
        yield from mpi.finalize()

    run_script(script, 4, impl="mpich")
    assert counts == {r: 50 for r in range(4)}


def test_mpich_barrier_uses_pmpi_sendrecv():
    """Section 5.1.5: MPICH's barrier is collective comm over PMPI_Sendrecv."""
    calls = []

    def script(mpi):
        yield from mpi.init()
        mpi.proc.entry_hooks.append(lambda p, frame: calls.append(frame.name))
        yield from mpi.barrier()
        yield from mpi.finalize()

    run_script(script, 4, impl="mpich")
    assert "PMPI_Sendrecv" in calls


def test_lam_barrier_is_internal():
    """LAM's barrier does not go through visible point-to-point MPI calls."""
    calls = []

    def script(mpi):
        yield from mpi.init()
        mpi.proc.entry_hooks.append(lambda p, frame: calls.append(frame.name))
        yield from mpi.barrier()
        yield from mpi.finalize()

    run_script(script, 4, impl="lam")
    assert "MPI_Sendrecv" not in calls
    assert "PMPI_Sendrecv" not in calls


def test_comm_dup_creates_distinct_context():
    """Messages on a duplicated communicator never match the original's."""
    out = {}

    def script(mpi):
        yield from mpi.init()
        dup = yield from mpi.proc.call("MPI_Comm_dup", mpi.comm_world)
        if mpi.rank == 0:
            yield from mpi.send(1, tag=1, payload="dup", comm=dup)
            yield from mpi.send(1, tag=1, payload="world")
        else:
            out["world"] = yield from mpi.recv(source=0, tag=1)
            out["dup"] = yield from mpi.recv(source=0, tag=1, comm=dup)
        yield from mpi.finalize()

    run_script(script, 2)
    assert out == {"world": "world", "dup": "dup"}
