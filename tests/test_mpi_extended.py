"""Extended MPI surface: Ssend, Probe, Gather/Scatter/Allgather, Comm_split."""

import pytest

from repro.mpi import MpiError, Status

from conftest import run_script


#: One MPI_Ssend against a receive posted at t=2: the sender's and the
#: receiver's completion times, then the sender's user and system CPU
#: seconds.  An eager-sized message still waits for the CTS, then pushes
#: its data like an eager send (inside the socket write on mpich/mpich2,
#: as user CPU over lam's shared memory), not as a bulk transfer.
SSEND_EXPECTED = {
    ("lam", 4): (2.0020110057142855, 2.0020220071428567, 0.0020160057142857195, 0.0),
    ("lam", 100_000): (2.0021538571428565, 2.002200571428571, 0.002015999999999786, 0.0),
    ("mpich", 4): (
        2.0021803478260867, 2.002360434782608, 0.0020179999999999257, 0.00010234782608706684
    ),
    ("mpich", 100_000): (
        2.0108756521739126, 2.0132295652173906, 0.0020179999999999257, 0.00010200000000002308
    ),
    ("mpich2", 4): (
        2.0021803478260867, 2.002360434782608, 0.0020179999999999257, 0.00010234782608706684
    ),
    ("mpich2", 100_000): (
        2.0108756521739126, 2.0132295652173906, 0.0020179999999999257, 0.00010200000000002308
    ),
    ("refmpi", 4): (2.0020110057142855, 2.0020220071428567, 0.0020160057142857195, 0.0),
    ("refmpi", 100_000): (2.0021538571428565, 2.002200571428571, 0.002015999999999786, 0.0),
}


@pytest.mark.parametrize("impl,nbytes", sorted(SSEND_EXPECTED))
def test_ssend_blocks_until_receive_posted(impl, nbytes):
    out = {}

    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.ssend(1, nbytes=nbytes, tag=1, payload="sync")
            proc = mpi.proc
            out["send"] = (proc.kernel.now, proc.cpu_user_time(), proc.cpu_system_time())
        else:
            yield from mpi.compute(2.0)
            out["msg"] = yield from mpi.recv(source=0, tag=1)
            out["recv_done"] = mpi.proc.kernel.now
        yield from mpi.finalize()

    run_script(script, 2, impl=impl)
    send_done, user, system = out["send"]
    assert send_done > 2.0  # unlike eager MPI_Send (see p2p tests)
    assert out["msg"] == "sync"
    assert (send_done, out["recv_done"], user, system) == SSEND_EXPECTED[impl, nbytes]


def test_probe_reports_without_consuming():
    out = {}

    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.compute(0.5)
            yield from mpi.send(1, nbytes=12, tag=7, payload="x")
        else:
            status = Status()
            yield from mpi.probe(source=0, tag=7, status=status)
            out["probed"] = (status.source, status.tag, status.count_bytes)
            out["count"] = yield from mpi.get_count(status)
            out["queued"] = mpi.ep.mailbox.unexpected_count
            msg = yield from mpi.recv(source=0, tag=7)
            out["msg"] = msg
        yield from mpi.finalize()

    run_script(script, 2)
    assert out["probed"] == (0, 7, 12)
    assert out["count"] == 12
    assert out["queued"] == 1  # probe left the message in place
    assert out["msg"] == "x"


def test_iprobe_polls_nondestructively():
    out = {}

    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.compute(0.2)
            yield from mpi.send(1, tag=3)
        else:
            out["early"] = yield from mpi.iprobe(source=0, tag=3)
            yield from mpi.compute(0.5)
            out["late"] = yield from mpi.iprobe(source=0, tag=3)
            yield from mpi.recv(source=0, tag=3)
        yield from mpi.finalize()

    run_script(script, 2)
    assert out == {"early": False, "late": True}


@pytest.mark.parametrize("impl", ["lam", "mpich"])
def test_gather_scatter_allgather(impl):
    out = {}

    def script(mpi):
        yield from mpi.init()
        gathered = yield from mpi.gather(mpi.rank * 10, root=1)
        if mpi.rank == 1:
            out["gathered"] = gathered
        else:
            assert gathered is None
        part = yield from mpi.scatter(
            [f"part{r}" for r in range(mpi.size)] if mpi.rank == 0 else None, root=0
        )
        out.setdefault("scattered", []).append((mpi.rank, part))
        everyone = yield from mpi.allgather(mpi.rank + 1)
        out.setdefault("allgathered", []).append(everyone)
        yield from mpi.finalize()

    run_script(script, 4, impl=impl)
    assert out["gathered"] == [0, 10, 20, 30]
    assert sorted(out["scattered"]) == [(r, f"part{r}") for r in range(4)]
    assert out["allgathered"] == [[1, 2, 3, 4]] * 4


def test_scatter_undersized_buffer_rejected():
    def script(mpi):
        yield from mpi.init()
        yield from mpi.scatter([1] if mpi.rank == 0 else None, root=0)
        yield from mpi.finalize()

    with pytest.raises(MpiError, match="Scatter"):
        run_script(script, 3)


def test_comm_split_by_parity():
    out = {}

    def script(mpi):
        yield from mpi.init()
        sub = yield from mpi.comm_split(color=mpi.rank % 2, key=-mpi.rank)
        out[mpi.rank] = (sub.size, sub.rank_of(mpi.ep), sub.cid)
        total = yield from mpi.allreduce(mpi.rank, comm=sub)
        out.setdefault("totals", []).append((mpi.rank, total))
        yield from mpi.finalize()

    run_script(script, 4)
    # evens {0,2} and odds {1,3}; key=-rank reverses the ordering
    assert out[0][0] == 2 and out[2][0] == 2
    assert out[0][1] == 1 and out[2][1] == 0  # reversed by key
    assert out[0][2] != out[1][2]  # distinct contexts
    totals = dict(out["totals"])
    assert totals[0] == totals[2] == 2
    assert totals[1] == totals[3] == 4


def test_comm_split_undefined_color_gets_none():
    out = {}

    def script(mpi):
        yield from mpi.init()
        sub = yield from mpi.comm_split(color=None if mpi.rank == 0 else 1)
        out[mpi.rank] = None if sub is None else sub.size
        yield from mpi.finalize()

    run_script(script, 3)
    assert out == {0: None, 1: 2, 2: 2}


def test_wtime_tracks_virtual_clock():
    out = {}

    def script(mpi):
        yield from mpi.init()
        t0 = yield from mpi.wtime()
        yield from mpi.compute(1.5)
        t1 = yield from mpi.wtime()
        out[mpi.rank] = t1 - t0
        yield from mpi.finalize()

    run_script(script, 1)
    assert out[0] == pytest.approx(1.5, abs=1e-6)


def test_abort_raises():
    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.abort(42)
        yield from mpi.finalize()

    with pytest.raises(MpiError, match="error code 42"):
        run_script(script, 2)


def test_probe_that_can_never_match_deadlocks_detectably():
    from repro.sim.kernel import DeadlockError

    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 1:
            yield from mpi.probe(source=0, tag=999)
        yield from mpi.finalize()

    with pytest.raises(DeadlockError):
        run_script(script, 2)


def test_waitany_returns_first_completion():
    out = {}

    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.compute(0.3)
            yield from mpi.send(1, tag=2, payload="slow")
        elif mpi.rank == 2:
            yield from mpi.send(1, tag=1, payload="fast")
        else:
            reqs = []
            for src, tag in ((0, 2), (2, 1)):
                reqs.append((yield from mpi.irecv(source=src, tag=tag)))
            index, value = yield from mpi.waitany(reqs)
            out["first"] = (index, value)
            index2, value2 = yield from mpi.waitany(reqs)
            out["second"] = (index2, value2)
        yield from mpi.finalize()

    run_script(script, 3)
    assert out["first"] == (1, "fast")
    assert out["second"][1] in ("fast", "slow")


def test_mpi_test_polls_request():
    out = {}

    def script(mpi):
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.compute(0.5)
            yield from mpi.send(1, tag=1, payload="late")
        else:
            req = yield from mpi.irecv(source=0, tag=1)
            out["early"] = yield from mpi.test(req)
            yield from mpi.compute(1.0)
            out["late"] = yield from mpi.test(req)
            out["value"] = yield from mpi.wait(req)
        yield from mpi.finalize()

    run_script(script, 2)
    assert out["early"] is False
    assert out["late"] is True
    assert out["value"] == "late"


@pytest.mark.parametrize("impl", ["lam", "mpich"])
def test_alltoall_transpose(impl):
    out = {}

    def script(mpi):
        yield from mpi.init()
        values = [f"{mpi.rank}->{dest}" for dest in range(mpi.size)]
        out[mpi.rank] = yield from mpi.alltoall(values)
        yield from mpi.finalize()

    run_script(script, 4, impl=impl)
    for rank in range(4):
        assert out[rank] == [f"{src}->{rank}" for src in range(4)]


def test_window_over_split_communicator():
    """Composition: RMA windows over a comm_split sub-communicator."""
    import numpy as np

    from repro.mpi import INT

    out = {}

    def script(mpi):
        yield from mpi.init()
        sub = yield from mpi.comm_split(color=mpi.rank % 2, key=mpi.rank)
        win = yield from mpi.win_create(4, datatype=INT, comm=sub)
        yield from mpi.win_fence(win)
        my_sub_rank = sub.rank_of(mpi.ep)
        if my_sub_rank == 0:
            yield from mpi.put(win, 1, np.full(2, mpi.rank + 1, dtype="i4"))
        yield from mpi.win_fence(win)
        if my_sub_rank == 1:
            out[mpi.rank] = win.buffers[1][:2].tolist()
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 4)
    # evens: writer rank 0 -> value 1; odds: writer rank 1 -> value 2
    assert out[2] == [1, 1]
    assert out[3] == [2, 2]
