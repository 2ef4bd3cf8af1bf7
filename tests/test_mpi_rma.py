"""RMA semantics: data movement, epochs, id reuse, blocking differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import INT, MAX, SUM, RmaEpochError, UnsupportedFeature
from repro.mpi.rma import RmaOp, RmaOpKind

from conftest import run_script

RMA_IMPLS = ["lam", "mpich2"]


@pytest.mark.parametrize("impl", RMA_IMPLS)
def test_put_get_accumulate_move_data(impl):
    checks = {}

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(16, datatype=INT)
        yield from mpi.win_fence(win)
        if mpi.rank == 0:
            yield from mpi.put(win, 1, np.arange(4, dtype="i4"), target_disp=1)
            yield from mpi.accumulate(win, 1, np.full(2, 5, dtype="i4"), target_disp=8, op=SUM)
            yield from mpi.accumulate(win, 1, np.full(2, 3, dtype="i4"), target_disp=8, op=SUM)
        yield from mpi.win_fence(win)
        if mpi.rank == 1:
            checks["put"] = win.buffers[1][1:5].tolist()
            checks["acc"] = win.buffers[1][8:10].tolist()
        dest = np.zeros(4, dtype="i4")
        if mpi.rank == 1:
            yield from mpi.get(win, 1, dest, target_disp=1)
        yield from mpi.win_fence(win)
        if mpi.rank == 1:
            checks["get"] = dest.tolist()
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 2, impl=impl)
    assert checks["put"] == [0, 1, 2, 3]
    assert checks["acc"] == [8, 8]
    assert checks["get"] == [0, 1, 2, 3]


@pytest.mark.parametrize("impl", RMA_IMPLS)
def test_rma_outside_epoch_raises(impl):
    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(8, datatype=INT)
        yield from mpi.win_fence(win)
        yield from mpi.win_fence(win)
        # close the fence epoch illegally by freeing state: simulate via
        # direct record on a freed window below instead
        yield from mpi.win_free(win)
        if mpi.rank == 0:
            with pytest.raises(RmaEpochError):
                yield from mpi.put(win, 1, np.zeros(2, dtype="i4"))
        yield from mpi.finalize()

    run_script(script, 2, impl=impl)


def test_accumulate_max_op():
    out = {}

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(4, datatype=INT, fill=5)
        yield from mpi.win_fence(win)
        if mpi.rank == 0:
            yield from mpi.accumulate(win, 1, np.array([9, 1, 9, 1], dtype="i4"), op=MAX)
        yield from mpi.win_fence(win)
        if mpi.rank == 1:
            out["buf"] = win.buffers[1].tolist()
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 2)
    assert out["buf"] == [9, 5, 9, 5]


def test_window_out_of_range_access_raises():
    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(4, datatype=INT)
        yield from mpi.win_fence(win)
        if mpi.rank == 0:
            yield from mpi.put(win, 1, np.zeros(8, dtype="i4"), target_disp=0)
        yield from mpi.win_fence(win)
        yield from mpi.finalize()

    with pytest.raises(RmaEpochError, match="beyond window extent"):
        run_script(script, 2)


def test_start_complete_post_wait_with_data():
    out = {}

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(8, datatype=INT)
        if mpi.rank == 0:
            yield from mpi.win_post(win, [1, 2])
            yield from mpi.win_wait(win)
            out["buf"] = win.buffers[0].tolist()
        else:
            yield from mpi.win_start(win, [0])
            data = np.full(2, mpi.rank, dtype="i4")
            yield from mpi.put(win, 0, data, target_disp=2 * mpi.rank)
            yield from mpi.win_complete(win)
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 3)
    assert out["buf"][2:6] == [1, 1, 2, 2]


def test_put_outside_start_group_rejected():
    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(8, datatype=INT)
        if mpi.rank == 0:
            yield from mpi.win_post(win, [1])
            yield from mpi.win_wait(win)
        elif mpi.rank == 1:
            yield from mpi.win_start(win, [0])
            with pytest.raises(RmaEpochError, match="not in the MPI_Win_start group"):
                yield from mpi.put(win, 2, np.zeros(1, dtype="i4"))
            yield from mpi.put(win, 0, np.ones(1, dtype="i4"))
            yield from mpi.win_complete(win)
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 3)


def test_lam_win_start_blocks_until_post():
    """LAM: the origin blocks in MPI_Win_start until the target posts."""
    times = {}

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(4, datatype=INT)
        if mpi.rank == 0:
            yield from mpi.compute(2.0)  # late target
            yield from mpi.win_post(win, [1])
            yield from mpi.win_wait(win)
        else:
            t0 = mpi.proc.kernel.now
            yield from mpi.win_start(win, [0])
            times["start_blocked"] = mpi.proc.kernel.now - t0
            yield from mpi.win_complete(win)
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 2, impl="lam")
    assert times["start_blocked"] > 1.5


def test_mpich2_win_complete_blocks_instead():
    """MPICH2: start returns immediately; complete carries the wait."""
    times = {}

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(4, datatype=INT)
        if mpi.rank == 0:
            yield from mpi.compute(2.0)
            yield from mpi.win_post(win, [1])
            yield from mpi.win_wait(win)
        else:
            t0 = mpi.proc.kernel.now
            yield from mpi.win_start(win, [0])
            times["start_blocked"] = mpi.proc.kernel.now - t0
            t1 = mpi.proc.kernel.now
            yield from mpi.win_complete(win)
            times["complete_blocked"] = mpi.proc.kernel.now - t1
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 2, impl="mpich2")
    assert times["start_blocked"] < 0.5
    assert times["complete_blocked"] > 1.5


def test_window_id_reuse_after_free():
    """LAM reuses window ids -- the reason for Paradyn's N-M identifiers."""
    ids = []

    def script(mpi):
        yield from mpi.init()
        for _ in range(3):
            win = yield from mpi.win_create(4, datatype=INT)
            ids.append(win.win_id)
            yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 2, impl="lam")
    assert len(ids) == 6  # 3 windows seen by both ranks
    assert set(ids) == {0}  # the id is recycled every time


def test_window_use_after_free_raises():
    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(4, datatype=INT)
        yield from mpi.win_free(win)
        yield from mpi.win_fence(win)
        yield from mpi.finalize()

    with pytest.raises(RmaEpochError, match="already freed"):
        run_script(script, 2)


def test_passive_target_unsupported_on_lam_and_mpich2():
    """As in the paper: neither LAM nor MPICH2 supports lock/unlock."""
    for impl in RMA_IMPLS:
        def script(mpi):
            yield from mpi.init()
            win = yield from mpi.win_create(4, datatype=INT)
            if mpi.rank == 0:
                yield from mpi.win_lock(win, 1)
            yield from mpi.finalize()

        with pytest.raises(UnsupportedFeature, match="rma_passive"):
            run_script(script, 2, impl=impl)


def test_passive_target_on_refmpi_serializes_and_applies():
    out = {}

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(1, datatype=INT)
        if mpi.rank != 0:
            for _ in range(10):
                yield from mpi.win_lock(win, 0)
                yield from mpi.compute(1e-3)
                yield from mpi.accumulate(win, 0, np.ones(1, dtype="i4"), op=SUM)
                yield from mpi.win_unlock(win, 0)
        yield from mpi.barrier()
        if mpi.rank == 0:
            out["total"] = int(win.buffers[0][0])
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 3, impl="refmpi")
    assert out["total"] == 20


def test_lam_fence_uses_isend_waitall_and_barrier():
    """Figures 22/24: LAM builds MPI_Win_fence on Isend/Waitall + Barrier."""
    calls = []

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(8, datatype=INT)
        yield from mpi.win_fence(win)
        mpi.proc.entry_hooks.append(lambda p, frame: calls.append(frame.name))
        if mpi.rank == 0:
            yield from mpi.put(win, 1, np.ones(2, dtype="i4"))
        yield from mpi.win_fence(win)
        yield from mpi.finalize()

    run_script(script, 2, impl="lam")
    assert "MPI_Barrier" in calls
    assert "MPI_Isend" in calls and "MPI_Waitall" in calls


def test_mpich2_fence_is_internal():
    calls = []

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(8, datatype=INT)
        yield from mpi.win_fence(win)
        mpi.proc.entry_hooks.append(lambda p, frame: calls.append(frame.name))
        if mpi.rank == 0:
            yield from mpi.put(win, 1, np.ones(2, dtype="i4"))
        yield from mpi.win_fence(win)
        yield from mpi.finalize()

    run_script(script, 2, impl="mpich2")
    assert "PMPI_Barrier" not in calls and "MPI_Barrier" not in calls


def test_lam_window_has_internal_named_comm():
    """Figure 23: LAM keeps the window's name in a hidden communicator."""
    out = {}

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(4, datatype=INT)
        yield from mpi.win_set_name(win, "MyWindow")
        out["internal"] = win.internal_comm is not None
        if win.internal_comm is not None:
            out["name"] = win.internal_comm.name
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 2, impl="lam")
    assert out["internal"]
    assert out["name"] == "MyWindow"


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "acc"]),
            st.integers(min_value=0, max_value=12),  # disp
            st.integers(min_value=1, max_value=4),  # count
            st.integers(min_value=-50, max_value=50),  # value
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_rma_ops_apply_like_numpy(ops):
    """A random batch of puts/accumulates inside one epoch equals the same
    operations applied to a local numpy array in order."""
    expected = np.zeros(16, dtype="i4")
    for kind, disp, count, value in ops:
        data = np.full(count, value, dtype="i4")
        if kind == "put":
            expected[disp : disp + count] = data
        else:
            expected[disp : disp + count] += data
    out = {}

    def script(mpi):
        yield from mpi.init()
        win = yield from mpi.win_create(16, datatype=INT)
        yield from mpi.win_fence(win)
        if mpi.rank == 0:
            for kind, disp, count, value in ops:
                data = np.full(count, value, dtype="i4")
                if kind == "put":
                    yield from mpi.put(win, 1, data, target_disp=disp)
                else:
                    yield from mpi.accumulate(win, 1, data, target_disp=disp, op=SUM)
        yield from mpi.win_fence(win)
        if mpi.rank == 1:
            out["buf"] = win.buffers[1].copy()
        yield from mpi.win_free(win)
        yield from mpi.finalize()

    run_script(script, 2)
    assert np.array_equal(out["buf"], expected)
