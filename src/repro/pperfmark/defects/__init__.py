"""Seeded-defect programs: the sanitizer's regression fixtures.

Each program here is a deliberately broken MPI application that triggers
exactly one detector class in :mod:`repro.sanitizer` -- the dynamic-checker
equivalent of PPerfMark's "known bottleneck" contract.  They live in their
own registry (``DEFECT_REGISTRY``) so the clean PPerfMark suite, the
verification tables, and the benchmarks never see them.
"""

from __future__ import annotations

from typing import Generator, Type

import numpy as np

from ...mpi.datatypes import DOUBLE, INT
from ...mpi.world import MpiProgram
# FindingKind here is pure *expectation metadata* (which finding a sanitize
# run of each defect must report); defect program behavior never reads it,
# so tool-mode artifacts are unaffected by sanitizer edits.
from ...sanitizer.findings import FindingKind
from ..base import PPerfProgram
from ..mpi2.dataparallel import SpawnWorkload

__all__ = ["DefectProgram", "DEFECT_REGISTRY", "register_defect", "defect_names"]


class DefectProgram(PPerfProgram):
    """Base class: a broken program plus the finding(s) it must trigger."""

    suite = "defect"
    default_nprocs = 2
    #: the primary FindingKind a sanitized run must report
    expected_finding: FindingKind = FindingKind.MPI_ERROR
    #: every FindingKind the run must report, no more, no less -- defaults
    #: to just ``expected_finding``; multi-defect programs override it
    expected_findings: tuple[FindingKind, ...] | None = None
    #: personality the defect needs (None = any; e.g. passive-target RMA
    #: defects need "refmpi", the only personality with that feature)
    required_impl: str | None = None

    @classmethod
    def expected_kinds(cls) -> frozenset[FindingKind]:
        if cls.expected_findings is not None:
            return frozenset(cls.expected_findings)
        return frozenset((cls.expected_finding,))


DEFECT_REGISTRY: dict[str, Type[DefectProgram]] = {}


def register_defect(cls: Type[DefectProgram]) -> Type[DefectProgram]:
    if cls.name in DEFECT_REGISTRY:
        raise ValueError(f"duplicate defect program {cls.name!r}")
    DEFECT_REGISTRY[cls.name] = cls
    return cls


def defect_names() -> list[str]:
    return sorted(DEFECT_REGISTRY)


@register_defect
class DefectEpochPut(DefectProgram):
    """Put issued before the first fence ever opens an access epoch."""

    name = "defect_epoch_put"
    module = "defect_epoch_put.c"
    expected_finding = FindingKind.RMA_EPOCH_VIOLATION

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        win = yield from mpi.win_create(16, datatype=INT)
        if mpi.rank == 0:
            # no MPI_Win_fence has run: strictly, no access epoch is open
            yield from mpi.put(win, 1, np.arange(4, dtype="i4"))
        yield from mpi.win_free(win)
        yield from mpi.finalize()


@register_defect
class DefectRmaRace(DefectProgram):
    """Two origins put to the same window range in one fence epoch."""

    name = "defect_rma_race"
    module = "defect_rma_race.c"
    expected_finding = FindingKind.RMA_RACE
    default_nprocs = 3

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        win = yield from mpi.win_create(16, datatype=INT)
        yield from mpi.win_fence(win)
        if mpi.rank in (1, 2):
            yield from mpi.put(win, 0, np.full(8, mpi.rank, dtype="i4"))
        yield from mpi.win_fence(win)
        yield from mpi.win_free(win)
        yield from mpi.finalize()


@register_defect
class DefectDeadlockRecv(DefectProgram):
    """Head-to-head blocking receives: the classic send/recv order bug."""

    name = "defect_deadlock_recv"
    module = "defect_deadlock_recv.c"
    expected_finding = FindingKind.DEADLOCK

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        other = 1 - mpi.rank
        yield from mpi.recv(other, tag=7, nbytes=4)
        yield from mpi.send(other, tag=7, nbytes=4)
        yield from mpi.finalize()


@register_defect
class DefectUnmatchedSend(DefectProgram):
    """An eager send whose receive was never posted."""

    name = "defect_unmatched_send"
    module = "defect_unmatched_send.c"
    expected_finding = FindingKind.UNMATCHED_SEND

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.send(1, tag=11, nbytes=4)
        yield from mpi.finalize()


@register_defect
class DefectWindowLeak(DefectProgram):
    """A window still allocated at finalize (missing MPI_Win_free)."""

    name = "defect_window_leak"
    module = "defect_window_leak.c"
    expected_finding = FindingKind.WINDOW_LEAK

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        yield from mpi.win_create(16, datatype=INT)
        yield from mpi.finalize()


@register_defect
class DefectRequestLeak(DefectProgram):
    """An isend whose request is never waited on or tested."""

    name = "defect_request_leak"
    module = "defect_request_leak.c"
    expected_finding = FindingKind.REQUEST_LEAK

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.isend(1, tag=3, nbytes=4)  # request dropped
        else:
            yield from mpi.recv(0, tag=3, nbytes=4)
        yield from mpi.finalize()


@register_defect
class DefectRecvTruncation(DefectProgram):
    """A receive buffer smaller than the matched message."""

    name = "defect_recv_truncation"
    module = "defect_recv_truncation.c"
    expected_finding = FindingKind.RECV_TRUNCATION

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.send(1, tag=5, nbytes=64)
        else:
            yield from mpi.recv(0, tag=5, nbytes=16)
        yield from mpi.finalize()


@register_defect
class DefectDatatypeMismatch(DefectProgram):
    """Sender and receiver disagree on the type signature (same bytes)."""

    name = "defect_datatype_mismatch"
    module = "defect_datatype_mismatch.c"
    expected_finding = FindingKind.DATATYPE_MISMATCH

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        if mpi.rank == 0:
            yield from mpi.send(1, tag=9, nbytes=8, datatype=INT)
        else:
            yield from mpi.recv(0, tag=9, nbytes=8, datatype=DOUBLE)
        yield from mpi.finalize()


@register_defect
class DefectUseAfterFree(DefectProgram):
    """Synchronizing on a freed window whose id has been reused.

    Under LAM (which recycles window ids, Section 4.2.1 of the paper) the
    second ``win_create`` takes over the freed window's id, so a stale
    handle is the exact hazard the tool's composite ``N-M`` window
    identifiers exist to disambiguate.
    """

    name = "defect_use_after_free"
    module = "defect_use_after_free.c"
    expected_finding = FindingKind.WINDOW_USE_AFTER_FREE

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        win_a = yield from mpi.win_create(8, datatype=INT)
        yield from mpi.win_fence(win_a)
        yield from mpi.win_free(win_a)
        yield from mpi.win_create(8, datatype=INT)  # may reuse win_a's id
        if mpi.rank == 0:
            yield from mpi.win_fence(win_a)  # stale handle
        yield from mpi.finalize()


@register_defect
class DefectTruncationRmaRace(DefectProgram):
    """Two unrelated defects in one program: a truncated receive on the
    point-to-point path *and* an RMA fence-epoch race.

    This is the cross-contamination fixture: one sanitized run must report
    **both** findings -- exactly ``{RECV_TRUNCATION, RMA_RACE}`` -- with
    neither detector masking, duplicating, or mislabeling the other.
    """

    name = "defect_truncation_rma_race"
    module = "defect_truncation_rma_race.c"
    expected_finding = FindingKind.RECV_TRUNCATION
    expected_findings = (FindingKind.RECV_TRUNCATION, FindingKind.RMA_RACE)
    default_nprocs = 3

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        # defect 1: rank 0's 64-byte message lands in rank 1's 16-byte buffer
        if mpi.rank == 0:
            yield from mpi.send(1, tag=5, nbytes=64)
        elif mpi.rank == 1:
            yield from mpi.recv(0, tag=5, nbytes=16)
        # defect 2: ranks 1 and 2 put to the same window range in one epoch
        win = yield from mpi.win_create(16, datatype=INT)
        yield from mpi.win_fence(win)
        if mpi.rank in (1, 2):
            yield from mpi.put(win, 0, np.full(8, mpi.rank, dtype="i4"))
        yield from mpi.win_fence(win)
        yield from mpi.win_free(win)
        yield from mpi.finalize()


@register_defect
class DefectLeakDeadlock(DefectProgram):
    """Two unrelated defects in one program: a leaked isend request on a
    rank that reaches MPI_Finalize, plus a head-to-head receive deadlock
    between two other ranks.

    The cross-contamination fixture for the deadlock path: the run must
    report exactly ``{REQUEST_LEAK, DEADLOCK}``.  The leak belongs to rank
    2, which *entered* the collective MPI_Finalize before the deadlock hit
    -- finalize-entry tracking is what keeps the deadlock from masking it
    -- while the blocked ranks' pending receives must surface only in the
    deadlock diagnosis, never as leaks of their own.
    """

    name = "defect_leak_deadlock"
    module = "defect_leak_deadlock.c"
    expected_finding = FindingKind.REQUEST_LEAK
    expected_findings = (FindingKind.REQUEST_LEAK, FindingKind.DEADLOCK)
    default_nprocs = 3

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        # defect 1: rank 2's isend completes (rank 1 receives it) but the
        # request is dropped on the floor; rank 2 then enters finalize
        if mpi.rank == 2:
            yield from mpi.isend(1, tag=13, nbytes=4)  # request dropped
        elif mpi.rank == 1:
            yield from mpi.recv(2, tag=13, nbytes=4)
        # defect 2: ranks 0 and 1 post head-to-head blocking receives
        if mpi.rank == 0:
            yield from mpi.recv(1, tag=7, nbytes=4)
            yield from mpi.send(1, tag=7, nbytes=4)
        elif mpi.rank == 1:
            yield from mpi.recv(0, tag=7, nbytes=4)
            yield from mpi.send(0, tag=7, nbytes=4)
        yield from mpi.finalize()


@register_defect
class DefectSharedLockRace(DefectProgram):
    """Conflicting puts under overlapping MPI_LOCK_SHARED epochs.

    A shared lock admits several holders at once, so two origins that both
    take it and put to the same window range are unordered -- the epochs
    give no happens-before edge the way consecutive exclusive epochs do.
    Passive-target locks exist only on the ``refmpi`` personality.
    """

    name = "defect_shared_lock_race"
    module = "defect_shared_lock_race.c"
    expected_finding = FindingKind.RMA_RACE
    default_nprocs = 3
    required_impl = "refmpi"

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        win = yield from mpi.win_create(16, datatype=INT)
        if mpi.rank in (1, 2):
            yield from mpi.win_lock(win, 0, lock_type="shared")
            yield from mpi.put(win, 0, np.full(8, mpi.rank, dtype="i4"))
            yield from mpi.win_unlock(win, 0)
        yield from mpi.barrier()
        yield from mpi.win_free(win)
        yield from mpi.finalize()


@register_defect
class DefectProbeGatherTruncation(DefectProgram, SpawnWorkload):
    """The data-parallel workload with undersized probe-gather buffers.

    The master posts receive buffers half the size of the workers' probe
    messages (a real nengo-mpi hazard: the probe buffer is sized from the
    *local* model build, the message from the worker's): every probe
    gather trips the truncation detector.  Everything else -- spawn,
    distribution, stepping, disconnect -- is the clean workload, so the
    run must report ``{RECV_TRUNCATION}`` and nothing more.
    """

    name = "defect_probe_gather_truncation"
    module = "defect_probe_gather_truncation.c"
    expected_finding = FindingKind.RECV_TRUNCATION
    default_nprocs = 1

    def __init__(self, **params) -> None:
        params.setdefault("workers", 2)
        params.setdefault("chunks", 4)
        params.setdefault("chunk_elems", 8)
        params.setdefault("steps", 2)
        params.setdefault("work_seconds", 1e-4)
        super().__init__(**params)

    def probe_recv_elems(self, elems: int) -> int:
        return max(1, elems // 2)  # seeded defect: half-size probe buffers


class IntercommLeakChild(MpiProgram):
    """Child of defect_spawn_intercomm_leak: reports up, never disconnects."""

    name = "intercomm_leak_child"
    module = "intercomm_leak_child.c"

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        parent = yield from mpi.comm_get_parent()
        yield from mpi.send(0, nbytes=4, tag=11, comm=parent, payload="up")
        # defect (shared with the parent): parent is never disconnected
        yield from mpi.finalize()


@register_defect
class DefectSpawnIntercommLeak(DefectProgram):
    """A spawn intercommunicator that neither side ever disconnects.

    MPI_Comm_disconnect is the spawn intercomm's MPI_Win_free: both sides
    must collectively sever it before MPI_Finalize.  Here parent and
    children just finalize, so the finalize leak checks must report the
    connected intercomm -- exactly ``{COMM_LEAK}``.
    """

    name = "defect_spawn_intercomm_leak"
    module = "defect_spawn_intercomm_leak.c"
    expected_finding = FindingKind.COMM_LEAK
    default_nprocs = 1
    required_impl = "refmpi"  # exercises the new spawn personality

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        universe = mpi.ep.world.universe
        if "intercomm_leak_child" not in universe.program_registry:
            universe.register_program(IntercommLeakChild())
        inter, _codes = yield from mpi.comm_spawn("intercomm_leak_child", [], 2)
        for _ in range(2):
            yield from mpi.recv(tag=11, comm=inter, nbytes=4)
        # defect: no MPI_Comm_disconnect before MPI_Finalize
        yield from mpi.finalize()
