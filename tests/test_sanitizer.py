"""The MPI correctness sanitizer: detectors, defect library, CLI."""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main
from repro.analysis import render_sanitizer_report, render_sanitizer_summary
from repro.pperfmark.defects import DEFECT_REGISTRY, defect_names
from repro.sanitizer import (
    CLEAN_PROGRAMS,
    FindingKind,
    normalize_mpi_name,
    sanitize_program,
    vc_concurrent,
    vc_join,
    vc_leq,
)
from repro.analysis.runner import cluster_for
from repro.mpi import MpiUniverse
from repro.pperfmark.catalog import resolve_program
from repro.sanitizer.core import Sanitizer
from repro.sanitizer.deadlock import _find_cycle
from repro.sim.kernel import DeadlockError

from conftest import ScriptProgram


# ---------------------------------------------------------------- defects

@pytest.mark.parametrize("name", defect_names())
def test_defect_triggers_exactly_its_detector(name):
    """Every seeded-defect program is flagged with precisely its declared
    kind set (a single kind for all but the multi-defect fixtures)."""
    cls = DEFECT_REGISTRY[name]
    expected = cls.expected_kinds()
    report = sanitize_program(name, impl=cls.required_impl or "lam")
    assert report.status == "findings", f"{name}: expected findings, got clean"
    assert report.kinds() == expected, (
        f"{name}: expected exactly {sorted(k.value for k in expected)}, got "
        f"{sorted(k.value for k in report.kinds())}"
    )
    assert not report.clean


def test_multi_defect_program_reports_both_without_cross_contamination():
    """One run of the two-defect fixture yields both findings, each attributed
    to its own detector/object -- neither masks or duplicates the other."""
    report = sanitize_program("defect_truncation_rma_race", impl="lam")
    assert report.kinds() == {FindingKind.RECV_TRUNCATION, FindingKind.RMA_RACE}
    (trunc,) = report.by_kind(FindingKind.RECV_TRUNCATION)
    (race,) = report.by_kind(FindingKind.RMA_RACE)
    # the truncation is on the point-to-point path (receiver rank 1) ...
    assert trunc.rank == 1
    assert "16 bytes" in trunc.detail and "rank 0" in trunc.detail
    # ... the race on the RMA window, and the two never swap objects
    assert race.obj != trunc.obj
    assert "window" in race.detail


def test_leak_deadlock_reports_both_without_cross_contamination():
    """The deadlock-path multi-defect fixture: one run yields the deadlock
    diagnosis *and* the finalize leak of the rank that reached MPI_Finalize
    before the cycle bit -- the deadlock must not mask the leak, and the
    blocked ranks' pending receives must not surface as leaks."""
    report = sanitize_program("defect_leak_deadlock", impl="lam")
    assert report.kinds() == {FindingKind.REQUEST_LEAK, FindingKind.DEADLOCK}
    (leak,) = report.by_kind(FindingKind.REQUEST_LEAK)
    # the leak belongs to rank 2 (entered finalize), not the blocked ranks
    assert leak.rank == 2
    assert "MPI_Isend" in leak.detail
    (deadlock,) = report.by_kind(FindingKind.DEADLOCK)
    # the cycle names only the two head-to-head receivers
    assert "rank 0" in deadlock.detail and "rank 1" in deadlock.detail
    assert "rank 2" not in deadlock.detail
    assert report.crash and "deadlock" in report.crash


def test_defect_report_carries_rank_and_detail():
    report = sanitize_program("defect_unmatched_send")
    (finding,) = report.by_kind(FindingKind.UNMATCHED_SEND)
    assert finding.rank == 1  # the receiver whose mailbox holds the orphan
    assert "tag" in finding.detail


def test_detector_classes_covered():
    """The defect library exercises well over the required 4 detector classes."""
    kinds = {cls.expected_finding for cls in DEFECT_REGISTRY.values()}
    assert len(kinds) >= 4
    assert {
        FindingKind.RMA_EPOCH_VIOLATION,
        FindingKind.RMA_RACE,
        FindingKind.DEADLOCK,
        FindingKind.RECV_TRUNCATION,
    } <= kinds


# ---------------------------------------------------------- clean programs

@pytest.mark.slow
@pytest.mark.parametrize("name", CLEAN_PROGRAMS)
def test_clean_program_has_zero_findings_under_lam(name):
    report = sanitize_program(name, impl="lam", quick=True)
    assert report.status == "clean", (
        f"{name}/lam false positives: "
        f"{[(f.kind.value, f.detail) for f in report.findings]}"
    )
    assert report.clean and not report.findings


@pytest.mark.parametrize(
    "name", ["allcount", "wincreateblast", "winfencesync", "winscpwsync"]
)
def test_clean_rma_program_under_mpich2(name):
    report = sanitize_program(name, impl="mpich2", quick=True)
    assert report.status == "clean", (
        f"{name}/mpich2: {[(f.kind.value, f.detail) for f in report.findings]}"
    )


def test_passive_target_program_clean_under_refmpi():
    report = sanitize_program("winlocksync", impl="refmpi", quick=True)
    assert report.status == "clean"


def test_mpi2_program_unsupported_under_mpich():
    """MPICH-1 has no MPI-2 entry points: status 'unsupported', no findings."""
    report = sanitize_program("allcount", impl="mpich", quick=True)
    assert report.status == "unsupported"
    assert not report.findings
    assert "MPI_" in (report.crash or "")


def test_spawn_program_unsupported_under_mpich2():
    report = sanitize_program("spawncount", impl="mpich2", quick=True)
    assert report.status == "unsupported"
    assert not report.findings


def test_report_signature_covers_every_rank():
    report = sanitize_program("small_messages", impl="lam", quick=True)
    assert report.status == "clean"
    assert len(report.data_signature) == report.nprocs
    assert len(report.trace_digest) == 64  # sha256 hex
    assert report.elapsed > 0


def test_unknown_program_raises_keyerror():
    with pytest.raises(KeyError):
        sanitize_program("no_such_program")


# ------------------------------------------------------------ vector clocks

def test_vc_join_takes_componentwise_max():
    assert vc_join({0: 1, 1: 5}, {1: 2, 2: 7}) == {0: 1, 1: 5, 2: 7}
    assert vc_join({}, {3: 4}) == {3: 4}


def test_vc_leq_is_a_partial_order():
    assert vc_leq({}, {0: 1})
    assert vc_leq({0: 1}, {0: 1})
    assert vc_leq({0: 1}, {0: 2, 1: 9})
    assert not vc_leq({0: 2}, {0: 1})
    assert not vc_leq({0: 1, 1: 1}, {0: 9})


def test_vc_concurrent_means_neither_ordered():
    assert vc_concurrent({0: 2}, {1: 2})
    assert vc_concurrent({0: 2, 1: 1}, {0: 1, 1: 2})
    assert not vc_concurrent({0: 1}, {0: 2})
    assert not vc_concurrent({0: 1}, {0: 1})  # equal stamps are ordered


# ------------------------------------------------------------ cycle finder

def test_find_cycle_reports_the_member_nodes():
    cycle = _find_cycle({0: [1], 1: [2], 2: [0]})
    assert cycle is not None
    assert set(cycle) == {0, 1, 2}
    # consecutive members (wrapping) are connected by wait-for edges
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert b in {0: [1], 1: [2], 2: [0]}[a]


def test_find_cycle_none_on_dag():
    assert _find_cycle({0: [1, 2], 1: [3], 2: [3], 3: []}) is None
    assert _find_cycle({}) is None


def test_find_cycle_self_loop():
    assert _find_cycle({0: [0]}) == [0]


def test_find_cycle_ignores_acyclic_tail():
    cycle = _find_cycle({0: [1], 1: [2], 2: [1], 3: [0]})
    assert cycle is not None
    assert set(cycle) == {1, 2}


# ------------------------------------------------------------- trace digest
#
# The hook memoizes per function, formats the time stamp once per instant
# and hashes lines in blocks; the digest must still be sha256 over the
# text the plain per-event format gives.  A reference hook registered after
# attach() runs right after the sanitizer's own, formats each event that
# way and hashes the whole text once.


def _reference_trace(universe) -> list:
    """Register, after the sanitizer, hooks that record every event as
    ``{now!r}|{idx}|{name}|{event}``; returns the text's growing list."""
    text = []
    kernel = universe.kernel
    ranks = []

    def on_process(proc, ep, world):
        idx = len(ranks)
        ranks.append(ep)

        def hook(event):
            def record(p, frame):
                name = normalize_mpi_name(frame.name)
                text.append(f"{kernel.now!r}|{idx}|{name}|{event}\n")
            return record

        proc.entry_hooks.append(hook("entry"))
        proc.exit_hooks.append(hook("exit"))

    universe.process_hooks.append(on_process)
    return text


def _reference_digest(text) -> str:
    return hashlib.sha256("".join(text).encode()).hexdigest()


def _sanitized(name, impl):
    program = resolve_program(name, quick=True)
    nprocs = getattr(program, "default_nprocs", 4)
    universe = MpiUniverse(impl=impl, cluster=cluster_for(nprocs, 2), seed=0)
    san = Sanitizer(universe).attach()
    text = _reference_trace(universe)
    universe.launch(program, nprocs)
    return universe, san, text


@pytest.mark.parametrize("name,impl", [
    ("small_messages", "lam"),
    ("small_messages", "mpich"),  # PMPI names fold onto MPI ones
    ("winfencesync", "lam"),
    ("spawncount", "refmpi"),  # spawned ranks hook in mid-run
])
def test_trace_digest_is_sha256_of_the_per_event_text(name, impl):
    universe, san, text = _sanitized(name, impl)
    universe.run()
    assert text
    assert san.trace_digest() == _reference_digest(text)


def test_trace_digest_of_a_deadlocked_run():
    universe, san, text = _sanitized("defect_deadlock_recv", "lam")
    with pytest.raises(DeadlockError):
        universe.run()
    assert text
    assert san.trace_digest() == _reference_digest(text)


def test_trace_digest_across_an_integer_until_cut():
    universe, san, text = _sanitized("random_barrier", "lam")  # ends at 1.95 s
    universe.run(until=1)
    assert type(universe.kernel.now) is int
    cut = len(text)
    assert cut
    # read mid-run: the buffered lines are hashed, the hash stays open
    assert san.trace_digest() == _reference_digest(text)
    universe.run()
    assert len(text) > cut
    assert san.trace_digest() == _reference_digest(text)


def test_time_stamp_follows_the_clocks_type_at_one_instant():
    """An int clock and a float clock at the same value stamp differently
    (``repr(5) != repr(5.0)``), so the per-instant repr is taken again."""
    universe = MpiUniverse(impl="lam", cluster=cluster_for(2, 2), seed=0)
    san = Sanitizer(universe).attach()
    text = _reference_trace(universe)
    world = universe.launch(ScriptProgram(_work_script, functions={"work": _work}), 2)
    kernel = universe.kernel
    universe.run()
    proc = world.endpoints[0].proc
    for now in (5.0, 5, 5, 5.0, 6.0):
        kernel.now = now
        kernel.spawn(proc.call("work", 0.0))
        kernel.run()
    stamps = [line.split("|", 1)[0] for line in text[-10:]]
    assert stamps == ["5.0", "5.0", "5", "5", "5", "5", "5.0", "5.0", "6.0", "6.0"]
    assert san.trace_digest() == _reference_digest(text)


def _work(mpi, proc, seconds):
    return proc.compute(seconds)


def _work_script(mpi):
    yield from mpi.init()
    yield from mpi.proc.call("work", 0.001)
    yield from mpi.finalize()


# -------------------------------------------------------------------- names

def test_normalize_mpi_name_strips_profiling_prefix():
    assert normalize_mpi_name("PMPI_Send") == "MPI_Send"
    assert normalize_mpi_name("MPI_Send") == "MPI_Send"
    assert normalize_mpi_name("childfunction") == "childfunction"


# ---------------------------------------------------------------- rendering

def test_render_sanitizer_report_lists_findings():
    report = sanitize_program("defect_window_leak")
    text = render_sanitizer_report(report)
    assert "defect_window_leak / lam" in text
    assert "FINDINGS" in text
    assert FindingKind.WINDOW_LEAK.value in text


def test_render_sanitizer_summary_tabulates_runs():
    reports = [
        sanitize_program("defect_window_leak"),
        sanitize_program("winfencesync", impl="mpich2", quick=True),
    ]
    text = render_sanitizer_summary(reports)
    assert "Program" in text and "Kinds" in text
    assert "window-leak" in text
    assert "clean" in text


# ---------------------------------------------------------------------- CLI

def test_cli_sanitize_clean_program_exits_zero(capsys):
    rc = main(["sanitize", "winfencesync", "--impl", "mpich2", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "CLEAN" in out


def test_cli_sanitize_defect_exits_one(capsys):
    rc = main(["sanitize", "defect_recv_truncation"])
    out = capsys.readouterr().out
    assert rc == 1
    assert FindingKind.RECV_TRUNCATION.value in out


def test_cli_sanitize_defects_sweep_prints_summary(capsys):
    rc = main(["sanitize", "defects"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "Findings" in out  # the summary table footer
    for name in defect_names():
        assert name in out


def test_cli_sanitize_unknown_program(capsys):
    rc = main(["sanitize", "no_such_program"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown program" in err
