"""Sanitized program runs: build a universe, attach the monitor, classify.

This mirrors :func:`repro.analysis.runner.run_program`'s cluster shape and
placement but installs the :class:`~repro.sanitizer.core.Sanitizer` *before*
``launch`` (call hooks must be in place when processes are created) and
maps run outcomes onto a :class:`~repro.sanitizer.findings.SanitizerReport`:

* normal completion -> finalize leak checks run, status from the findings;
* :class:`DeadlockError` -> the kernel deadlock hook already recorded the
  wait-for-graph diagnosis; leak checks still run for ranks that entered
  MPI_Finalize (a deadlock must not mask their request leaks);
* :class:`RmaEpochError` -> folded into an existing epoch/use-after-free
  finding when the sanitizer saw it first, reported standalone otherwise;
* :class:`UnsupportedFeature` -> status "unsupported" (the program simply
  does not run under this personality -- e.g. RMA under MPICH-1);
* any other :class:`MpiError` -> an ``mpi-error`` finding.
"""

from __future__ import annotations

from typing import Optional, Union

from ..analysis.runner import cluster_for, rank_placement
from ..dyninst.image import ImageError
from ..mpi.errors import MpiError, RmaEpochError, UnsupportedFeature
from ..mpi.world import MpiProgram, MpiUniverse
from ..observe.recorder import active as _observe_active
from ..pperfmark.catalog import resolve_program
from ..sim.kernel import DeadlockError, SimulationError
from .core import Sanitizer
from .findings import Finding, FindingKind, SanitizerReport

__all__ = ["sanitize_program"]


def sanitize_program(
    program: Union[MpiProgram, str],
    *,
    impl: str = "lam",
    nprocs: Optional[int] = None,
    seed: int = 0,
    until: Optional[float] = None,
    quick: bool = False,
) -> SanitizerReport:
    """Run ``program`` under the sanitizer and classify the outcome."""
    if isinstance(program, str):
        program = resolve_program(program, quick=quick)
    nprocs = nprocs or getattr(program, "default_nprocs", 4)
    rec = _observe_active()
    if rec is not None:
        rec.begin("sanitize.build", program=program.name, impl=impl,
                  nprocs=nprocs, seed=seed)
    procs_per_node = getattr(program, "procs_per_node", 2)
    cluster = cluster_for(nprocs, procs_per_node)
    universe = MpiUniverse(impl=impl, cluster=cluster, seed=seed)
    san = Sanitizer(universe).attach()
    if rec is not None:
        rec.end("sanitize.build")
        rec.begin("sanitize.run", program=program.name, impl=impl)

    placement = rank_placement(cluster, nprocs, procs_per_node)
    report = SanitizerReport(
        program=program.name, impl=impl, nprocs=nprocs, seed=seed
    )
    try:
        universe.launch(program, nprocs, placement=placement)
        universe.run(until=until)
    except UnsupportedFeature as exc:
        report.status = "unsupported"
        report.crash = str(exc)
        san.findings.clear()
    except ImageError as exc:
        # personalities omit unsupported MPI symbols from the image entirely
        # (MPICH-1 has no MPI-2 entry points), so a failed resolve of an
        # MPI_* name is the same "does not run here" outcome
        if "'MPI_" not in str(exc):
            raise
        report.status = "unsupported"
        report.crash = str(exc)
        san.findings.clear()
    except DeadlockError as exc:
        report.crash = str(exc)
        if not san.deadlock_reported:  # pragma: no cover - hook always fires
            san.on_deadlock()
        # ranks that made it into MPI_Finalize before the deadlock have
        # committed their leaks; report them alongside the deadlock
        san.finalize_checks(finalized_only=True)
    except RmaEpochError as exc:
        report.crash = str(exc)
        kinds = {f.kind for f in san.findings}
        if (
            FindingKind.WINDOW_USE_AFTER_FREE not in kinds
            and FindingKind.RMA_EPOCH_VIOLATION not in kinds
        ):
            san.findings.append(
                Finding(
                    kind=FindingKind.RMA_EPOCH_VIOLATION,
                    rank=-1,
                    obj="rma",
                    detail=str(exc),
                )
            )
    except (MpiError, SimulationError) as exc:
        report.crash = str(exc)
        san.findings.append(
            Finding(kind=FindingKind.MPI_ERROR, rank=-1, obj="mpi", detail=str(exc))
        )
    else:
        if all(ep.proc.exited for w in universe.worlds for ep in w.endpoints):
            san.finalize_checks()

    if rec is not None:
        rec.end("sanitize.run", elapsed=universe.kernel.now)
    report.findings = list(san.findings)
    if report.findings:
        report.status = "findings"
    report.trace_digest = san.trace_digest()
    report.data_signature = san.data_signature()
    report.elapsed = universe.kernel.now
    report.events = universe.kernel._seq
    if rec is not None:
        rec.instant("sanitize.classify", status=report.status,
                    findings=len(report.findings), elapsed=report.elapsed)
    return report
