"""Command-line interface: run tool sessions and regenerate paper results.

Usage (after installation)::

    python -m repro list                      # the PPerfMark programs
    python -m repro run small_messages --impl mpich
    python -m repro run oned --impl lam --metric rma_sync_wait
    python -m repro verify hot_procedure --impl lam
    python -m repro sanitize winfencesync --impl mpich2
    python -m repro sanitize all --impl lam --quick
    python -m repro sanitize defects
    python -m repro table2
    python -m repro table3
    python -m repro table1
    python -m repro fleet sweep --jobs 4       # parallel, cached regeneration
    python -m repro fleet status
    python -m repro fleet clean --gc
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import (
    render_table1,
    render_table2,
    render_table3,
    run_program,
    table2_rows,
    table3_rows,
    verify_program,
)
from .core.resources import Focus
from .pperfmark import REGISTRY, create, program_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Performance Tool Support for MPI-2 on Linux' "
            "(Mohror & Karavanic, SC 2004)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the PPerfMark programs")

    run_p = sub.add_parser("run", help="run one program under the tool")
    run_p.add_argument("program", choices=sorted(REGISTRY))
    run_p.add_argument("--impl", default="lam",
                       choices=["lam", "mpich", "mpich2", "refmpi"])
    run_p.add_argument("--nprocs", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--metric", action="append", default=[],
                       help="enable a metric at Whole Program (repeatable)")
    run_p.add_argument("--no-consultant", action="store_true")
    run_p.add_argument("--cpu-threshold", type=float, default=None,
                       help="Performance Consultant CPU threshold (paper default 0.3)")
    run_p.add_argument("--hierarchy", action="store_true",
                       help="print the final resource hierarchy")

    verify_p = sub.add_parser("verify", help="grade one program (Table 2/3 row)")
    verify_p.add_argument("program", choices=sorted(REGISTRY))
    verify_p.add_argument("--impl", default="lam",
                          choices=["lam", "mpich", "mpich2", "refmpi"])

    san_p = sub.add_parser(
        "sanitize", help="run the MPI correctness sanitizer over a program"
    )
    san_p.add_argument(
        "program",
        help="a PPerfMark or defect program name, 'all' (the 17 clean "
        "PPerfMark programs) or 'defects' (the seeded-defect library)",
    )
    san_p.add_argument("--impl", default=None,
                       choices=["lam", "mpich", "mpich2", "refmpi"],
                       help="MPI personality (default lam; defects that "
                       "need a specific personality pick it themselves)")
    san_p.add_argument("--nprocs", type=int, default=None)
    san_p.add_argument("--seed", type=int, default=0)
    san_p.add_argument("--quick", action="store_true",
                       help="scaled-down program parameters (CI sweeps)")
    san_p.add_argument("--jobs", type=int, default=1,
                       help="fleet worker processes to run the programs on")
    san_p.add_argument("--no-cache", action="store_true",
                       help="bypass the fleet result cache")

    mpirun_p = sub.add_parser(
        "mpirun", help="launch a PPerfMark program through the simulated mpirun"
    )
    mpirun_p.add_argument("--impl", default="lam",
                          choices=["lam", "mpich", "mpich2", "refmpi"])
    mpirun_p.add_argument("args", nargs="+",
                          help="mpirun arguments, e.g. -np 6 small_messages "
                               "or n0-2,4 hot_procedure (LAM notation)")

    sub.add_parser("table1", help="regenerate Table 1 (the RMA metrics)")
    t2 = sub.add_parser("table2", help="regenerate Table 2 (MPI-1 suite)")
    t2.add_argument("--impls", default="lam,mpich")
    t3 = sub.add_parser("table3", help="regenerate Table 3 (MPI-2 suite)")
    t3.add_argument("--impl", default="lam")

    from .fleet.cli import add_fleet_parser
    from .observe.cli import add_observe_parser  # mode-salt: none

    add_fleet_parser(sub)
    add_observe_parser(sub)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    thresholds = {}
    if args.cpu_threshold is not None:
        thresholds["PC_CPUThreshold"] = args.cpu_threshold
    metrics = [(m, Focus.whole_program()) for m in args.metric]
    program = create(args.program)
    try:
        result = run_program(
            program,
            impl=args.impl,
            nprocs=args.nprocs,
            seed=args.seed,
            consultant=not args.no_consultant,
            metrics=metrics,
            thresholds=thresholds or None,
        )
    except Exception as exc:  # clean CLI diagnostics, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# {args.program} / {args.impl}: ran {result.elapsed:.2f} simulated "
          f"seconds on {result.world.size} processes")
    if not args.no_consultant:
        print("\nCondensed Performance Consultant output:")
        print(result.consultant.render_condensed())
    for metric in args.metric:
        data = result.data(metric)
        print(f"\n{metric} @ Whole Program: total {data.total():.6g}")
        for pid, hist in sorted(data.per_process.items()):
            print(f"  pid{pid}: total {hist.total():.6g}, "
                  f"mean rate {hist.mean_rate():.6g}/s, bin {hist.bin_width}s")
    if args.hierarchy and result.tool is not None:
        print("\nResource hierarchy:")
        print(result.tool.render_hierarchy())
    return 0


def _cmd_mpirun(args: argparse.Namespace) -> int:
    from .analysis.runner import cluster_for
    from .launch import MpirunError, mpirun
    from .mpi import MpiUniverse

    universe = MpiUniverse(impl=args.impl, cluster=cluster_for(8, 2))
    for name in sorted(REGISTRY):
        universe.register_program(create(name))
    try:
        world = mpirun(universe, args.args)
    except (MpirunError, KeyError) as exc:
        print(f"mpirun: {exc}", file=sys.stderr)
        return 2
    universe.run()
    print(f"# ran {world.program.name!r} on {world.size} processes "
          f"({args.impl}), {universe.kernel.now:.2f} simulated seconds")
    for ep in world.endpoints:
        proc = ep.proc
        print(f"  rank {ep.world_rank}: node {proc.node.name}  "
              f"wall {proc.wall_time():.2f}s  user {proc.cpu_user_time():.2f}s  "
              f"sys {proc.cpu_system_time():.2f}s")
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from .analysis.report import render_sanitizer_report, render_sanitizer_summary
    from .fleet import FleetScheduler, RunSpec, default_cache, report_from_artifact
    from .pperfmark.defects import DEFECT_REGISTRY
    from .sanitizer import CLEAN_PROGRAMS

    if args.program == "all":
        names = list(CLEAN_PROGRAMS)
    elif args.program == "defects":
        names = sorted(DEFECT_REGISTRY)
    else:
        names = [args.program]

    def impl_for(name: str) -> str:
        cls = DEFECT_REGISTRY.get(name)
        required = getattr(cls, "required_impl", None) if cls is not None else None
        return required or args.impl or "lam"

    specs = [
        RunSpec.make(
            name,
            mode="sanitize",
            impl=impl_for(name),
            nprocs=args.nprocs,
            seed=args.seed,
            quick=args.quick,
        )
        for name in names
    ]
    scheduler = FleetScheduler(
        jobs=args.jobs, cache=None if args.no_cache else default_cache()
    )
    for spec in specs:
        scheduler.submit(spec)
    artifacts = scheduler.run()
    try:
        reports = [report_from_artifact(artifacts[s.digest]) for s in specs]
    except RuntimeError as exc:  # a failed job, e.g. an unknown program
        print(f"sanitize: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(render_sanitizer_report(report))
    if len(reports) > 1:
        print()
        print(render_sanitizer_summary(reports))
    return 0 if all(r.status in ("clean", "unsupported") for r in reports) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    verdict = verify_program(args.program, args.impl)
    print(f"{verdict.program} / {verdict.impl}: {verdict.result_text} "
          f"(paper: {verdict.paper_result}; "
          f"{'match' if verdict.passed else 'MISMATCH'})")
    for detail in verdict.details:
        print("   ", detail)
    return 0 if verdict.passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("MPI-1:", ", ".join(program_names("mpi1")))
        print("MPI-2:", ", ".join(program_names("mpi2")))
        return 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    if args.command == "mpirun":
        return _cmd_mpirun(args)
    if args.command == "fleet":
        from .fleet.cli import cmd_fleet

        return cmd_fleet(args)
    if args.command == "observe":
        from .observe.cli import cmd_observe  # mode-salt: none

        return cmd_observe(args)
    if args.command == "table1":
        print(render_table1())
        return 0
    if args.command == "table2":
        rows = table2_rows(impls=tuple(args.impls.split(",")))
        print(render_table2(rows))
        return 0 if all(v.passed for v in rows) else 1
    if args.command == "table3":
        rows = table3_rows(impl=args.impl)
        print(render_table3(rows))
        return 0 if all(v.passed for v in rows) else 1
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
