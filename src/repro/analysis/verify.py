"""Pass/fail verdicts for the PPerfMark suite (Tables 2 and 3).

Each program carries a behavioural contract
(:class:`repro.pperfmark.base.Expectation`); this module runs a program
under the tool, checks the Performance Consultant's true nodes -- plus
program-specific exact checks (operation counts for ``allcount``, window
detection for ``wincreateblast``, process detection for the spawn
programs) -- and produces the Pass/Fail rows of the paper's Tables 2/3.

Programs the paper marks specially are preserved:

* ``system_time`` must FAIL (all hypotheses false; Paradyn has no default
  system-time metrics);
* ``diffuse_procedure`` requires the CPU threshold lowered to 0.2 before
  the computational bottleneck is found, so its verdict run uses that
  setting and the detail notes it (Section 5.1.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..core.resources import Focus
from ..pperfmark.base import REGISTRY, Expectation, PPerfProgram
from .runner import RunResult, run_program

__all__ = ["Verdict", "verify_program", "table2_rows", "table3_rows", "MPI1_PROGRAMS", "MPI2_PROGRAMS"]

MPI1_PROGRAMS = (
    "small_messages",
    "big_message",
    "wrong_way",
    "intensive_server",
    "random_barrier",
    "diffuse_procedure",
    "system_time",
    "hot_procedure",
)

MPI2_PROGRAMS = (
    "allcount",
    "wincreateblast",
    "winfencesync",
    "winscpwsync",
    "spawncount",
    "spawnsync",
    "spawnwinsync",
)

#: per-program run configuration used for the verdict runs
_RUN_CONFIG: dict[str, dict[str, Any]] = {
    # the paper lowered the CPU-usage threshold to 0.2 for this program
    "diffuse_procedure": {"thresholds": {"PC_CPUThreshold": 0.2}},
}

_WHOLE = Focus.whole_program()

#: metric-focus pairs pre-enabled for programs verified by exact counters
_RUN_METRICS: dict[str, list] = {
    "allcount": [
        ("rma_put_ops", _WHOLE),
        ("rma_get_ops", _WHOLE),
        ("rma_acc_ops", _WHOLE),
        ("rma_ops", _WHOLE),
        ("rma_put_bytes", _WHOLE),
        ("rma_get_bytes", _WHOLE),
        ("rma_acc_bytes", _WHOLE),
        ("rma_bytes", _WHOLE),
    ],
    "spawnsync": [("msgs_recv", _WHOLE), ("msg_bytes_recv", _WHOLE)],
}


@dataclass
class Verdict:
    """One row of Table 2 / Table 3.

    Two distinct judgements live here:

    * :attr:`tool_result` -- the Pass/Fail the paper's table prints (did
      the *tool* correctly diagnose the program; "Fail" for system-time);
    * :attr:`passed` -- did this *reproduction* match the paper's row.
    """

    program: str
    impl: str
    passed: bool = False
    tool_result: str = ""
    paper_result: str = "Pass"
    details: list[str] = field(default_factory=list)
    description: str = ""
    result: Optional[RunResult] = None

    @property
    def result_text(self) -> str:
        return self.tool_result

    def note(self, ok: bool, text: str) -> bool:
        self.details.append(("PASS " if ok else "MISS ") + text)
        return ok


def _check_expectation(verdict: Verdict, expectation: Expectation, result: RunResult) -> bool:
    pc = result.consultant
    ok = True
    if expectation.all_false:
        true_nodes = pc.true_nodes()
        good = not true_nodes
        verdict.note(
            good,
            "Performance Consultant reports every hypothesis false"
            + ("" if good else f" (found {[n.describe() for n in true_nodes[:4]]})"),
        )
        # the paper records this behaviour as a *failed* test for the tool
        return good
    for requirement in expectation.required:
        hypothesis, *needles = requirement
        found = pc.found(hypothesis, *needles)
        what = f"{hypothesis}" + (f" at {'/'.join(needles)}" if needles else "")
        ok &= verdict.note(found, f"PC finds {what}")
    for forbidden in expectation.forbidden:
        hypothesis, *needles = forbidden
        found = pc.found(hypothesis, *needles)
        what = f"{hypothesis}" + (f" at {'/'.join(needles)}" if needles else "")
        ok &= verdict.note(not found, f"PC does not report {what}")
    return ok


def _verify_allcount(verdict: Verdict, result: RunResult) -> bool:
    program = result.program
    ok = True
    pairs = [
        ("rma_put_ops", program.expected_put_ops()),
        ("rma_get_ops", program.expected_get_ops()),
        ("rma_acc_ops", program.expected_acc_ops()),
        ("rma_ops", program.expected_put_ops() + program.expected_get_ops() + program.expected_acc_ops()),
        ("rma_put_bytes", program.expected_put_bytes()),
        ("rma_get_bytes", program.expected_get_bytes()),
        ("rma_acc_bytes", program.expected_acc_bytes()),
        ("rma_bytes", program.expected_put_bytes() + program.expected_get_bytes() + program.expected_acc_bytes()),
    ]
    for metric, expected in pairs:
        measured = result.data(metric).total()
        ok &= verdict.note(
            measured == expected,
            f"{metric}: measured {measured:.0f} == expected {expected}",
        )
    ok &= verdict.note(program.verified, "window contents verified by the program")
    return ok


def _verify_wincreateblast(verdict: Verdict, result: RunResult) -> bool:
    program = result.program
    hierarchy = result.tool.hierarchy
    windows = list(hierarchy.sync_objects.child("Window").children.values())
    ok = verdict.note(
        len(windows) == program.num_windows,
        f"{len(windows)} window resources for {program.num_windows} windows created",
    )
    names = [w.name for w in windows]
    ok &= verdict.note(len(set(names)) == len(names), "all N-M identifiers unique")
    impl_ids = {int(name.split("-")[0]) for name in names}
    ok &= verdict.note(
        len(impl_ids) < program.num_windows,
        f"implementation reused ids ({len(impl_ids)} distinct for {program.num_windows} windows)",
    )
    retired = sum(1 for w in windows if w.retired)
    ok &= verdict.note(retired == program.num_windows, f"{retired} windows retired after MPI_Win_free")
    return ok


def _verify_spawncount(verdict: Verdict, result: RunResult) -> bool:
    program = result.program
    hierarchy = result.tool.hierarchy
    procs = [
        node
        for machine in hierarchy.machine.children.values()
        for node in machine.children.values()
    ]
    expected = result.world.size + program.expected_children()
    ok = verdict.note(
        len(procs) == expected,
        f"{len(procs)} process resources == {result.world.size} parents + "
        f"{program.expected_children()} spawned children",
    )
    detected = len(result.tool.spawn_support.detected)
    ok &= verdict.note(
        detected == program.expected_children(),
        f"spawn support detected {detected} children",
    )
    return ok


def _verify_spawnsync_counts(verdict: Verdict, result: RunResult) -> bool:
    program = result.program
    expected = program.expected_messages()
    measured = result.data("msgs_recv").total()
    # children also receive nothing else on the intercomm; parents receive 0
    return verdict.note(
        measured == expected,
        f"counted {measured:.0f} received messages == expected {expected}",
    )


def _verify_spawnwinsync_naming(verdict: Verdict, result: RunResult) -> bool:
    hierarchy = result.tool.hierarchy
    named = [
        node.display_name
        for node in hierarchy.sync_objects.walk()
        if node.display_name
    ]
    return verdict.note(
        "ParentChildWin" in named,
        f"window friendly name displayed (names seen: {sorted(set(named))})",
    )


def verify_program(
    name: str,
    impl: str = "lam",
    *,
    program: Optional[PPerfProgram] = None,
    **run_overrides: Any,
) -> Verdict:
    """Run one PPerfMark program under the tool and grade the result."""
    cls = REGISTRY[name]
    program = program or cls()
    verdict = Verdict(
        program=name,
        impl=impl,
        description=cls.description,
        paper_result="Fail" if name == "system_time" else "Pass",
    )
    config: dict[str, Any] = dict(_RUN_CONFIG.get(name, {}))
    config.update(run_overrides)
    config.setdefault("metrics", _RUN_METRICS.get(name, []))
    result = run_program(program, impl=impl, **config)
    verdict.result = result

    ok = _check_expectation(verdict, program.expectation, result)
    if name == "allcount":
        ok &= _verify_allcount(verdict, result)
    elif name == "wincreateblast":
        ok &= _verify_wincreateblast(verdict, result)
    elif name == "spawncount":
        ok &= _verify_spawncount(verdict, result)
    elif name == "spawnsync":
        ok &= _verify_spawnsync_counts(verdict, result)
    elif name == "spawnwinsync":
        ok &= _verify_spawnwinsync_naming(verdict, result)

    if name == "system_time":
        # the behavioural contract held (everything false), which for this
        # program means the tool FAILED the test -- exactly the paper's row
        verdict.tool_result = "Fail" if ok else "Pass"
        verdict.details.append(
            "Paradyn does not have default metrics for system time -> Fail"
        )
    else:
        verdict.tool_result = "Pass" if ok else "Fail"
    verdict.passed = verdict.tool_result == verdict.paper_result
    return verdict


def table2_rows(impls: tuple[str, ...] = ("lam", "mpich"), **overrides: Any) -> list[Verdict]:
    """Regenerate Table 2 (PPerfMark MPI-1) for the given implementations."""
    rows = []
    for name in MPI1_PROGRAMS:
        for impl in impls:
            rows.append(verify_program(name, impl, **overrides))
    return rows


def table3_rows(impl: str = "lam", **overrides: Any) -> list[Verdict]:
    """Regenerate Table 3 (PPerfMark MPI-2).

    LAM is the primary implementation (as in the paper: MPICH2 0.96p2 did
    not support dynamic process creation, so the spawn programs ran under
    LAM only)."""
    rows = []
    for name in MPI2_PROGRAMS:
        rows.append(verify_program(name, impl, **overrides))
    return rows
