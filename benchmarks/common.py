"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures: it runs the
experiment (timed under pytest-benchmark), renders the paper-reported
values next to this reproduction's measurements, asserts the *shape*
criteria from DESIGN.md, and writes the rendered report to
``benchmarks/reports/<name>.txt`` (also printed, visible with ``-s``/``-rA``).

The condensed-PC figure harness (:func:`pc_figure`) routes its experiment
runs through ``repro.fleet``: each (program, impl) pair becomes a declarative
:class:`~repro.fleet.RunSpec`, executed via the content-addressed result
cache.  ``repro fleet sweep`` exploits this twice over -- in *collect* mode
(``FLEET_COLLECT`` set) the harness records the specs it would run and
raises :class:`~repro.fleet.CollectOnly` instead of executing, so the sweep
warms the cache in parallel; the subsequent render phase re-runs the benches
and every heavy experiment is a cache hit.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Optional

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"

#: set by ``repro.fleet.sweeps`` collect mode to a list; the harness then
#: appends the RunSpecs it would execute and raises CollectOnly instead of
#: running anything.
FLEET_COLLECT: Optional[list] = None

#: set by ``repro.fleet.render`` render-mode workers to a dict; ``emit``
#: then captures ``name -> text`` instead of touching the reports dir, so
#: the sweep parent is the only writer and the captured bytes become the
#: cached render artifact.
RENDER_CAPTURE: Optional[dict] = None


def emit(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/reports/."""
    if RENDER_CAPTURE is not None:
        RENDER_CAPTURE[name] = text
        print(f"\n{text}\n[report captured: {name}]")
        return
    REPORTS_DIR.mkdir(parents=True, exist_ok=True)
    (REPORTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n[report saved to benchmarks/reports/{name}.txt]")


def once(benchmark, fn: Callable):
    """Run an experiment exactly once under the benchmark timer (the
    workloads are deterministic; repetition only wastes wall time).  In
    collect mode the sweep's timer raises CollectOnly instead."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def pc_figure(
    benchmark,
    name: str,
    title: str,
    program: str,
    impls: dict,
    paper_notes: str = "",
    params: Optional[dict] = None,
    nprocs: Optional[int] = None,
    seed: int = 0,
    **run_options,
) -> dict:
    """Shared harness for the condensed-PC-output figures (Figs 3-24).

    ``program`` is a PPerfMark registry name and ``params`` its constructor
    kwargs; together with each implementation in ``impls`` they form the
    :class:`~repro.fleet.RunSpec` executed through the fleet result cache.
    ``impls`` maps implementation name -> list of required
    ``(hypothesis, *needles)`` findings, optionally prefixed with "!" on
    the hypothesis to assert absence.  Prints the paper's expectation, the
    reproduced condensed PC tree per implementation, and the check table.
    Returns ``{impl: artifact}`` (see :mod:`repro.fleet.execute` for the
    artifact layout; the PC tree is ``artifact["result"]["pc_condensed"]``).
    """
    from repro.analysis import PaperComparison, render_comparisons
    from repro.fleet import CollectOnly, RunSpec, artifact_found, default_cache, run_cached

    specs = {
        impl: RunSpec.make(
            program,
            mode="tool",
            impl=impl,
            nprocs=nprocs,
            seed=seed,
            params=params,
            options=run_options,
        )
        for impl in impls
    }
    if FLEET_COLLECT is not None:
        FLEET_COLLECT.extend(specs.values())
        raise CollectOnly(name)

    cache = default_cache()

    def experiment():
        return {impl: run_cached(spec, cache) for impl, spec in specs.items()}

    results = once(benchmark, experiment)
    comparisons = []
    sections = []
    for impl, requirements in impls.items():
        artifact = results[impl]
        run = artifact["result"]
        sections.append(f"\n--- condensed PC output [{impl}] "
                        f"(sim {run['elapsed']:.1f}s) ---\n"
                        + run["pc_condensed"])
        for requirement in requirements:
            hypothesis, *needles = requirement
            negate = hypothesis.startswith("!")
            hypothesis = hypothesis.lstrip("!")
            found = artifact_found(artifact, hypothesis, *needles)
            holds = (not found) if negate else found
            what = hypothesis + (" @ " + "/".join(needles) if needles else "")
            comparisons.append(
                PaperComparison(
                    quantity=f"[{impl}] {what}",
                    paper="absent" if negate else "found",
                    measured="found" if found else "absent",
                    holds=holds,
                )
            )
    report = render_comparisons(title, comparisons)
    if paper_notes:
        report += "\n\npaper: " + paper_notes
    report += "\n" + "\n".join(sections)
    emit(name, report)
    failed = [c.quantity for c in comparisons if not c.holds]
    assert not failed, f"figure checks failed: {failed}"
    return results
