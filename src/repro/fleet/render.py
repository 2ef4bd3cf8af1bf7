"""Content-addressed, parallel, incremental report rendering.

Rendering the paper's reports used to be a serial, in-process loop over
every bench entry point under ``benchmarks/`` -- after the warm phase was
parallelized it became the sweep's dominant cost.  This module makes each
bench entry point a :class:`~repro.fleet.spec.RunSpec` of its own
(``mode="render"``), so renders go through the same content-addressed
cache and :class:`~repro.fleet.scheduler.FleetScheduler` as the heavy
experiment runs:

* the spec's **render key** (its digest) covers everything the report's
  bytes can depend on: the bench module source, ``common.py``, the digests
  of the fleet artifacts the bench consumes (recorded during collect
  mode), and the source-tree salt (:func:`~repro.fleet.spec.code_version`);
* an unchanged key is a cache hit -- the bench is *skipped* and its
  reports are restored byte-identically from the cached artifact;
* stale benches execute as parallel scheduler jobs, each wrapped in a
  ``render.bench`` flight-recorder span, reports captured in-memory and
  written by the parent (one writer, no cross-process races);
* a bench body that times its work directly (``once()`` / the benchmark
  fixture) has nothing fleet-routed to collect: it consumes nothing, so
  its render spec starts at once, alongside the experiment runs, and its
  work is cached with its reports instead of re-run at every render.

Collection failures are first-class here: a bench that raises while being
collected lands in :attr:`RenderPlan.failures` instead of being silently
dropped from the sweep.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from ..observe.recorder import active as _observe_active
from .spec import RunSpec

__all__ = [
    "CollectOnly",
    "StubTimer",
    "CollectTimer",
    "BenchEntry",
    "RenderPlan",
    "bench_dir",
    "iter_bench_tests",
    "collect_render_plan",
    "execute_render",
    "restore_reports",
]


class CollectOnly(Exception):
    """Raised by the bench harness in collect mode instead of executing."""


class StubTimer:
    """Duck-type of the pytest-benchmark fixture as the harness uses it."""

    def pedantic(self, fn, rounds=1, iterations=1):
        return fn()

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class CollectTimer(StubTimer):
    """Collect-mode timer: the first timed call aborts the bench body.

    Benches that route work through ``pc_figure`` raise :class:`CollectOnly`
    before ever touching the timer; for everything else the body *is* the
    work, so the moment it asks the timer to run something we bail out --
    its work then runs once, in its render job, instead of inline during
    collection.
    """

    def pedantic(self, fn, rounds=1, iterations=1):
        raise CollectOnly("timed bench body")

    def __call__(self, fn, *args, **kwargs):
        raise CollectOnly("timed bench body")


@dataclass(frozen=True)
class BenchEntry:
    """One bench entry point and its render spec (see module docstring)."""

    module: str
    test: str
    spec: RunSpec
    #: digests of the warm-phase artifacts the bench consumes (collect mode)
    consumes: tuple = ()

    @property
    def target(self) -> str:
        return f"{self.module}::{self.test}"


@dataclass
class RenderPlan:
    """Everything one collection pass learned about the bench suite."""

    benches: list = field(default_factory=list)  # [BenchEntry]
    #: deduped warm-phase specs recorded via FLEET_COLLECT (pc_figure runs)
    specs: list = field(default_factory=list)  # [RunSpec]
    #: benches that raised during collection: (target, "Type: message")
    failures: list = field(default_factory=list)


# -- bench discovery ---------------------------------------------------------


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def bench_dir() -> Optional[Path]:
    """The bench suite directory, or ``None`` when absent.

    ``REPRO_BENCH_DIR`` overrides the in-repo ``benchmarks/`` (hermetic
    render tests point it at a synthetic suite).
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    bench = Path(override) if override else _repo_root() / "benchmarks"
    return bench if (bench / "common.py").is_file() else None


_SRC_SIG_ATTR = "__repro_src_sig__"
_COMMON_GEN_ATTR = "__repro_common_gen__"
#: bumped whenever ``common`` is (re)imported -- bench modules bind
#: ``import common`` at import time, so a reloaded common must evict every
#: cached bench module or they keep emitting through the stale harness
_COMMON_GEN = [0]


def _import_from(bench: Path, stem: str):
    """Import ``stem`` from ``bench``, evicting a cached module that is
    stale: loaded from a different directory (the bench dir can change
    between calls via ``REPRO_BENCH_DIR``), from an older version of the
    file (an edited bench must be re-collected *and* re-executed from its
    new source, not from the module cache), or bound to a since-reloaded
    ``common``."""
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    path = bench / f"{stem}.py"
    stat = path.stat()
    sig = (str(path), stat.st_mtime_ns, stat.st_size)
    module = sys.modules.get(stem)
    if module is not None and (
        getattr(module, "__file__", None) != sig[0]
        or getattr(module, _SRC_SIG_ATTR, None) != sig
        or (
            stem != "common"
            and getattr(module, _COMMON_GEN_ATTR, None) != _COMMON_GEN[0]
        )
    ):
        del sys.modules[stem]
        module = None
    if module is None:
        module = importlib.import_module(stem)
        if stem == "common":
            _COMMON_GEN[0] += 1
        setattr(module, _SRC_SIG_ATTR, sig)
        setattr(module, _COMMON_GEN_ATTR, _COMMON_GEN[0])
    return module


def iter_bench_tests(
    bench: Optional[Path] = None,
) -> Iterator[tuple[str, str, object]]:
    """Yield ``(module_name, test_name, fn)`` for every bench entry point."""
    bench = bench if bench is not None else bench_dir()
    if bench is None:
        return
    _import_from(bench, "common")  # bench modules do `import common`
    for path in sorted(bench.glob("bench_*.py")):
        module = _import_from(bench, path.stem)
        for name in sorted(dir(module)):
            if name.startswith("test_"):
                yield path.stem, name, getattr(module, name)


# -- collection --------------------------------------------------------------


def _source_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _render_spec(
    module: str, test: str, sources: dict, consumes: tuple
) -> RunSpec:
    """The render key, as a spec: digest = sha256 over bench + common source
    hashes, consumed warm-artifact digests, and the source-tree salt."""
    return RunSpec.make(
        f"{module}::{test}",
        mode="render",
        impl="bench",
        params={"sources": dict(sources), "consumes": list(consumes)},
    )


def collect_render_plan() -> RenderPlan:
    """Run the bench suite in collect mode and plan the render phase.

    Every entry point is invoked with a :class:`CollectTimer`; the harness
    (``benchmarks/common.py``) appends the RunSpecs it would execute to
    ``FLEET_COLLECT`` and raises :class:`CollectOnly`.  The specs appended
    between one bench's start and its CollectOnly are the artifacts that
    bench *consumes* -- their digests go into its render key.  A bench
    that raises anything else is recorded as a collection failure, never
    silently dropped.
    """
    plan = RenderPlan()
    bench = bench_dir()
    if bench is None:
        return plan
    common = _import_from(bench, "common")
    common_path = bench / "common.py"
    collected: list[RunSpec] = []
    common.FLEET_COLLECT = collected
    try:
        for path in sorted(bench.glob("bench_*.py")):
            try:
                module = _import_from(bench, path.stem)
            except Exception as exc:  # noqa: BLE001 - containment
                plan.failures.append(
                    (f"{path.stem}::<import>", f"{type(exc).__name__}: {exc}")
                )
                continue
            sources = {
                "bench": _source_hash(path),
                "common": _source_hash(common_path),
            }
            for name in sorted(dir(module)):
                if not name.startswith("test_"):
                    continue
                fn = getattr(module, name)
                before = len(collected)
                try:
                    fn(CollectTimer())
                except CollectOnly:
                    pass
                except Exception as exc:  # noqa: BLE001 - containment
                    plan.failures.append(
                        (f"{path.stem}::{name}", f"{type(exc).__name__}: {exc}")
                    )
                    continue
                consumes = tuple(
                    sorted({s.digest for s in collected[before:]})
                )
                plan.benches.append(
                    BenchEntry(
                        module=path.stem,
                        test=name,
                        spec=_render_spec(path.stem, name, sources, consumes),
                        consumes=consumes,
                    )
                )
    finally:
        common.FLEET_COLLECT = None
    unique: dict[str, RunSpec] = {}
    for spec in collected:
        unique.setdefault(spec.digest, spec)
    plan.specs = list(unique.values())
    return plan


# -- execution (runs inside a scheduler worker) ------------------------------


def execute_render(spec: RunSpec) -> dict:
    """Execute one ``mode="render"`` spec: run the bench entry point with a
    stub timer, capturing every report it emits instead of writing them.

    The heavy experiment runs inside the bench body go through
    ``run_cached`` against the (warm) cache, so a cold render's cost is
    rendering, not simulation.  Returns the mode-specific ``result``
    payload: captured reports keyed by name, written to
    ``benchmarks/reports/`` by the parent via :func:`restore_reports`.
    """
    bench = bench_dir()
    if bench is None:
        raise RuntimeError("bench suite not found (benchmarks/common.py)")
    module_name, _, test_name = spec.program.partition("::")
    common = _import_from(bench, "common")
    module = _import_from(bench, module_name)
    fn = getattr(module, test_name)
    captured: dict[str, str] = {}
    common.RENDER_CAPTURE = captured
    rec = _observe_active()
    if rec is not None:
        rec.begin("render.bench", bench=spec.program)
    try:
        fn(StubTimer())
    except BaseException as exc:
        if rec is not None:
            rec.end("render.bench", status=type(exc).__name__)
        raise
    finally:
        common.RENDER_CAPTURE = None
    if rec is not None:
        rec.end("render.bench", status="ok", reports=len(captured))
    return {"bench": spec.program, "reports": captured}


def restore_reports(artifact: dict, reports_dir: Path) -> list[str]:
    """Write a render artifact's captured reports to ``reports_dir``,
    byte-identical to what ``common.emit`` would have written directly.
    Returns the report names written."""
    reports = (artifact.get("result") or {}).get("reports") or {}
    reports_dir.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(reports.items()):
        (reports_dir / f"{name}.txt").write_text(text + "\n")
    return sorted(reports)
