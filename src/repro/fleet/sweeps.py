"""Sweep definitions and :func:`run_sweep`.

``repro fleet sweep`` regenerates the full paper reproduction, incremental
against the content-addressed cache:

1. **collect** -- the bench suite runs in collect mode
   (:func:`~repro.fleet.render.collect_render_plan`): each bench entry
   point records the :class:`RunSpec` runs it would execute and gets a
   ``mode="render"`` spec of its own whose digest is its *render key*
   (bench source + ``common.py`` + consumed-artifact digests + mode salt);
2. **one pool** -- every experiment spec (bench-collected runs, the
   sanitizer sweep over the clean programs, the seeded-defect library) and
   every render spec go through a single pool -- the local
   :class:`FleetScheduler`, or the :class:`~repro.fleet.remote.RemotePool`
   with ``--workers`` -- parallel, cached, failures contained.  The local
   pool launches ready jobs longest-predicted-first, predicting each job's
   wall as the last one its label ran for in the summary this sweep
   overwrites or in the cache's event log.  A render is submitted
   ``after`` the artifacts it consumes and starts the moment they are
   terminal; a bench that consumes none starts at once.  An unchanged
   render key is a cache hit (the bench is skipped and its reports
   restored byte-identically), and the parent writes every captured
   report to ``benchmarks/reports/`` as the single writer.

Collect is the only barrier.  The *warm* and *render* phases reported in
the summary are windows over the pool's own job events -- a ``render:``
label is render, anything else warm -- so they overlap by design.

Spec collection reuses the bench suite as the single source of truth: in
collect mode ``benchmarks/common.py`` raises :class:`CollectOnly` from its
harness entry points after recording the specs it would have run, so the
figure list can never drift from the benches.  Benches that *fail* to
collect are counted and reported (``summary["collect"]["failures"]``), not
silently dropped.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from ..observe.critical_path import critical_path, phase_of  # mode-salt: none
from ..observe.export import write_trace  # mode-salt: none
from ..observe.recorder import recording  # mode-salt: none
from .cache import ArtifactStore, CacheStats
from .events import EventLog
from .execute import default_cache
from .profiles import learned_walls
from .render import (
    CollectOnly,
    RenderPlan,
    StubTimer,
    bench_dir,
    collect_render_plan,
    iter_bench_tests,
    restore_reports,
)
from .scheduler import FleetScheduler
from .spec import RunSpec

__all__ = [
    "CollectOnly",
    "StubTimer",
    "SWEEP_SUITES",
    "sanitize_specs",
    "sweep_specs",
    "run_sweep",
    "render_benchmarks",
    "DEFAULT_SANITIZE_IMPLS",
]

SWEEP_SUITES = ("all", "bench", "sanitize")
DEFAULT_SANITIZE_IMPLS = ("lam", "mpich", "mpich2", "refmpi")
BENCH_OUT = "BENCH_fleet.json"


def sanitize_specs(impls: Sequence[str] = DEFAULT_SANITIZE_IMPLS) -> list[RunSpec]:
    """The ``repro sanitize all`` sweep (plus the defect library) as specs."""
    from ..pperfmark.defects import DEFECT_REGISTRY
    from ..pperfmark.catalog import CLEAN_PROGRAMS

    specs = [
        RunSpec.make(name, mode="sanitize", impl=impl, quick=True)
        for impl in impls
        for name in CLEAN_PROGRAMS
    ]
    specs.extend(
        RunSpec.make(
            name,
            mode="sanitize",
            impl=getattr(cls, "required_impl", None) or "lam",
        )
        for name, cls in sorted(DEFECT_REGISTRY.items())
    )
    return specs


def sweep_specs(
    suite: str = "all",
    *,
    sanitize_impls: Sequence[str] = DEFAULT_SANITIZE_IMPLS,
    chaos: int = 0,
) -> list[RunSpec]:
    """Every spec a sweep of ``suite`` can touch -- including the per-bench
    ``mode="render"`` specs, so ``fleet clean --gc`` keeps cached reports."""
    if suite not in SWEEP_SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {SWEEP_SUITES}")
    specs: list[RunSpec] = []
    if suite in ("all", "bench"):
        plan = collect_render_plan()
        specs.extend(plan.specs)
        specs.extend(entry.spec for entry in plan.benches)
    if suite in ("all", "sanitize"):
        specs.extend(sanitize_specs(sanitize_impls))
    specs.extend(
        RunSpec.make(f"chaos-{i}", mode="chaos") for i in range(chaos)
    )
    return specs


def render_benchmarks() -> tuple[int, list[tuple[str, str]]]:
    """Serial in-process render: run every bench entry point with a stub
    timer, regenerating the reports under ``benchmarks/reports/`` directly.

    This is the pre-incremental fallback path (and the oracle the render
    determinism tests compare the parallel/cached pipeline against).
    Failures are contained and returned as ``(bench, error)`` pairs.
    """
    ran = 0
    failures: list[tuple[str, str]] = []
    for mod, name, fn in iter_bench_tests():
        target = f"{mod}::{name}"
        try:
            fn(StubTimer())
            ran += 1
        except Exception as exc:  # noqa: BLE001 - containment
            failures.append((target, f"{type(exc).__name__}: {exc}"))
    return ran, failures


def _restore_renders(plan: RenderPlan, pool) -> dict:
    """Restore every captured report from the render artifacts and build
    the render summary -- the parent is the single writer of
    ``benchmarks/reports/``."""
    rows = sorted(((pool.outcomes[e.spec.digest], e) for e in plan.benches),
                  key=lambda row: (-row[0].wall, row[0].job))
    outcomes = [outcome for outcome, _ in rows]
    bench = bench_dir()
    failures: list[tuple[str, str]] = []
    per_bench: list[dict] = []
    for outcome, entry in rows:
        artifact = pool.results.get(outcome.digest)
        if artifact is not None and artifact.get("status") == "ok":
            if bench is not None:
                restore_reports(artifact, bench / "reports")
        else:
            error = (artifact or {}).get("error") or {}
            failures.append((
                entry.target,
                f"{error.get('type', 'error')}: {error.get('message', '')}",
            ))
        per_bench.append({
            "bench": entry.target,
            "status": outcome.status,
            "cached": outcome.cached,
            "wall": round(outcome.wall, 4),
        })
    return {
        "benches": len(plan.benches),
        "skipped": sum(1 for o in outcomes if o.status == "cached"),
        "rendered": sum(1 for o in outcomes if o.status == "completed"),
        "failed": sum(1 for o in outcomes if o.status == "failed"),
        "failures": [list(f) for f in failures],
        "per_bench": per_bench,
    }


def run_sweep(
    *,
    suite: str = "all",
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    chaos: int = 0,
    chaos_seed: int = 0,
    workers: Optional[str] = None,
    cache: Optional[ArtifactStore] = None,
    events: Optional[EventLog] = None,
    bench_out: Optional[Path] = None,
    sanitize_impls: Sequence[str] = DEFAULT_SANITIZE_IMPLS,
    trace_dir: Optional[Path] = None,
    live: bool = False,
    live_port: int = 0,
    live_token: Optional[str] = None,
    live_linger: float = 2.0,
    order_seed: Optional[int] = None,
) -> dict:
    """Full sweep: collect render keys, then run one dependency-aware
    schedule -- experiments and renders share a single pool, each render
    admitted the moment its consumed artifacts are all terminal, ready jobs
    ordered longest-predicted-first from the walls earlier sweeps recorded
    (:func:`~repro.fleet.profiles.learned_walls` over ``bench_out`` and the
    cache's event log).  Returns the machine-readable summary also written
    to ``bench_out``.

    ``order_seed`` seeds a shuffle of ready-queue tie-breaks (adversarial
    -order determinism testing); artifacts and reports are byte-identical
    for every value.

    With ``workers`` set (``--workers host:port``), the same single pool
    runs through the remote workers attached to that coordinator instead
    of local forks, and the coordinator's store is the sweep's cache
    (passing a ``cache`` too is a ``ValueError``).  ``--chaos``
    additionally arms ``chaos`` deterministic worker kills (seeded by
    ``chaos_seed``) to drill the steal/retry path.

    With ``trace_dir`` set (``--trace``), the scheduler and every worker
    mirror their flight recorders into that directory; afterwards the
    per-process streams are merged into ``trace.jsonl`` + a Perfetto-
    loadable ``trace.json``.

    With ``live`` set (``--live``, implies ``--trace``), a
    :class:`~repro.observe.live.LiveObservatory` serves the growing
    mirrors to concurrent viewers for the duration of the sweep (plus
    ``live_linger`` seconds, so attached clients can drain the finalized
    feed); ``repro observe watch host:port`` is the first consumer.  The
    service only *reads* what the sweep writes anyway, so artifacts and
    cache state are identical with or without it.
    """
    if workers:
        if cache is not None:
            raise ValueError("a remote sweep's cache is its coordinator's store")
        from .remote.store import HTTPStore  # lazy: local sweeps stay lean
        from .remote.wire import parse_endpoint

        cache = HTTPStore(parse_endpoint(workers).address)
    elif cache is None:
        cache = default_cache()
    if live and trace_dir is None:
        raise ValueError("live=True needs a trace_dir (--live implies --trace)")
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.glob("*.json*"):
            if stale.is_file():
                stale.unlink()
    if events is None:
        # a remote store has no local events file; a live sweep logs
        # next to the mirrors then ("events.log" on purpose: the mirror
        # glob and the stale cleanup only touch *.json*/*.jsonl names),
        # and a plain remote sweep keeps the log in memory
        events_path = getattr(cache, "events_path", None)
        if live and events_path is None:
            events_path = trace_dir / "events.log"
        events = EventLog(events_path)
    # bench bodies resolve the cache via default_cache(); point workers at
    # this sweep's cache root for the duration (inherited over fork)
    prev_cache_env = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache.root)
    observatory = None
    try:
        if live:
            from ..observe.live import LiveObservatory  # mode-salt: none

            observatory = LiveObservatory(
                trace_dir, getattr(events, "path", None),
                port=live_port, token=live_token,
            ).start()
            print(
                f"# live observatory: {observatory.url}  "
                f"(attach with `repro observe watch {observatory.address}`)",
                file=sys.stderr,
            )
        summary = _run_sweep(
            suite=suite, jobs=jobs, timeout=timeout, retries=retries,
            chaos=chaos, chaos_seed=chaos_seed,
            workers=workers, cache=cache,
            events=events, bench_out=bench_out,
            sanitize_impls=sanitize_impls, trace_dir=trace_dir,
            order_seed=order_seed,
        )
        if observatory is not None:
            # every writer is done: seal the feed, then give attached
            # clients a moment to drain it before the socket goes away
            observatory.finalize()
            time.sleep(live_linger)
        return summary
    finally:
        if observatory is not None:
            observatory.shutdown()
        if prev_cache_env is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = prev_cache_env


def _run_sweep(
    *,
    suite: str,
    jobs: Optional[int],
    timeout: Optional[float],
    retries: int,
    chaos: int,
    chaos_seed: int,
    workers: Optional[str],
    cache: ArtifactStore,
    events: EventLog,
    bench_out: Optional[Path],
    sanitize_impls: Sequence[str],
    trace_dir: Optional[Path],
    order_seed: Optional[int] = None,
) -> dict:
    if suite not in SWEEP_SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {SWEEP_SUITES}")
    t0 = time.monotonic()
    events_start = len(getattr(events, "records", []))
    events.emit("sweep-start", suite=suite)

    # the walls earlier sweeps recorded steer the local pool's LPT order:
    # the summary this sweep overwrites (the committed BENCH_fleet.json on a
    # fresh checkout), then the cache's event log.  Remote lease order is
    # the coordinator's (priority, then submission order).
    walls = None
    if not workers:
        walls = learned_walls(bench_out, getattr(cache, "events_path", None))

    # -- collect: render keys + the specs the benches would run -------------
    events.emit("phase-start", phase="collect")
    plan = RenderPlan()
    if suite in ("all", "bench"):
        plan = collect_render_plan()
    events.emit("phase-end", phase="collect")
    collect_wall = time.monotonic() - t0

    specs: list[RunSpec] = list(plan.specs)
    if suite in ("all", "sanitize"):
        specs.extend(sanitize_specs(sanitize_impls))
    specs.extend(RunSpec.make(f"chaos-{i}", mode="chaos") for i in range(chaos))

    with contextlib.ExitStack() as stack:
        if trace_dir is not None:
            stack.enter_context(
                recording(capacity=32768, mirror=trace_dir / "scheduler.jsonl")
            )
        if workers:
            from .remote.pool import RemotePool  # lazy: local sweeps stay lean

            pool = RemotePool(
                workers, timeout=timeout, retries=retries,
                events=events, chaos_kills=chaos, chaos_seed=chaos_seed,
                drain=True, trace_dir=trace_dir,
            )
        else:
            pool = FleetScheduler(
                jobs=jobs, timeout=timeout, retries=retries, cache=cache,
                events=events, trace_dir=trace_dir, walls=walls,
                order_seed=order_seed,
            )
        for spec in specs:
            # defects and chaos jobs are cheap; let the long PC runs go first
            priority = 1 if spec.mode != "tool" else 0
            pool.submit(spec, priority=priority)
        for entry in plan.benches:
            # a render is admitted the moment the artifacts it consumes are
            # terminal
            pool.submit(entry.spec, priority=0, after=entry.consumes)
        pool.run()

    # what actually bounded the sweep's wall clock (observe subsystem),
    # counted from this sweep's own records: its workers are the executors
    # they name, its warm and render windows the job events'
    sweep_records = events.records[events_start:]
    cpath = critical_path(sweep_records)
    scheduling = cpath.pop("scheduling", None)
    remote = None
    if workers:
        # the coordinator's counters over the same records: this sweep only
        from .remote.coordinator import tally

        remote = {"endpoint": pool.endpoint.address, **tally(sweep_records)}

    render_summary = _restore_renders(plan, pool)

    trace_summary = write_trace(trace_dir) if trace_dir is not None else None

    per_job = [
        {
            "phase": phase_of(o.job),
            "digest": o.digest[:12],
            "job": o.job,
            "status": o.status,
            "cached": o.cached,
            "attempts": o.attempts,
            "wall": round(o.wall, 4),
            "error": o.error,
        }
        # warm rows first, then render rows; longest first within each
        for o in sorted(pool.outcomes.values(),
                        key=lambda o: (phase_of(o.job) == "render", -o.wall, o.job))
    ]
    phases = cpath["phases"]
    counts = pool.summary()
    cache_info = cache.describe()
    if workers:
        # the coordinator made every lookup, not this sweep's own store
        # client: a cached-hit row is a hit, any other spec a miss
        looked = CacheStats(hits=counts["cached"],
                            misses=counts["specs"] - counts["cached"])
        cache_info.update(hits=looked.hits, misses=looked.misses,
                          hit_rate=round(looked.hit_rate, 4))
    summary = {
        # schema 8: "remote" counts no worker store hits (the coordinator
        # answers every hit); schema 7 dropped the "profiles"
        # block, schema 6 counted "workers" and "remote" from the sweep's
        # own records, schema 5 made warm/render walls job-event windows,
        # schema 4 added "scheduling", schema 3 "remote"
        "schema": 8,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "suite": suite,
        # the local pool's requested concurrency (it runs at most the
        # usable CPUs); a remote sweep's width is its workers'
        "jobs": None if workers else pool.requested_jobs,
        "workers": cpath["workers"],
        "counts": counts,
        "cache": cache_info,
        "remote": remote,
        "collect": {
            "benches": len(plan.benches),
            "specs": len(plan.specs),
            "failed": len(plan.failures),
            "failures": [list(f) for f in plan.failures],
        },
        "wall": {
            "collect": round(collect_wall, 3),
            "warm": phases.get("warm", {}).get("wall", 0.0),
            "render": phases.get("render", {}).get("wall", 0.0),
            "total": round(time.monotonic() - t0, 3),
        },
        # blocking job chain + worker idle fraction + per-phase decomposition
        # (which phase bounds the sweep) -- repro.observe
        "critical_path": cpath,
        # how well the predicted schedule packed: prediction error,
        # makespan vs the LPT lower bound, render admission lead time
        "scheduling": scheduling,
        "trace": trace_summary,
        "render": render_summary,
        "per_job": per_job,
    }
    if bench_out is not None:
        bench_out = Path(bench_out)
        bench_out.parent.mkdir(parents=True, exist_ok=True)
        bench_out.write_text(json.dumps(summary, indent=2, sort_keys=False) + "\n")
    return summary
