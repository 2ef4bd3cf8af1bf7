"""``repro.fleet`` -- parallel experiment execution with result caching.

The fleet turns "run one simulation" into "execute a sweep of
declaratively-specified runs in parallel, cached, with failures contained":

* :class:`RunSpec` (:mod:`~repro.fleet.spec`) -- frozen description of one
  deterministic run; its canonical digest, salted with the source-tree
  hash, is the cache key;
* :class:`ArtifactStore` / :class:`ResultCache` (:mod:`~repro.fleet.cache`)
  -- the content-addressed artifact-store protocol and its local on-disk
  backend, with atomic writes and hit/miss accounting;
* :class:`FleetScheduler` (:mod:`~repro.fleet.scheduler`) -- the fork pool
  with per-job timeouts and failure containment, driving the
  :class:`JobGraph` (priority/LPT ready order, ``after=`` dependencies,
  bounded retry with backoff) that the remote coordinator drives too;
* :class:`EventLog` (:mod:`~repro.fleet.events`) -- JSONL lifecycle log;
* :mod:`~repro.fleet.render` -- content-addressed incremental report
  rendering: each bench entry point is a ``mode="render"`` spec whose
  digest (its *render key*) covers the bench source, ``common.py``, and
  the artifacts it consumes, so unchanged reports are cache hits;
* :mod:`~repro.fleet.sweeps` / ``python -m repro fleet`` -- whole-paper
  regeneration sweeps (collect, then one pool in which each render starts
  as soon as the artifacts it consumes are terminal) and the ``sweep`` /
  ``status`` / ``clean`` CLI;
* :mod:`~repro.fleet.remote` -- the distributed experiment service: the
  artifact store served over HTTP (``fleet store``), the job-lease
  coordinator (``fleet serve``), stateless cross-machine workers
  (``fleet worker``), and the remote pool behind ``sweep --workers``.

The separation mirrors the one the paper's ecosystem draws between the
instrumentation layer and the daemons that ferry its data: the simulation
and analyses know nothing about scheduling or caching, and the fleet knows
nothing about MPI.
"""

from .cache import (
    ArtifactStore,
    CacheStats,
    ResultCache,
    StoreIntegrityError,
    content_sha256,
    default_cache_root,
)
from .events import EventLog, read_events
from .execute import (
    artifact_found,
    default_cache,
    execute_spec,
    failure_artifact,
    from_bytes,
    report_from_artifact,
    run_cached,
    sanitize_cached,
    to_bytes,
)
from .render import (
    BenchEntry,
    CollectOnly,
    CollectTimer,
    RenderPlan,
    StubTimer,
    bench_dir,
    collect_render_plan,
    execute_render,
    iter_bench_tests,
    restore_reports,
)
from .scheduler import FleetScheduler, JobGraph, JobOutcome
from .spec import RunSpec, canonical_json, code_version
from .sweeps import (
    render_benchmarks,
    run_sweep,
    sanitize_specs,
    sweep_specs,
)

__all__ = [
    "RunSpec",
    "ArtifactStore",
    "ResultCache",
    "StoreIntegrityError",
    "content_sha256",
    "CacheStats",
    "FleetScheduler",
    "JobGraph",
    "JobOutcome",
    "EventLog",
    "read_events",
    "execute_spec",
    "run_cached",
    "sanitize_cached",
    "artifact_found",
    "report_from_artifact",
    "failure_artifact",
    "to_bytes",
    "from_bytes",
    "default_cache",
    "default_cache_root",
    "canonical_json",
    "code_version",
    "CollectOnly",
    "CollectTimer",
    "StubTimer",
    "BenchEntry",
    "RenderPlan",
    "bench_dir",
    "iter_bench_tests",
    "collect_render_plan",
    "execute_render",
    "restore_reports",
    "sanitize_specs",
    "sweep_specs",
    "run_sweep",
    "render_benchmarks",
]
