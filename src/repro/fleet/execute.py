"""Executing one RunSpec into a serializable, byte-stable artifact.

The executor is deliberately *pure*: given a :class:`RunSpec` it produces a
JSON-serializable artifact dict with no wall-clock timestamps, hostnames or
process ids, so the same spec executed serially, in a worker process, or
replayed from a warm cache yields byte-identical
:func:`to_bytes` output.  Everything the analyses and benches consume from
a run is condensed into the artifact:

* **tool** runs -- simulated elapsed time, the condensed Performance
  Consultant tree, every true PC node ``(hypothesis, focus, value)``, the
  search summary, sync-object display names, and per-metric histogram totals;
* **sanitize** runs -- the full :class:`SanitizerReport` (findings, trace
  digest, per-rank data signature), reconstructible via
  :func:`report_from_artifact`;
* **render** runs -- one bench entry point executed with a stub timer, its
  emitted reports captured by name (see :mod:`repro.fleet.render`);
* **chaos** runs -- raise, on purpose (failure-containment drills).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from ..observe.recorder import active as _observe_active
from .cache import ArtifactStore, ResultCache, default_cache_root
from .spec import RunSpec, canonical_json

__all__ = [
    "ARTIFACT_SCHEMA",
    "execute_spec",
    "to_bytes",
    "from_bytes",
    "failure_artifact",
    "artifact_found",
    "report_from_artifact",
    "run_cached",
    "sanitize_cached",
    "default_cache",
    "open_store",
]

ARTIFACT_SCHEMA = 1

_default_cache: Optional[ArtifactStore] = None


def open_store(location: Union[str, Path]) -> ArtifactStore:
    """The store at ``location``: the HTTP client for an ``http(s)://`` URL
    (a coordinator's store), else the local directory."""
    if isinstance(location, str) and location.startswith(("http://", "https://")):
        from .remote.store import HTTPStore  # lazy: remote is optional

        return HTTPStore(location)
    return ResultCache(location)


def default_cache() -> ArtifactStore:
    """The process-wide artifact store: the local directory at
    ``.repro-cache`` by default; ``REPRO_CACHE_DIR`` overrides the path, and
    an ``http(s)://`` value there selects the remote HTTP backend instead
    (a remote worker's jobs read and write their coordinator's store)."""
    global _default_cache
    root = default_cache_root()
    if _default_cache is None or _default_cache.root != root:
        _default_cache = open_store(root)
    return _default_cache


# -- artifact codec ----------------------------------------------------------


def to_bytes(artifact: dict) -> bytes:
    """Canonical byte serialization (the unit of cache storage and of the
    determinism guarantee: equal artifacts are equal bytes)."""
    return (canonical_json(artifact) + "\n").encode()


def from_bytes(data: bytes) -> dict:
    return json.loads(data.decode())


def failure_artifact(
    spec: RunSpec,
    error_type: str,
    message: str,
    *,
    attempts: int = 1,
    flight_recorder: Optional[dict] = None,
) -> dict:
    """The artifact recorded for a job that crashed, timed out, or exhausted
    its retries -- the sweep carries on and this is what it reports.

    ``flight_recorder`` is the dying worker's recorder dump (or the tail
    salvaged from its trace mirror after a SIGKILL).  It carries wall
    timestamps, which is fine *here only*: failure artifacts are never
    cached, so the byte-stability contract on cached artifacts holds.
    """
    error = {"type": error_type, "message": message, "attempts": attempts}
    if flight_recorder is not None:
        error["flight_recorder"] = flight_recorder
    return {
        "schema": ARTIFACT_SCHEMA,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "failed",
        "error": error,
        "result": None,
    }


# -- execution ---------------------------------------------------------------


def _build_program(spec: RunSpec):
    from ..pperfmark.base import REGISTRY, create
    from ..pperfmark.catalog import resolve_program

    params = spec.program_params()
    if params and spec.program in REGISTRY:
        return create(spec.program, **params)
    return resolve_program(spec.program, quick=spec.quick)


def _execute_tool(spec: RunSpec) -> dict:
    from ..analysis.runner import run_program
    from ..core.resources import Focus

    result = run_program(
        _build_program(spec),
        impl=spec.impl,
        nprocs=spec.nprocs,
        seed=spec.seed,
        metrics=[(m, Focus.whole_program()) for m in spec.metrics],
        **spec.run_options(),
    )
    pc = result.consultant
    sync_objects = []
    if result.tool is not None:
        sync_objects = [
            node.display_name
            for node in result.tool.hierarchy.sync_objects.walk()
            if node.display_name
        ]
    metrics: dict[str, Any] = {}
    for name in spec.metrics:
        data = result.data(name)
        metrics[name] = {
            "total": data.total(),
            "per_process": {
                str(pid): hist.total() for pid, hist in sorted(data.per_process.items())
            },
        }
    return {
        "elapsed": result.elapsed,
        "world_size": result.world.size,
        "pc_condensed": pc.render_condensed(),
        "pc_true": [
            [node.hypothesis.name, node.focus.describe(), node.value]
            for node in pc.true_nodes()
        ],
        "pc_summary": pc.summary(),
        "sync_objects": sync_objects,
        "metrics": metrics,
    }


def _execute_sanitize(spec: RunSpec) -> dict:
    from ..sanitizer.run import sanitize_program

    program = _build_program(spec)
    report = sanitize_program(
        program, impl=spec.impl, nprocs=spec.nprocs, seed=spec.seed
    )
    return {
        "sanitizer": {
            "program": report.program,
            "impl": report.impl,
            "nprocs": report.nprocs,
            "seed": report.seed,
            "status": report.status,
            "crash": report.crash,
            "findings": [
                {
                    "kind": f.kind.value,
                    "rank": f.rank,
                    "obj": f.obj,
                    "detail": f.detail,
                }
                for f in report.findings
            ],
            "trace_digest": report.trace_digest,
            "data_signature": [list(row) for row in (report.data_signature or ())],
            "elapsed": report.elapsed,
        }
    }


def execute_spec(spec: RunSpec) -> dict:
    """Run one spec to completion and return its artifact (raises on error;
    the scheduler/worker layer is responsible for containment)."""
    rec = _observe_active()
    if rec is None:
        return _execute_spec(spec)
    rec.begin("fleet.execute", job=spec.label, digest=spec.digest[:12],
              mode=spec.mode)
    try:
        artifact = _execute_spec(spec)
    except BaseException as exc:
        rec.end("fleet.execute", status=type(exc).__name__)
        raise
    rec.end("fleet.execute", status=artifact["status"])
    return artifact


def _execute_spec(spec: RunSpec) -> dict:
    if spec.mode == "chaos":
        raise RuntimeError(f"injected chaos failure ({spec.program})")
    if spec.mode == "sanitize":
        result = _execute_sanitize(spec)
    elif spec.mode == "tool":
        result = _execute_tool(spec)
    elif spec.mode == "render":
        from .render import execute_render  # lazy: render imports bench suite

        result = execute_render(spec)
    else:  # pragma: no cover - make() rejects unknown modes
        raise ValueError(f"unknown mode {spec.mode!r}")
    return {
        "schema": ARTIFACT_SCHEMA,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "result": result,
    }


# -- artifact accessors ------------------------------------------------------


def artifact_found(artifact: dict, hypothesis: str, *needles: str) -> bool:
    """Mirror of ``PerformanceConsultant.found`` over a serialized artifact."""
    for name, focus_description, _value in artifact["result"]["pc_true"]:
        if name == hypothesis and all(n in focus_description for n in needles):
            return True
    return False


def report_from_artifact(artifact: dict):
    """Reconstruct a :class:`SanitizerReport` from a sanitize artifact."""
    from ..sanitizer.findings import Finding, FindingKind, SanitizerReport

    if artifact.get("status") != "ok":
        error = artifact.get("error") or {}
        raise RuntimeError(
            f"cannot rebuild report from failed artifact: "
            f"{error.get('type')}: {error.get('message')}"
        )
    data = artifact["result"]["sanitizer"]
    return SanitizerReport(
        program=data["program"],
        impl=data["impl"],
        nprocs=data["nprocs"],
        seed=data["seed"],
        status=data["status"],
        findings=[
            Finding(
                kind=FindingKind(f["kind"]),
                rank=f["rank"],
                obj=f["obj"],
                detail=f["detail"],
            )
            for f in data["findings"]
        ],
        crash=data["crash"],
        trace_digest=data["trace_digest"],
        data_signature=tuple(tuple(row) for row in data["data_signature"]),
        elapsed=data["elapsed"],
    )


# -- cached in-process execution --------------------------------------------


def run_cached(spec: RunSpec, cache: Optional[ArtifactStore] = None) -> dict:
    """Execute ``spec`` through the cache: hit -> replay the stored artifact,
    miss -> run in-process and store.  The inline (non-pool) fleet path."""
    cache = cache if cache is not None else default_cache()
    # a corrupt object is quarantined and is a miss: re-execute, re-store
    artifact = cache.load(spec.digest)
    if artifact is not None:
        return artifact
    artifact = execute_spec(spec)
    cache.put(spec.digest, to_bytes(artifact))
    return artifact


def sanitize_cached(
    program: str,
    *,
    impl: str = "lam",
    nprocs: Optional[int] = None,
    seed: int = 0,
    quick: bool = False,
    cache: Optional[ArtifactStore] = None,
):
    """Drop-in for :func:`repro.sanitizer.sanitize_program` that goes through
    the fleet cache (differential tests, ``repro sanitize all``)."""
    spec = RunSpec.make(
        program, mode="sanitize", impl=impl, nprocs=nprocs, seed=seed, quick=quick
    )
    return report_from_artifact(run_cached(spec, cache))
