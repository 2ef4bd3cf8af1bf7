"""The benchmark's three workloads: items, inputs, output checks, digests.

Every workload is a closed loop: one client runs its items back to back,
one *round* (every item once) after another.  The load comes from this
single process, except in ``fleet_sweep``, whose sweeps fork one worker per
job, one at a time.

* ``pc_session`` -- Paradyn with the Performance Consultant on four
  call-heavy paper programs, through :func:`repro.analysis.run_program`
  (what ``repro run`` calls).  Iterations are cut only as far as each
  program's Table 2/3 expectation still holds (the next step down fails
  it: small_messages 12000, wrong_way 400, oned 600, intensive_server 600).
* ``sanitize_suite`` -- :func:`repro.sanitizer.run.sanitize_program` (what
  ``repro sanitize`` calls) over the 17 clean programs on lam and mpich2
  plus the defect library, at four times the ``--quick`` sizes, capped at
  paper size.
* ``fleet_sweep`` -- :func:`repro.fleet.sweeps.run_sweep` (what ``repro
  fleet sweep`` calls) with ``suite="sanitize"`` into a fresh cache, then an
  unchanged re-sweep that must be all cache hits.

Outputs are checked on every item.  Digests hash result payloads only --
never spec digests or artifact bytes, which carry the code-version salt.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import shutil
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

#: the seed at which pinned goldens apply (fleet jobs always run at it)
DEFAULT_SEED = 0

#: (program, impl, constructor params) per Consultant session
PC_SESSIONS = {
    "bench": (
        ("small_messages", "mpich", {"iterations": 14_000}),
        ("wrong_way", "lam", {"iterations": 500}),
        ("oned", "mpich2", {"iterations": 800}),
        ("intensive_server", "lam", {"iterations": 900}),
    ),
    # the two cheapest sessions, for the benchmark's own tests
    "tiny": (
        ("oned", "mpich2", {"iterations": 800}),
        ("intensive_server", "lam", {"iterations": 900}),
    ),
}

SANITIZE_IMPLS = ("lam", "mpich2")
#: quick sizes times this, capped at paper size ("tiny" uses the quick sizes)
SANITIZE_SCALE = {"bench": 4, "tiny": 1}
#: clean programs that need dynamic processes, which mpich2 does not model
SPAWN_PROGRAMS = ("spawncount", "spawnsync", "spawnwinsync", "spawn_workload")

FLEET_IMPLS = {"bench": None, "tiny": ("lam",)}  # None: the sweep's default
#: one worker at a time: on a shared 2-vCPU host, load on either vCPU sets
#: the wall of a 2-worker sweep (cold walls split 2.0 s / 3.2 s between runs),
#: while one worker plus the polling parent can run on whichever vCPU is free
FLEET_JOBS = 1

SCALES = ("bench", "tiny")


def digest(payload: Any) -> str:
    """Short stable hash of a JSON-serialisable payload."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


@dataclass
class ItemResult:
    """One executed item: a session, a sanitizer run, or a fleet job."""

    key: str
    wall: float
    digest: Optional[str] = None
    problems: list[str] = field(default_factory=list)


@contextmanager
def watch_universes(counts: Counter):
    """Count the work of every MPI universe created inside the block:
    kernel events from the flight recorder's ``kernel.run`` spans, message
    matches from the universe's ``event_hooks``, snippets from each
    process's ``snippets_executed``."""
    from repro.mpi.world import MpiUniverse
    from repro.observe.recorder import recording

    universes: list = []
    original = MpiUniverse.__init__

    def on_event(kind: str, data: dict) -> None:
        if kind == "recv_matched":
            counts["mpi.matches"] += 1

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.event_hooks.append(on_event)
        universes.append(self)

    MpiUniverse.__init__ = init
    try:
        with recording(capacity=1 << 16) as rec:
            yield
    finally:
        MpiUniverse.__init__ = original
    counts["sim.kernel.events"] += sum(
        e["args"].get("events", 0) for e in rec.events()
        if e["kind"] == "X" and e["name"] == "kernel.run"
    )
    counts["dyninst.snippets"] += sum(
        ep.proc.snippets_executed
        for u in universes for w in u.worlds for ep in w.endpoints
    )


class Workload:
    """One workload: build inputs from a seed, run rounds, check outputs.

    A round is a list of item calls.  Only the calls are timed and profiled;
    :meth:`check` then checks each call's output and gathers the layer
    counts from public state."""

    name = ""
    why = ""
    #: items run in this process (fleet_sweep forks workers instead)
    in_process = True

    def __init__(self, seed: int, scale: str, work: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.work = work

    @staticmethod
    def import_modules() -> None:
        """Import what the workload calls (timed as ``setup.import_s``)."""
        raise NotImplementedError

    def build_inputs(self) -> None:
        """Build the round's inputs from the seed (``setup.inputs_s``)."""
        raise NotImplementedError

    def items(self, traced: bool) -> list[tuple[str, Callable[[], Any]]]:
        """One round: ``(key, call)`` for every item."""
        raise NotImplementedError

    def check(self, key: str, wall: float, output, counts: Optional[Counter]) -> list[ItemResult]:
        """Check one call's output, or the exception it raised, which fails
        the item."""
        try:
            if isinstance(output, Exception):
                raise output
            item_digest, problems = self.verify(key, output, counts)
        except Exception as exc:  # noqa: BLE001 - an item error is a counted failure
            traceback.print_exception(exc, file=sys.stderr)
            item_digest, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        return [ItemResult(key, wall, item_digest, problems)]

    def verify(self, key: str, output, counts: Optional[Counter]) -> tuple[str, list[str]]:
        """(digest, problems) for one item's output; with ``counts``, also
        gather layer counts."""
        raise NotImplementedError

    @property
    def golden_applies(self) -> bool:
        return self.seed == DEFAULT_SEED


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class PcSession(Workload):
    name = "pc_session"
    why = (
        "Consultant sessions on 4 call-heavy paper programs; loads sim.process, "
        "dyninst snippets, sim.kernel, mpi, core; bypasses sanitizer and fleet"
    )

    @staticmethod
    def import_modules() -> None:
        import repro.analysis  # noqa: F401
        import repro.pperfmark.base  # noqa: F401

    def build_inputs(self) -> None:
        from repro.pperfmark.base import create

        self.sessions = [
            (name, impl, lambda n=name, p=params: create(n, **p))
            for name, impl, params in PC_SESSIONS[self.scale]
        ]
        for _name, _impl, make in self.sessions:
            make()  # construct once so a bad parameter fails in set-up

    def items(self, traced: bool) -> list[tuple[str, Callable[[], Any]]]:
        from repro.analysis.verify import verify_program

        return [
            (f"{name}/{impl}",
             lambda n=name, i=impl, m=make: verify_program(n, i, program=m(), seed=self.seed))
            for name, impl, make in self.sessions
        ]

    def verify(self, key, verdict, counts):
        """The program's Table 2/3 verdict matches the paper's row."""
        pc = verdict.result.consultant
        if counts is not None:
            summary = pc.summary()
            counts["core.consultant.experiments"] += summary["total"]
            counts["core.consultant.true"] += summary["true"]
        problems = []
        if not verdict.passed:
            problems = [line for line in verdict.details if line.startswith("MISS ")] or [
                f"tool result {verdict.tool_result}, the paper's is {verdict.paper_result}"
            ]
        return digest([pc.render_condensed(), repr(verdict.result.elapsed)]), problems


def _mid_params(name: str, factor: int) -> dict:
    """The ``--quick`` parameters with every integer size times ``factor``,
    capped at the constructor default (paper size)."""
    from repro.pperfmark.base import REGISTRY
    from repro.pperfmark.catalog import SMALL_PARAMS

    defaults = inspect.signature(REGISTRY[name].__init__).parameters
    return {
        key: min(value * factor, defaults[key].default) if type(value) is int else value
        for key, value in SMALL_PARAMS[name].items()
    }


class SanitizeSuite(Workload):
    name = "sanitize_suite"
    why = (
        "sanitize_program over 17 clean programs on lam+mpich2 and 14 defects; "
        "loads sanitizer trace hooks, sim.process, sim.kernel, mpi; bypasses "
        "dyninst snippets, core, fleet"
    )

    @staticmethod
    def import_modules() -> None:
        import repro.pperfmark.defects  # noqa: F401
        import repro.sanitizer.run  # noqa: F401

    def build_inputs(self) -> None:
        from repro.pperfmark.base import create
        from repro.pperfmark.catalog import CLEAN_PROGRAMS
        from repro.pperfmark.defects import DEFECT_REGISTRY

        factor = SANITIZE_SCALE[self.scale]
        self.runs = []  # (key, impl, make program)
        self.expected = {}  # key -> (status, finding kinds)
        for impl in SANITIZE_IMPLS:
            for name in CLEAN_PROGRAMS:
                key = f"{name}/{impl}"
                params = _mid_params(name, factor)
                self.runs.append((key, impl, lambda n=name, p=params: create(n, **p)))
                spawn = impl == "mpich2" and name in SPAWN_PROGRAMS
                self.expected[key] = ("unsupported" if spawn else "clean", frozenset())
        for name, cls in sorted(DEFECT_REGISTRY.items()):
            impl = cls.required_impl or "lam"
            self.runs.append((f"{name}/{impl}", impl, cls))
            self.expected[f"{name}/{impl}"] = ("findings", cls.expected_kinds())
        for _key, _impl, make in self.runs:
            make()

    def items(self, traced: bool) -> list[tuple[str, Callable[[], Any]]]:
        from repro.sanitizer.run import sanitize_program

        return [
            (key, lambda i=impl, m=make: sanitize_program(m(), impl=i, seed=self.seed))
            for key, impl, make in self.runs
        ]

    def verify(self, key, report, counts):
        """The status and the exact set of finding kinds are the expected ones."""
        status, kinds = self.expected[key]
        found = {f.kind for f in report.findings}
        if counts is not None:
            counts["sanitizer.findings"] += len(report.findings)
        problems = []
        if report.status != status:
            problems.append(f"status {report.status!r}, expected {status!r}")
        if found != kinds:
            problems.append(
                f"finding kinds {sorted(k.value for k in found)}, "
                f"expected {sorted(k.value for k in kinds)}"
            )
        signature = [list(row) for row in report.data_signature or ()]
        return digest([report.trace_digest, signature]), problems


def _spans(trace_jsonl: Path) -> dict[str, float]:
    """Total seconds per span name in a merged sweep trace (B/E pairs)."""
    open_at: dict[tuple, list[float]] = {}
    totals: dict[str, float] = {}
    for line in trace_jsonl.read_text().splitlines():
        event = json.loads(line)
        key = (event.get("pid"), event.get("name"))
        if event.get("kind") == "B":
            open_at.setdefault(key, []).append(event["wall"])
        elif event.get("kind") == "E" and open_at.get(key):
            start = open_at[key].pop()
            totals[key[1]] = totals.get(key[1], 0.0) + event["wall"] - start
    return totals


class FleetSweep(Workload):
    name = "fleet_sweep"
    in_process = False
    why = (
        "run_sweep(suite=sanitize, jobs=1) cold into a fresh cache, then an "
        "all-hit re-sweep; loads fleet fork, spool, reap and cache; simulation "
        "layers run in workers"
    )

    @staticmethod
    def import_modules() -> None:
        import repro.fleet.cache  # noqa: F401
        import repro.fleet.sweeps  # noqa: F401

    @property
    def golden_applies(self) -> bool:
        return True  # job specs carry their own fixed seed

    def build_inputs(self) -> None:
        from repro.fleet.sweeps import DEFAULT_SANITIZE_IMPLS, sanitize_specs

        self.impls = FLEET_IMPLS[self.scale] or DEFAULT_SANITIZE_IMPLS
        self.specs = sanitize_specs(self.impls)
        self.sweeps = 0

    def items(self, traced: bool) -> list[tuple[str, Callable[[], Any]]]:
        return [("sweep", lambda: self._sweeps(traced))]

    def _sweeps(self, traced: bool) -> tuple:
        """A cold sweep into a fresh cache, then the unchanged re-sweep."""
        from repro.fleet.cache import ResultCache
        from repro.fleet.sweeps import run_sweep

        self.sweeps += 1
        home = self.work / f"sweep-{self.sweeps}"
        cache = ResultCache(home / "cache")

        def sweep(trace_dir):
            return _timed(lambda: run_sweep(
                suite="sanitize", jobs=FLEET_JOBS, cache=cache,
                bench_out=home / "bench_out.json", sanitize_impls=self.impls,
                order_seed=self.seed, trace_dir=trace_dir,
            ))

        cold, _ = sweep(home / "trace" if traced else None)
        warm, warm_wall = sweep(None)
        return home, cache, cold, warm, warm_wall

    def check(self, key, wall, output, counts: Optional[Counter]) -> list[ItemResult]:
        """One result per job: it completed cold and hit the cache on the
        re-sweep; the digest is that of the job's ``result`` payload."""
        from repro.fleet.execute import from_bytes

        if isinstance(output, Exception):
            return super().check(key, wall, output, counts)
        home, cache, cold, warm, warm_wall = output
        try:
            # the sweeps' own lookups, before this check reads the cache
            lookups = (cache.stats.hits, cache.stats.hits + cache.stats.misses)
            walls = {row["job"]: row["wall"] for row in cold["per_job"]}
            status = {row["job"]: row["status"] for row in cold["per_job"]}
            warm_status = {row["job"]: row["status"] for row in warm["per_job"]}
            results = []
            for spec in self.specs:
                job = spec.label
                problems = []
                if status.get(job) != "completed":
                    problems.append(f"cold sweep status {status.get(job)!r}")
                if warm_status.get(job) != "cached":
                    problems.append(f"re-sweep status {warm_status.get(job)!r}, not a hit")
                data = cache.get(spec.digest)
                payload = from_bytes(data)["result"] if data is not None else None
                results.append(ItemResult(job, walls.get(job, 0.0), digest(payload), problems))
            if counts is not None:
                self._count(counts, cold, lookups, warm_wall, home / "trace")
            return results
        finally:
            shutil.rmtree(home, ignore_errors=True)

    @staticmethod
    def _count(counts, cold, lookups, warm_wall, trace_dir) -> None:
        tallies = cold["counts"]
        counts["fleet.jobs"] += tallies["specs"]
        counts["fleet.failed"] += tallies["failed"]
        counts["fleet.retries"] += sum(max(0, row["attempts"] - 1) for row in cold["per_job"])
        spans = _spans(trace_dir / "trace.jsonl")
        job_wall = sum(row["wall"] for row in cold["per_job"])
        counts["fleet.execute_s"] += spans.get("fleet.execute", 0.0)
        counts["fleet.pool_overhead_s"] += job_wall - spans.get("fleet.execute", 0.0)
        packing = (cold.get("scheduling") or {}).get("packing") or {}
        counts["fleet.packing_efficiency"] += packing.get("efficiency") or 0.0
        counts["fleet.worker_idle_fraction"] += (
            cold["critical_path"].get("worker_idle_fraction") or 0.0
        )
        counts["fleet.cache.hits"] += lookups[0]
        counts["fleet.cache.lookups"] += lookups[1]
        counts["fleet.resweep_s"] += warm_wall


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PcSession, SanitizeSuite, FleetSweep)
}
