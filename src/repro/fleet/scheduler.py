"""Multiprocessing worker pool with priority queue and failure containment.

One OS process per job (fork-started where available) gives the sweep hard
isolation: a job that crashes, corrupts its interpreter, or hangs past its
wall-clock timeout is terminated and *contained* -- the scheduler records a
failure artifact, optionally retries with exponential backoff, and the rest
of the sweep continues.  Workers hand results back through atomically
written spool files rather than pipes, so a SIGKILLed worker can never
wedge the parent.

Which job runs next is decided in one place, :class:`JobGraph`: a pure
state machine (the caller passes the clock) holding the ready order,
``after=`` dependencies, bounded retry with backoff, and the re-queue of
stolen work.  The fork pool here and the remote coordinator
(:mod:`repro.fleet.remote.coordinator`) both drive it, so a job is
scheduled by the same rules wherever it runs.

The pool is deliberately dependency-free (no concurrent.futures): the run
loop owns every state transition, which is what makes per-job timeouts,
bounded retries, priority ordering, and the JSONL lifecycle log exact.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional

from ..observe.export import read_jsonl
from ..observe.recorder import active as _observe_active
from ..observe.recorder import enable as _observe_enable
from .cache import ArtifactStore
from .events import EventLog
from .execute import execute_spec, failure_artifact, from_bytes, to_bytes
from .spec import RunSpec

__all__ = ["FleetScheduler", "JobGraph", "JobOutcome"]


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _usable_cpus() -> int:
    """CPUs this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _worker_main(
    executor: Callable[[RunSpec], dict],
    spec_dict: dict,
    out_path: str,
    trace_path: Optional[str] = None,
    attempt: int = 1,
) -> None:
    """Child-process entry: execute the spec, spool the artifact atomically.

    Exceptions are folded into a failure artifact *in the child* so the
    parent can distinguish "the job raised" (clean failure record) from
    "the worker died" (no spool file at all).

    Every worker runs an always-on flight recorder (fresh ring, own pid --
    replacing any recorder inherited over fork); a raising job embeds the
    recorder dump in its failure artifact.  With ``--trace`` the recorder
    also mirrors each event to ``trace_path`` (flushed per event), which is
    what the parent salvages when it has to SIGKILL us.
    """
    spec = RunSpec.from_dict(spec_dict)
    rec = _observe_enable(capacity=4096, mirror=trace_path)
    rec.begin("worker.job", job=spec.label, digest=spec.digest[:12],
              attempt=attempt)
    try:
        data = to_bytes(executor(spec))
        rec.end("worker.job", status="ok")
    except BaseException as exc:  # noqa: BLE001 - containment is the point
        rec.end("worker.job", status=type(exc).__name__)
        data = to_bytes(failure_artifact(
            spec, type(exc).__name__, str(exc), flight_recorder=rec.dump()
        ))
    tmp = f"{out_path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, out_path)
    rec.close()


# -- child-process plumbing (shared with remote/worker.py) --------------------


def start_child(executor: Callable[[RunSpec], dict], spec: RunSpec,
                out_path: Path, trace_path: Optional[str], attempt: int):
    """Fork one job onto :func:`_worker_main`, spooling to ``out_path``."""
    proc = _mp_context().Process(
        target=_worker_main,
        args=(executor, spec.to_dict(), str(out_path), trace_path, attempt),
        daemon=True,
    )
    proc.start()
    return proc


def stop_child(proc) -> None:
    """Terminate a child, escalating to SIGKILL if it ignores SIGTERM."""
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():  # pragma: no cover - stubborn child
        proc.kill()
        proc.join(1.0)


def mirror_tail(trace_path: Optional[str], limit: int) -> list:
    """The last ``limit`` events of a child's flight-recorder mirror.  The
    mirror is flushed per event, so even a killed child leaves a readable
    prefix; torn trailing lines are skipped by :func:`read_jsonl`."""
    if trace_path is None:
        return []
    try:
        return list(read_jsonl(trace_path))[-limit:]
    except OSError:
        return []


def collect_child(proc, out_path: Path, spec: RunSpec, attempt: int) -> dict:
    """Join an exited child and read its spooled artifact; a child that
    died before writing one yields a ``crashed`` failure artifact."""
    proc.join()
    try:
        return from_bytes(out_path.read_bytes())
    except (FileNotFoundError, ValueError):
        return failure_artifact(
            spec, "crashed",
            f"worker died with exit code {proc.exitcode} "
            "before writing a result",
            attempts=attempt,
        )


@dataclass
class JobOutcome:
    """Per-job accounting row (feeds BENCH_fleet.json)."""

    digest: str
    job: str
    program: str
    impl: str
    mode: str
    status: str = "queued"  # cached | completed | failed
    cached: bool = False
    attempts: int = 0
    wall: float = 0.0  # seconds of worker wall-clock across attempts
    error: Optional[str] = None

    @classmethod
    def of(cls, spec: RunSpec) -> "JobOutcome":
        return cls(spec.digest, spec.label, spec.program, spec.impl, spec.mode)


def summarize_outcomes(outcomes: Iterable[JobOutcome]) -> dict:
    """The pool-level counts both pools report as ``summary()``."""
    rows = list(outcomes)
    return {
        "specs": len(rows),
        "completed": sum(1 for r in rows if r.status == "completed"),
        "cached": sum(1 for r in rows if r.status == "cached"),
        "failed": sum(1 for r in rows if r.status == "failed"),
        "worker_wall": round(sum(r.wall for r in rows), 6),
    }


# -- the job graph --------------------------------------------------------------

#: job states in a :class:`JobGraph` (pending = held, ready or backing off)
PENDING, RUNNING, DONE = "pending", "running", "done"


@dataclass
class _Node:
    priority: int
    #: predicted wall (the label's last executed one); longer runs first (LPT)
    predicted: Optional[float]
    #: producers that were not yet terminal when this job was added
    after: tuple
    waiting: set
    state: str = PENDING
    attempts: int = 0


class JobGraph:
    """Which job runs next: the one scheduling core both pools drive.

    A pure state machine over digests -- no processes, no I/O, and the
    caller passes ``now`` -- holding the ready heap keyed ``(priority,
    -predicted, tie)`` (priority class, then longest-predicted-first, then
    FIFO unless ``order_seed`` draws the tie), the ``after`` holds
    (released once every producer the graph knows is terminal, failed
    included; unknown digests are ignored), bounded retry after
    ``backoff * 2**(attempts-1)``, and the immediate re-queue of a stolen
    lease.  A job goes ``add`` -> ``pop`` -> ``start`` (counts an attempt;
    a cache hit is resolved without one) -> ``done``, or back into the
    queue through ``retry`` / ``requeue``.
    """

    def __init__(self, *, retries: int = 1, backoff: float = 0.25,
                 order_seed: Optional[int] = None) -> None:
        self.retries = max(0, retries)
        self.backoff = backoff
        self.nodes: dict[str, _Node] = {}
        #: jobs not yet terminal
        self.unfinished = 0
        self._rng = random.Random(order_seed) if order_seed is not None else None
        self._seq = itertools.count()
        self._ready: list[tuple[tuple, int, str]] = []
        self._backoff: list[tuple[float, int, str]] = []
        self._consumers: dict[str, list[str]] = {}

    def add(self, digest: str, *, priority: int = 0,
            predicted: Optional[float] = None, after: Iterable[str] = ()) -> tuple:
        """Queue a new digest; returns the producers it is held on."""
        held = tuple(
            d for d in after if d in self.nodes and self.nodes[d].state != DONE
        )
        self.nodes[digest] = _Node(priority, predicted, held, set(held))
        self.unfinished += 1
        for producer in held:
            self._consumers.setdefault(producer, []).append(digest)
        if not held:
            self._push(digest)
        return held

    def _push(self, digest: str) -> None:
        node = self.nodes[digest]
        node.state = PENDING
        tie = self._rng.random() if self._rng is not None else 0.0
        key = (node.priority, -(node.predicted or 0.0), tie)
        heapq.heappush(self._ready, (key, next(self._seq), digest))

    def pop(self, now: float) -> Optional[str]:
        """The next job to run (now ``running``), or ``None``."""
        while self._backoff and self._backoff[0][0] <= now:
            self._push(heapq.heappop(self._backoff)[2])
        if not self._ready:
            return None
        digest = heapq.heappop(self._ready)[2]
        self.nodes[digest].state = RUNNING
        return digest

    def start(self, digest: str) -> int:
        """Count one execution attempt of a popped job; returns its number."""
        node = self.nodes[digest]
        node.attempts += 1
        return node.attempts

    def retry(self, digest: str, now: float) -> Optional[float]:
        """A failed attempt: re-queue after the backoff and return it, or
        ``None`` once retries are spent (the caller then calls ``done``)."""
        node = self.nodes[digest]
        if node.attempts > self.retries:
            return None
        delay = self.backoff * (2 ** (node.attempts - 1))
        node.state = PENDING
        heapq.heappush(self._backoff, (now + delay, next(self._seq), digest))
        return delay

    def requeue(self, digest: str) -> None:
        """A stolen lease: straight back into the ready queue."""
        self._push(digest)

    def done(self, digest: str) -> list[str]:
        """Mark a job terminal; returns the consumers this released (now
        ready), in the order they were added."""
        self.nodes[digest].state = DONE
        self.unfinished -= 1
        released = []
        for consumer in self._consumers.pop(digest, ()):
            waiting = self.nodes[consumer].waiting
            waiting.discard(digest)
            if not waiting:
                released.append(consumer)
                self._push(consumer)
        return released

    def next_wake(self) -> Optional[float]:
        """When the earliest backed-off job becomes ready (``None`` if none)."""
        return self._backoff[0][0] if self._backoff else None


# -- the fork pool --------------------------------------------------------------


@dataclass
class _Active:
    spec: RunSpec
    attempt: int
    proc: multiprocessing.process.BaseProcess
    out_path: Path
    started_at: float
    deadline: Optional[float]
    slot: int = 0
    trace_path: Optional[str] = None


class FleetScheduler:
    """Run a set of :class:`RunSpec` jobs in parallel, cached and contained.

    Parameters
    ----------
    jobs: requested worker-process concurrency (default: the usable CPU
        count).  The effective concurrency is clamped to the CPUs the
        process may run on: fleet jobs are CPU-bound simulations, so
        oversubscribing cores cannot increase throughput -- it only adds
        context switching and inflates every concurrent job's wall clock
        (the per-job walls reported in BENCH_fleet.json).  The requested
        value is kept on ``requested_jobs`` for reporting.
    timeout: per-job wall-clock limit in seconds (``None`` = unlimited).
    retries: extra attempts after the first failure/timeout/crash.
    backoff: base delay before attempt *n*'s retry (``backoff * 2**(n-1)``).
    cache: any :class:`ArtifactStore` (the local directory or a remote
        HTTP store), or ``None`` to disable caching.
    events: an :class:`EventLog`; a fresh in-memory log by default.
    executor: the job body (tests substitute stubs); must be callable in
        the worker process -- under the default fork start method any
        callable works, under spawn it must be importable.
    trace_dir: directory for per-worker flight-recorder mirror files
        (``--trace``); ``None`` disables mirroring (workers still keep
        their in-memory ring for failure artifacts).
    walls: job label -> predicted wall (the sweep passes
        :func:`~repro.fleet.profiles.learned_walls`); within one explicit
        ``priority`` class, ready jobs launch longest-predicted-first (LPT),
        and a label it does not name launches after the predicted ones.
    order_seed: seeded shuffle of ready-queue tie-breaks.  Jobs with
        equal ``(priority, predicted)`` launch in a pseudo-random order
        instead of FIFO -- the adversarial-order determinism tests prove
        artifacts are byte-identical under any admission order.
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        backoff: float = 0.25,
        cache: Optional[ArtifactStore] = None,
        events: Optional[EventLog] = None,
        executor: Callable[[RunSpec], dict] = execute_spec,
        trace_dir: Optional[Path] = None,
        walls: Optional[Mapping[str, float]] = None,
        order_seed: Optional[int] = None,
    ) -> None:
        usable = _usable_cpus()
        self.requested_jobs = max(1, jobs if jobs is not None else usable)
        self.jobs = min(self.requested_jobs, usable)
        self.timeout = timeout
        self.cache = cache
        self.events = events if events is not None else EventLog()
        self.executor = executor
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        # worker-slot numbers (stable swimlane ids in the merged trace):
        # popped smallest-first on launch, returned on reap
        self._free_slots = list(range(self.jobs))[::-1]

        self.walls = walls or {}
        self.graph = JobGraph(retries=retries, backoff=backoff, order_seed=order_seed)
        self._specs: dict[str, RunSpec] = {}
        self.results: dict[str, dict] = {}
        self.outcomes: dict[str, JobOutcome] = {}

    # -- submission ----------------------------------------------------------

    def submit(self, spec: RunSpec, *, priority: int = 0, after: tuple = ()) -> str:
        """Queue one spec (lower ``priority`` runs first); returns its digest.
        Duplicate digests are coalesced into a single job.

        ``after`` lists artifact digests this job consumes: it is held out
        of the ready queue until every listed digest is terminal (completed,
        cached, or failed -- renders run regardless of warm failures).
        Digests never submitted to this pool are ignored; dependencies must
        be submitted before their consumers.
        """
        digest = spec.digest
        if digest in self._specs:
            return digest
        self._specs[digest] = spec
        self.outcomes[digest] = JobOutcome.of(spec)
        predicted = self.walls.get(spec.label)
        deps = self.graph.add(digest, priority=priority, predicted=predicted,
                              after=after)
        self.events.emit(
            "queued", digest=digest, job=spec.label, priority=priority,
            predicted=None if predicted is None else round(predicted, 6),
            deps=len(deps),
        )
        return digest

    # -- run loop ------------------------------------------------------------

    def run(self) -> dict[str, dict]:
        """Drain the queue; returns ``{digest: artifact}`` for every job.
        Never raises for job failures -- those become failure artifacts."""
        # imported here, not at module top: it pulls in ``socket``, which
        # only a running pool needs
        from multiprocessing.connection import wait

        active: list[_Active] = []
        queued = self.graph.unfinished
        # the pool's width: the critical path and the swimlanes open a lane
        # per slot, so a slot no job reached still counts as idle
        self.events.emit("pool-start", workers=self.jobs)
        rec = _observe_active()
        if rec is not None:
            rec.begin("fleet.pool", workers=self.jobs, jobs=queued)
        with tempfile.TemporaryDirectory(prefix="repro-fleet-") as spool:
            spool_dir = Path(spool)
            while self.graph.unfinished:
                self._launch(spool_dir, time.monotonic(), active)
                # block until a worker exits, a job deadline passes, or the
                # next backoff expires -- whichever comes first
                wakes = [e.deadline for e in active if e.deadline is not None]
                if self.graph.next_wake() is not None:
                    wakes.append(self.graph.next_wake())
                timeout = max(0.0, min(wakes) - time.monotonic()) if wakes else None
                if active:
                    wait([e.proc.sentinel for e in active], timeout)
                elif timeout is not None:
                    time.sleep(timeout)
                self._reap(active)
        summary = self.summary()
        self.events.emit("sweep-summary", **summary)
        if rec is not None:
            rec.end("fleet.pool", specs=summary["specs"],
                    completed=summary["completed"], cached=summary["cached"],
                    failed=summary["failed"])
        return self.results

    def _launch(self, spool_dir: Path, now: float, active: list[_Active]) -> None:
        while len(active) < self.jobs:
            digest = self.graph.pop(now)
            if digest is None:
                return
            outcome = self.outcomes[digest]
            if self.cache is not None and self.graph.nodes[digest].attempts == 0:
                # a corrupt object is quarantined and is a miss: run the job
                artifact = self.cache.load(digest)
                if artifact is not None:
                    self.results[digest] = artifact
                    outcome.status = "cached"
                    outcome.cached = True
                    self.events.emit("cached-hit", digest=digest, job=outcome.job)
                    rec = _observe_active()
                    if rec is not None:
                        rec.instant("cache.hit", job=outcome.job,
                                    digest=digest[:12])
                    self._finish(digest)  # a hit is not an attempt
                    continue
            spec = self._specs[digest]
            attempt = outcome.attempts = self.graph.start(digest)
            out_path = spool_dir / f"{digest}.{attempt}.json"
            slot = self._free_slots.pop() if self._free_slots else len(active)
            trace_path = None
            if self.trace_dir is not None:
                trace_path = str(
                    self.trace_dir / f"worker-{digest[:12]}.{attempt}.jsonl"
                )
            proc = start_child(self.executor, spec, out_path, trace_path, attempt)
            deadline = now + self.timeout if self.timeout is not None else None
            active.append(
                _Active(
                    spec=spec,
                    attempt=attempt,
                    proc=proc,
                    out_path=out_path,
                    started_at=now,
                    deadline=deadline,
                    slot=slot,
                    trace_path=trace_path,
                )
            )
            self.events.emit(
                "started", digest=digest, job=outcome.job,
                attempt=attempt, slot=slot,
            )
            rec = _observe_active()
            if rec is not None:
                rec.instant("job.start", job=outcome.job, digest=digest[:12],
                            attempt=attempt, slot=slot)
                rec.counter("workers.active", len(active))

    def _reap(self, active: list[_Active]) -> None:
        now = time.monotonic()
        for entry in list(active):
            timed_out = entry.deadline is not None and now >= entry.deadline
            if entry.proc.is_alive() and not timed_out:
                continue
            active.remove(entry)
            self._free_slots.append(entry.slot)
            wall = now - entry.started_at
            self.outcomes[entry.spec.digest].wall += wall
            if timed_out and entry.proc.is_alive():
                stop_child(entry.proc)
                self._trace_job_done(entry, wall, "timeout", len(active))
                self._job_failed(
                    entry, "timeout",
                    f"exceeded {self.timeout}s wall-clock limit",
                    flight_recorder=self._salvage_flight_recorder(entry),
                )
                continue
            artifact = collect_child(entry.proc, entry.out_path, entry.spec,
                                     entry.attempt)
            if artifact.get("status") == "ok":
                self._trace_job_done(entry, wall, "completed", len(active))
                self._job_completed(entry, artifact, wall)
                continue
            error = artifact.get("error") or {}
            error_type = error.get("type", "error")
            self._trace_job_done(entry, wall, error_type, len(active))
            self._job_failed(
                entry, error_type, error.get("message", ""),
                # a job that raised ships its recorder dump; a worker that
                # died before spooling leaves only its trace mirror
                flight_recorder=(error.get("flight_recorder")
                                 or self._salvage_flight_recorder(entry)),
            )

    def _trace_job_done(self, entry: _Active, wall: float, status: str,
                        active_count: int) -> None:
        rec = _observe_active()
        if rec is None:
            return
        rec.complete(f"job:{entry.spec.label}", wall, slot=entry.slot,
                     attempt=entry.attempt, status=status)
        rec.counter("workers.active", active_count)

    def _salvage_flight_recorder(
        self, entry: _Active, limit: int = 256
    ) -> Optional[dict]:
        """Tail of a killed worker's trace mirror.  A timed-out or crashed
        worker never reaches its own ``dump()``; the per-event-flushed
        mirror (``--trace``) is the only record of what it was doing."""
        events = mirror_tail(entry.trace_path, limit)
        if not events:
            return None
        return {
            "schema": 1,
            "pid": events[-1].get("pid"),
            "salvaged": True,
            "events": events,
        }

    # -- transitions ---------------------------------------------------------

    def _finish(self, digest: str) -> None:
        """Mark a job terminal and admit the consumers it was holding."""
        for consumer in self.graph.done(digest):
            self.events.emit(
                "admitted", digest=consumer, job=self.outcomes[consumer].job,
                deps=len(self.graph.nodes[consumer].after),
            )

    def _job_completed(self, entry: _Active, artifact: dict, wall: float) -> None:
        digest = entry.spec.digest
        self.results[digest] = artifact
        outcome = self.outcomes[digest]
        outcome.status = "completed"
        if self.cache is not None:
            self.cache.put(digest, to_bytes(artifact))
        self.events.emit(
            "completed",
            digest=digest,
            job=outcome.job,
            attempt=entry.attempt,
            wall=round(wall, 6),
        )
        self._finish(digest)

    def _job_failed(
        self,
        entry: _Active,
        error_type: str,
        message: str,
        flight_recorder: Optional[dict] = None,
    ) -> None:
        digest = entry.spec.digest
        outcome = self.outcomes[digest]
        delay = self.graph.retry(digest, time.monotonic())
        if delay is not None:
            self.events.emit(
                "retry",
                digest=digest,
                job=outcome.job,
                attempt=entry.attempt,
                error=error_type,
                backoff=round(delay, 3),
            )
            rec = _observe_active()
            if rec is not None:
                rec.instant("job.retry", job=outcome.job, digest=digest[:12],
                            attempt=entry.attempt, error=error_type,
                            backoff=round(delay, 3))
            return
        artifact = failure_artifact(
            entry.spec, error_type, message, attempts=entry.attempt,
            flight_recorder=flight_recorder,
        )
        self.results[digest] = artifact  # contained: never cached, sweep goes on
        outcome.status = "failed"
        outcome.error = f"{error_type}: {message}"
        self.events.emit(
            "failed",
            digest=digest,
            job=outcome.job,
            attempt=entry.attempt,
            error=error_type,
        )
        self._finish(digest)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        return summarize_outcomes(self.outcomes.values())
