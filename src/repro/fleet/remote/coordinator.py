"""The remote service: job lease / heartbeat / result and the artifact
store, over HTTP.

``repro fleet serve --cache DIR`` runs one :class:`FleetCoordinator`: a
priority job queue behind bookkeeping endpoints, with the lease/heartbeat
state machine that makes cross-machine work-stealing safe, and the
:class:`~repro.fleet.cache.ResultCache` every artifact of its sweeps lands
in:

    ==============================  ===========================================
    ``GET  /health``                liveness: worker/queue/terminal counts,
                                    feed length, stored ``objects``
    ``GET  /status``                job counts plus :func:`tally` over the feed
    ``POST /jobs``                  submit a batch of specs (the sweep driver)
    ``POST /lease``                 pull one job (workers); registers the worker
    ``POST /heartbeat``             renew a lease; ``ok: false`` = lease stolen
    ``POST /result``                deliver an artifact; stores an ok one, then
                                    drives retry/completion
    ``GET  /events?cursor=N``       lifecycle event feed plus the live
                                    worker count (a sweep's one poll)
    ``POST /control``               ``drain`` (workers seen so far exit when idle)
    ``GET  /stats``                 the store's ``describe()`` dict
    ``HEAD /artifacts/<digest>``    existence probe (200 / 404)
    ``GET  /artifacts/<digest>``    artifact bytes + ``X-Repro-SHA256`` header
    ``PUT  /artifacts/<digest>``    atomic store; checksum verified before rename
    ``POST /quarantine/<digest>``   evict a corrupt object (kept for forensics)
    ==============================  ===========================================

The coordinator is the one writer and the one hit check of a remote sweep.
``/result`` stores an ok artifact whose embedded digest is the leased one
before the job's consumers are released, so a render leased next finds its
inputs; ``/jobs`` answers a digest already in the store as a ``done`` row
carrying the stored artifact, which the driver logs as ``cached-hit``.
Workers point the jobs they fork at this store (``REPRO_CACHE_DIR``), so a
bench body reading a consumed artifact reads it here too.

Lease state machine (per job)::

    pending --lease--> leased --result(ok)------------------> done
       ^                 |  \\--result(failed, attempts<=R)--> pending  [retry]
       |                 \\---expiry (no heartbeat)----------> pending  [stolen]
       +--- backoff ------+        ... unless steals > bound -> failed [lost]

Which pending job a lease gets, when a retry becomes leasable, and when a
job submitted with ``after`` producers is released are all decided by the
same :class:`~repro.fleet.scheduler.JobGraph` the local fork pool drives;
``repro fleet run --interactive`` submits at priority -1, ahead of both
sweep classes.

A worker that misses its heartbeats (crashed, SIGKILLed, partitioned) is
presumed dead: the lease expires and the job is re-queued for any other
worker to steal -- exactly the daemon-failure containment a per-node
monitoring stack needs.  Failures *reported* by a live worker follow the
fork pool's bounded-retry-with-backoff semantics; repeated worker loss is
bounded separately (``max_steals``) so a job that kills every worker that
touches it cannot cycle forever.

Chaos drills: armed with ``chaos_kills``, the coordinator deterministically
(seeded) marks that many leases with a kill directive; the leased worker
SIGKILLs itself mid-lease, which exercises expiry -> steal -> retry end to
end.  A kill is only issued while a second live worker remains, so the
drill can never strand the queue.

The feed is the only record of what happened: :func:`tally` counts steals,
retries, worker losses, chaos kills and per-worker leases from feed
records, so ``/status`` (the whole feed, lifetime totals) and a sweep's
``remote`` block (that sweep's own records) are one computation.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Union
from urllib.parse import parse_qs, urlparse

from ..cache import ResultCache, content_sha256
from ..execute import failure_artifact, to_bytes
from ..scheduler import DONE, PENDING, RUNNING, JobGraph
from ..spec import RunSpec, code_version
from .store import CHECKSUM_HEADER
from .wire import BackgroundServer, JsonRequestHandler

__all__ = ["FleetCoordinator", "DEFAULT_LEASE_TIMEOUT", "tally"]

DEFAULT_LEASE_TIMEOUT = 15.0


def tally(records: Iterable[dict]) -> dict:
    """Remote-pool counters over coordinator feed records: ``steals``,
    ``retries``, ``worker_losses``, ``chaos_kills``, and per-worker
    ``jobs`` (leases taken) and ``lost`` leases for every worker a record
    names -- over the whole feed that includes idle workers
    (``worker-joined``); a sweep's slice holds only its own jobs' records,
    so it names only the workers that served it."""
    events: Counter = Counter()
    workers: dict[str, dict] = {}
    for record in records:
        event = record.get("event")
        events[event] += 1
        name = record.get("worker")
        if name is None:
            continue
        row = workers.setdefault(name, {"jobs": 0, "lost": 0})
        if event == "started":
            row["jobs"] += 1
        elif event == "lease-expired":
            row["lost"] += 1
    return {
        "steals": events["stolen"],
        "retries": events["retry"],
        "worker_losses": events["lease-expired"],
        "chaos_kills": events["chaos-kill"],
        "workers": workers,
    }


@dataclass
class _Job:
    digest: str
    spec: dict
    label: str
    #: this job's node in the coordinator's JobGraph (state, attempts)
    node: Any
    steals: int = 0
    wall: float = 0.0
    status: Optional[str] = None  # completed | failed (terminal)
    chaos_killed: bool = False


@dataclass
class _Lease:
    lease_id: str
    digest: str
    worker: str
    expires_at: float


class FleetCoordinator(BackgroundServer):
    """Job queue, lease bookkeeping and artifact store behind the endpoints
    above.

    ``cache`` is the store: a :class:`ResultCache` or its directory
    (default: the ``REPRO_CACHE_DIR`` directory, else ``.repro-cache``).
    The other parameters mirror the fork pool where they overlap:
    ``retries`` and ``backoff`` apply to *reported* failures;
    ``lease_timeout`` is the heartbeat budget after which a silent worker
    is presumed dead; and ``max_steals`` bounds re-queues from worker loss
    (default ``retries + 2``).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        retries: int = 1,
        backoff: float = 0.25,
        max_steals: Optional[int] = None,
        cache: Union[ResultCache, str, Path, None] = None,
        token: Optional[str] = None,
        clock=time.monotonic,
    ) -> None:
        super().__init__(host, port, token=token)
        self.cache = cache if isinstance(cache, ResultCache) else ResultCache(cache)
        self.lease_timeout = lease_timeout
        self._graph = JobGraph(retries=retries, backoff=backoff)
        self.max_steals = self._graph.retries + 2 if max_steals is None else max_steals
        #: per-job wall limit workers enforce; set by each ``/jobs`` batch
        self.job_timeout: Optional[float] = None
        self._clock = clock
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._leases: dict[str, _Lease] = {}
        #: worker id -> when it last leased or heartbeated
        self._workers: dict[str, float] = {}
        self._events: list[dict] = []
        #: workers seen when ``drain`` was posted: each is sent home at its
        #: next idle lease; a worker first seen later stays, and the next
        #: ``/jobs`` batch ends the drain
        self._drained: set[str] = set()
        self._chaos_armed = 0
        self._chaos_rng = random.Random(0)
        self._chaos_victims: set[str] = set()
        #: the driver's latest batch asked for flight-recorder relay: workers
        #: ship their mirror tails with each /result and the feed carries them
        self.trace = False

    def _handler_class(self):
        return _CoordinatorHandler

    # -- event feed ----------------------------------------------------------

    def _emit(self, event: str, **fields: Any) -> None:
        self._events.append({"t": round(time.time(), 6), "event": event, **fields})

    # -- submission (the driver) ---------------------------------------------

    def submit_jobs(self, payload: dict) -> dict:
        """``POST /jobs``: accept a batch of specs.  A digest already queued
        is not queued again, and one already in the store comes back as a
        ``done`` row carrying its artifact; any other (new, failed, or
        evicted since it ran) is queued with fresh attempts."""
        with self._lock:
            self._drained.clear()
            if payload.get("retries") is not None:
                self._graph.retries = max(0, int(payload["retries"]))
                self.max_steals = max(self.max_steals, self._graph.retries + 2)
            if payload.get("timeout") is not None:
                self.job_timeout = float(payload["timeout"])
            if payload.get("chaos_kills"):
                self._chaos_armed += int(payload["chaos_kills"])
                self._chaos_rng = random.Random(payload.get("chaos_seed", 0))
            if payload.get("trace") is not None:
                self.trace = bool(payload["trace"])
            accepted = 0
            done: list[dict] = []
            for row in payload.get("jobs", ()):
                digest = row["digest"]
                existing = self._jobs.get(digest)
                if existing is not None and existing.status is None:
                    continue  # queued or leased: its terminal reaches the feed
                artifact = self.cache.load(digest)
                if artifact is not None:
                    done.append({"digest": digest, "artifact": artifact})
                    continue
                priority = int(row.get("priority", 0))
                deps = self._graph.add(digest, priority=priority,
                                       after=row.get("after") or ())
                job = _Job(digest=digest, spec=row["spec"],
                           label=row.get("label") or digest[:12],
                           node=self._graph.nodes[digest])
                self._jobs[digest] = job
                self._emit("queued", digest=digest, job=job.label,
                           priority=priority, deps=len(deps))
                accepted += 1
            return {"accepted": accepted, "total": len(self._jobs), "done": done}

    # -- leases (the workers) ------------------------------------------------

    def _alive_workers(self, now: float) -> int:
        # chaos victims are dead the instant the kill directive goes out,
        # even though their last_seen has not aged off yet -- counting them
        # could arm a second kill against the only surviving worker
        horizon = now - self.lease_timeout
        return sum(
            1 for worker, last_seen in self._workers.items()
            if last_seen >= horizon and worker not in self._chaos_victims
        )

    def lease(self, worker_id: str, worker_version: Optional[str] = None) -> dict:
        """``POST /lease``: hand the next pending job to ``worker_id``."""
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            if worker_version is not None and worker_version != code_version():
                return {
                    "error": "code-version-mismatch",
                    "coordinator": code_version(),
                    "worker": worker_version,
                }
            if worker_id not in self._workers:
                self._emit("worker-joined", worker=worker_id)
            self._workers[worker_id] = now
            digest = self._graph.pop(now)
            if digest is None:
                shutdown = worker_id in self._drained and not self._graph.unfinished
                if shutdown:
                    self._drained.discard(worker_id)
                return {"job": None, "shutdown": shutdown}
            job = self._jobs[digest]
            attempt = self._graph.start(digest)
            lease = _Lease(
                lease_id=uuid.uuid4().hex,
                digest=job.digest,
                worker=worker_id,
                expires_at=now + self.lease_timeout,
            )
            self._leases[lease.lease_id] = lease
            chaos = None
            if (
                self._chaos_armed > 0
                and not job.chaos_killed
                and self._alive_workers(now) >= 2
            ):
                # deterministic coin per lease: the seeded RNG stream makes
                # the kill schedule reproducible for a given seed and lease
                # order, independent of wall clock
                if self._chaos_rng.random() < 0.5 or self._chaos_armed >= 2:
                    chaos = "kill"
                    job.chaos_killed = True
                    self._chaos_armed -= 1
                    self._chaos_victims.add(worker_id)
                    self._emit("chaos-kill", digest=job.digest, job=job.label,
                               worker=worker_id, attempt=attempt)
            self._emit("started", digest=job.digest, job=job.label,
                       attempt=attempt, worker=worker_id)
            return {
                "job": {
                    "lease": lease.lease_id,
                    "digest": job.digest,
                    "spec": job.spec,
                    "label": job.label,
                    "attempt": attempt,
                },
                "timeout": self.job_timeout,
                "heartbeat": max(0.05, self.lease_timeout / 3.0),
                "chaos": chaos,
                "trace": self.trace,
                "shutdown": False,
            }

    def heartbeat(self, lease_id: str, worker_id: Optional[str] = None) -> dict:
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            if worker_id and worker_id in self._workers:
                self._workers[worker_id] = now
            lease = self._leases.get(lease_id)
            if lease is None:
                return {"ok": False}  # stolen or already finished: abandon
            lease.expires_at = now + self.lease_timeout
            return {"ok": True}

    def result(self, lease_id: str, artifact: dict, wall: float = 0.0,
               trace: Optional[list] = None) -> dict:
        """``POST /result``: terminal or retried, per the fork-pool rules.
        An ok artifact is stored before its consumers are released; one
        whose embedded digest is not the leased job's is a failed attempt."""
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                # the lease expired and the job was re-queued (or finished
                # elsewhere): this result is from a presumed-dead worker --
                # drop it, the steal path owns the job now
                return {"ok": False}
            job = self._jobs[lease.digest]
            if lease.worker in self._workers:
                self._workers[lease.worker] = now
            job.wall += float(wall or 0.0)
            if trace:
                # the relay must precede the terminal/retry record: a live
                # tailer that sees the terminal can then rely on the mirror
                # tail already being in the feed (and on the driver's disk)
                self._emit("trace", digest=job.digest, job=job.label,
                           attempt=job.node.attempts, worker=lease.worker,
                           events=list(trace))
            if artifact.get("status") == "ok" and artifact.get("digest") != job.digest:
                artifact = failure_artifact(
                    RunSpec.from_dict(job.spec), "digest-mismatch",
                    f"result carries digest {str(artifact.get('digest'))[:12]}",
                    attempts=job.node.attempts,
                )
            if artifact.get("status") == "ok":
                self.cache.put(job.digest, to_bytes(artifact))
                self._finish(job, "completed", artifact, worker=lease.worker)
            elif (delay := self._graph.retry(job.digest, now)) is not None:
                error = (artifact.get("error") or {}).get("type", "error")
                self._emit("retry", digest=job.digest, job=job.label,
                           attempt=job.node.attempts, error=error,
                           backoff=round(delay, 3), worker=lease.worker)
            else:
                self._finish(job, "failed", artifact, worker=lease.worker)
            return {"ok": True}

    def _finish(self, job: _Job, status: str, artifact: dict, *,
                worker: Optional[str] = None) -> None:
        job.status = status
        fields = {"digest": job.digest, "job": job.label,
                  "attempt": job.node.attempts, "wall": round(job.wall, 6),
                  "artifact": artifact}
        if worker is not None:
            fields["worker"] = worker
        if status == "failed":
            fields["error"] = (artifact.get("error") or {}).get("type", "error")
        self._emit(status, **fields)
        for digest in self._graph.done(job.digest):
            consumer = self._jobs[digest]
            self._emit("admitted", digest=digest, job=consumer.label,
                       deps=len(consumer.node.after))

    # -- expiry / stealing ---------------------------------------------------

    def _expire_leases(self, now: float) -> None:
        for lease_id, lease in list(self._leases.items()):
            if lease.expires_at > now:
                continue
            del self._leases[lease_id]
            job = self._jobs.get(lease.digest)
            if job is None or job.node.state != RUNNING:  # pragma: no cover - defensive
                continue
            job.steals += 1
            attempt = job.node.attempts
            self._emit("lease-expired", digest=job.digest, job=job.label,
                       worker=lease.worker, attempt=attempt)
            if job.steals > self.max_steals:
                artifact = failure_artifact(
                    RunSpec.from_dict(job.spec), "worker-lost",
                    f"lease expired {job.steals} time(s); "
                    f"worker {lease.worker} presumed dead",
                    attempts=attempt,
                )
                self._finish(job, "failed", artifact, worker=lease.worker)
                continue
            self._graph.requeue(job.digest)
            self._emit("stolen", digest=job.digest, job=job.label,
                       worker=lease.worker, attempt=attempt)

    # -- introspection (the driver / operators) ------------------------------

    def events_since(self, cursor: int) -> dict:
        """``GET /events``: the feed from ``cursor`` on, plus the live
        worker count, so a polling sweep needs no ``/health`` round trip."""
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            cursor = max(0, min(int(cursor), len(self._events)))
            events = self._events[cursor:]
            done = bool(self._jobs) and not self._graph.unfinished
            return {"events": events, "cursor": cursor + len(events),
                    "done": done, "workers": self._alive_workers(now)}

    def health(self) -> dict:
        now = self._clock()
        objects = len(self.cache)
        with self._lock:
            self._expire_leases(now)
            states = Counter(job.node.state for job in self._jobs.values())
            return {
                "status": "ok",
                "service": "repro-fleet-coordinator",
                "workers": self._alive_workers(now),
                "workers_seen": len(self._workers),
                "pending": states[PENDING],
                "leased": states[RUNNING],
                "done": states[DONE],
                # where a new sweep's event-feed cursor starts
                "feed": len(self._events),
                "objects": objects,
            }

    def status(self) -> dict:
        """``GET /status``: job counts and :func:`tally` over the whole
        feed -- the lifetime totals of a long-lived coordinator."""
        with self._lock:
            states = Counter(job.status for job in self._jobs.values())
            return {
                "jobs": len(self._jobs),
                "completed": states["completed"],
                "failed": states["failed"],
                **tally(self._events),
                "lease_timeout": self.lease_timeout,
                "draining": bool(self._drained),
            }

    def control(self, action: str) -> dict:
        """``POST /control``: ``drain`` sends every worker seen so far home
        at its next lease on an empty queue."""
        if action != "drain":
            return {"ok": False, "error": f"unknown action {action!r}"}
        with self._lock:
            self._drained = set(self._workers)
            return {"ok": True, "draining": bool(self._drained)}


class _CoordinatorHandler(JsonRequestHandler):
    @property
    def coord(self) -> FleetCoordinator:
        return self.server.service  # type: ignore[attr-defined]

    def _digest(self, prefix: str) -> Optional[str]:
        """The digest a store path names, or ``None`` after answering a
        path outside ``prefix`` (404) or a malformed digest (400)."""
        if not self.path.startswith(prefix):
            self.send_json(404, {"error": "unknown endpoint"})
            return None
        digest = self.path[len(prefix):]
        try:
            self.coord.cache._object_path(digest)
        except ValueError:
            self.send_json(400, {"error": f"malformed digest {digest!r}"})
            return None
        return digest

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/health":
            # liveness stays open (probes, worker discovery)
            self.send_json(200, self.coord.health())
        elif not self._authorized():
            return
        elif parsed.path == "/status":
            self.send_json(200, self.coord.status())
        elif parsed.path == "/stats":
            self.send_json(200, self.coord.cache.describe())
        elif parsed.path == "/events":
            try:
                cursor = int(parse_qs(parsed.query).get("cursor", ["0"])[0])
            except ValueError:
                cursor = 0
            self.send_json(200, self.coord.events_since(cursor))
        elif (digest := self._digest("/artifacts/")) is not None:
            data = self.coord.cache.get(digest)
            if data is None:
                self.send_json(404, {"error": "not found", "digest": digest})
            else:
                self.send_bytes(200, data, {CHECKSUM_HEADER: content_sha256(data)})

    def do_HEAD(self) -> None:
        if not self._authorized():
            return
        digest = self._digest("/artifacts/")
        if digest is not None:
            found = self.coord.cache.has(digest)
            self.send_bytes(200 if found else 404, b"", head_only=True)

    def do_PUT(self) -> None:
        if not self._authorized():
            return
        digest = self._digest("/artifacts/")
        if digest is None:
            return
        data = self.read_body()
        claimed = self.headers.get(CHECKSUM_HEADER)
        if claimed and claimed != content_sha256(data):
            # a truncated or garbled upload must never be renamed into place
            self.send_json(400, {"error": "checksum mismatch on upload",
                                 "digest": digest})
            return
        self.coord.cache.put(digest, data)
        self.send_json(201, {"stored": True, "digest": digest})

    def do_POST(self) -> None:
        if not self._authorized():
            return
        if self.path.startswith("/quarantine/"):
            digest = self._digest("/quarantine/")
            if digest is not None:
                moved = self.coord.cache.quarantine(digest)
                self.send_json(200, {"quarantined": moved, "digest": digest})
            return
        payload = self.read_json()
        if self.path == "/jobs":
            self.send_json(200, self.coord.submit_jobs(payload))
        elif self.path == "/lease":
            response = self.coord.lease(
                payload.get("worker", "anonymous"),
                payload.get("code_version"),
            )
            self.send_json(409 if "error" in response else 200, response)
        elif self.path == "/heartbeat":
            self.send_json(200, self.coord.heartbeat(
                payload.get("lease", ""), payload.get("worker")))
        elif self.path == "/result":
            self.send_json(200, self.coord.result(
                payload.get("lease", ""),
                payload.get("artifact") or {},
                payload.get("wall", 0.0),
                payload.get("trace"),
            ))
        elif self.path == "/control":
            self.send_json(200, self.coord.control(payload.get("action", "")))
        else:
            self.send_json(404, {"error": "unknown endpoint"})
