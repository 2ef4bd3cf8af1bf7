"""The worker-pool protocol: job lease / heartbeat / result over HTTP.

``repro fleet serve`` runs one :class:`FleetCoordinator`: a priority job
queue behind bookkeeping endpoints, with the lease/heartbeat state machine
that makes cross-machine work-stealing safe:

    =========================  ================================================
    ``GET  /health``           liveness: worker/queue/terminal counts, feed length
    ``GET  /status``           job counts plus :func:`tally` over the whole feed
    ``POST /jobs``             submit a batch of specs (the sweep driver)
    ``POST /lease``            pull one job (workers); registers the worker
    ``POST /heartbeat``        renew a lease; ``ok: false`` = lease was stolen
    ``POST /result``           deliver an artifact; drives retry/completion
    ``GET  /events?cursor=N``  lifecycle event feed (the driver's poll)
    ``POST /control``          ``drain`` (workers seen so far exit when idle)
    =========================  ================================================

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
from typing import Any, Iterable, Optional
from urllib.parse import parse_qs, urlparse

from ..execute import failure_artifact  # noqa: F401  (re-exported for workers)
from ..scheduler import DONE, PENDING, RUNNING, JobGraph
from ..spec import RunSpec, code_version
from .wire import BackgroundServer, JsonRequestHandler

__all__ = ["FleetCoordinator", "DEFAULT_LEASE_TIMEOUT", "tally"]

DEFAULT_LEASE_TIMEOUT = 15.0


def tally(records: Iterable[dict]) -> dict:
    """Remote-pool counters over coordinator feed records: ``steals``,
    ``retries``, ``worker_losses``, ``chaos_kills``, ``store_hits``, and
    per-worker ``jobs`` (leases taken), ``store_hits`` and ``lost`` leases
    for every worker a record names -- over the whole feed that includes
    idle workers (``worker-joined``); a sweep's slice holds only its own
    jobs' records, so it names only the workers that served it."""
    events: Counter = Counter()
    workers: dict[str, dict] = {}
    for record in records:
        event = record.get("event")
        events[event] += 1
        name = record.get("worker")
        if name is None:
            continue
        row = workers.setdefault(name, {"jobs": 0, "store_hits": 0, "lost": 0})
        if event == "started":
            row["jobs"] += 1
        elif event == "lease-expired":
            row["lost"] += 1
        elif event == "completed" and record.get("store_hit"):
            row["store_hits"] += 1
    return {
        "steals": events["stolen"],
        "retries": events["retry"],
        "worker_losses": events["lease-expired"],
        "chaos_kills": events["chaos-kill"],
        "store_hits": sum(row["store_hits"] for row in workers.values()),
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
    artifact: Optional[dict] = None
    cached: bool = False
    chaos_killed: bool = False


@dataclass
class _Lease:
    lease_id: str
    digest: str
    worker: str
    expires_at: float


class FleetCoordinator(BackgroundServer):
    """Job queue + lease bookkeeping behind the endpoints above.

    Parameters mirror the fork pool where they overlap: ``retries`` and
    ``backoff`` apply to *reported* failures; ``lease_timeout`` is the
    heartbeat budget after which a silent worker is presumed dead; and
    ``max_steals`` bounds re-queues from worker loss (default
    ``retries + 2``).  ``store_url``, when set, is handed to workers at
    lease time so a bare ``repro fleet worker host:port`` needs no store
    flag of its own.
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
        store_url: Optional[str] = None,
        token: Optional[str] = None,
        clock=time.monotonic,
    ) -> None:
        super().__init__(host, port, token=token)
        self.lease_timeout = lease_timeout
        self._graph = JobGraph(retries=retries, backoff=backoff)
        self.max_steals = self._graph.retries + 2 if max_steals is None else max_steals
        self.store_url = store_url
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
        or completed is not queued again; a failed one runs again with fresh
        attempts (failures are never cached)."""
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
                if existing is not None and existing.status != "failed":
                    if existing.node.state == DONE:
                        # a long-lived coordinator serving successive sweep
                        # phases: hand the terminal record straight back so
                        # the driver need not wait on an event that already
                        # scrolled past its feed cursor
                        done.append({
                            "digest": digest,
                            "status": existing.status,
                            "artifact": existing.artifact,
                            "attempt": existing.node.attempts,
                            "wall": round(existing.wall, 6),
                            "store_hit": existing.cached,
                        })
                    continue
                # new, or a failed run resubmitted: (re)queue it, fresh attempts
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
                "store": self.store_url,
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
               store_hit: bool = False, trace: Optional[list] = None) -> dict:
        """``POST /result``: terminal or retried, per the fork-pool rules."""
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
            if artifact.get("status") == "ok":
                self._finish(job, "completed", artifact, cached=store_hit,
                             worker=lease.worker)
            elif (delay := self._graph.retry(job.digest, now)) is not None:
                error = (artifact.get("error") or {}).get("type", "error")
                self._emit("retry", digest=job.digest, job=job.label,
                           attempt=job.node.attempts, error=error,
                           backoff=round(delay, 3), worker=lease.worker)
            else:
                self._finish(job, "failed", artifact, worker=lease.worker)
            return {"ok": True}

    def _finish(self, job: _Job, status: str, artifact: dict, *,
                cached: bool = False, worker: Optional[str] = None) -> None:
        job.status = status
        job.artifact = artifact
        job.cached = cached
        fields = {"digest": job.digest, "job": job.label,
                  "attempt": job.node.attempts, "wall": round(job.wall, 6),
                  "artifact": artifact}
        if worker is not None:
            fields["worker"] = worker
        if status == "failed":
            fields["error"] = (artifact.get("error") or {}).get("type", "error")
        if cached:
            fields["store_hit"] = True
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
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            cursor = max(0, min(int(cursor), len(self._events)))
            events = self._events[cursor:]
            done = bool(self._jobs) and not self._graph.unfinished
            return {"events": events, "cursor": cursor + len(events),
                    "done": done}

    def health(self) -> dict:
        now = self._clock()
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

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/health":
            # liveness stays open (probes, worker discovery)
            self.send_json(200, self.coord.health())
        elif not self._authorized():
            return
        elif parsed.path == "/status":
            self.send_json(200, self.coord.status())
        elif parsed.path == "/events":
            try:
                cursor = int(parse_qs(parsed.query).get("cursor", ["0"])[0])
            except ValueError:
                cursor = 0
            self.send_json(200, self.coord.events_since(cursor))
        else:
            self.send_json(404, {"error": "unknown endpoint"})

    def do_POST(self) -> None:
        if not self._authorized():
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
                bool(payload.get("store_hit")),
                payload.get("trace"),
            ))
        elif self.path == "/control":
            self.send_json(200, self.coord.control(payload.get("action", "")))
        else:
            self.send_json(404, {"error": "unknown endpoint"})
