"""The sweep driver's remote pool: one coordinator's workers.

:class:`RemotePool` is interface-compatible with
:class:`~repro.fleet.scheduler.FleetScheduler` (``submit`` / ``run`` /
``results`` / ``outcomes`` / ``summary``), so ``run_sweep`` and ``repro
fleet run`` swap one for the other when ``--workers`` names a coordinator
endpoint: the same single dependency-pipelined pool, the same observe
analysis, over remote workers.

The driver:

1. submits its jobs to the coordinator as one batch, each job row
   carrying its ``after`` producers so the coordinator's
   :class:`~repro.fleet.scheduler.JobGraph` holds a render until the
   artifacts it consumes are terminal.  The coordinator answers every
   digest already in its store as a ``done`` row, which the driver logs
   as ``cached-hit`` -- the remote sweep's only hit check;
2. polls the coordinator's event feed, re-emitting its own jobs'
   lifecycle records into the sweep's :class:`EventLog` (never another
   driver's jobs or a worker joining) with the *coordinator's* timestamps
   preserved -- so ``observe`` swimlanes and critical-path analysis see
   the same ``queued/started/retry/stolen/completed`` stream a local
   sweep produces;
3. collects terminal artifacts from the feed into ``results``, returning
   once every job *this* pool submitted is resolved -- jobs other sweeps
   submitted to a shared coordinator are not its business.  The
   coordinator stored each ok artifact already; the driver writes none.

Failure containment mirrors the fork pool: a worker that vanishes
mid-job trips lease expiry on the coordinator (steal + retry, bounded),
and a sweep whose workers *all* vanish fails its remaining jobs locally
with ``no-workers`` artifacts after a grace period instead of hanging.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Union

from ..events import EventLog
from ..execute import failure_artifact
from ..scheduler import JobOutcome, summarize_outcomes
from ..spec import RunSpec
from .wire import Endpoint, WireError, parse_endpoint, request_json

__all__ = ["RemotePool"]

#: coordinator event fields that never go into the local event log
#: (artifacts are collected into ``results``, not logged)
_STRIP_FIELDS = ("artifact",)


class RemotePool:
    """Drive a sweep's jobs over one coordinator's remote workers.

    Parameters
    ----------
    endpoint: the coordinator address (a ``host:port`` string); its store
        is the sweep's cache.
    timeout / retries: forwarded to the coordinator with the job batch.
    chaos_kills: arm N deterministic worker kills on the coordinator
        (the ``--chaos`` drill, remote edition).
    drain: after the run completes, tell the coordinator to send the
        workers it has seen home once its queue is empty.
    worker_grace: seconds to tolerate zero live workers with jobs
        pending before failing the remainder locally.
    trace_dir: when set, ask workers (via the coordinator) to relay
        their flight-recorder mirror tails; each relay lands as
        ``remote-<digest>.<attempt>.jsonl`` in this directory, where the
        post-hoc merge and the live tailer pick it up exactly like a
        local worker's mirror.
    """

    def __init__(
        self,
        endpoint: Union[str, Endpoint],
        *,
        timeout: Optional[float] = None,
        retries: int = 1,
        events: Optional[EventLog] = None,
        chaos_kills: int = 0,
        chaos_seed: int = 0,
        drain: bool = False,
        poll_interval: float = 0.15,
        worker_grace: float = 60.0,
        trace_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.endpoint = parse_endpoint(endpoint)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.events = events if events is not None else EventLog()
        self.chaos_kills = max(0, chaos_kills)
        self.chaos_seed = chaos_seed
        self.drain = drain
        self.poll_interval = poll_interval
        self.worker_grace = worker_grace
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._submitted: dict[str, tuple[RunSpec, int, tuple]] = {}
        self.results: dict[str, dict] = {}
        self.outcomes: dict[str, JobOutcome] = {}

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        spec: RunSpec,
        *,
        priority: int = 0,
        after: tuple = (),
    ) -> str:
        """Queue one spec (lower ``priority`` leases first; ``repro fleet
        run --interactive`` uses -1 to jump any queued sweep).  ``after``
        lists consumed artifact digests: the coordinator holds the job
        until those it was also sent are terminal."""
        digest = spec.digest
        if digest in self._submitted:
            return digest
        self._submitted[digest] = (spec, priority, tuple(after))
        self.outcomes[digest] = JobOutcome.of(spec)
        return digest

    # -- coordinator round trips ---------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        status, body = request_json(
            self.endpoint, method, path, payload, timeout=30.0, retries=2
        )
        if status != 200:
            raise WireError(f"{path} on {self.endpoint.address} -> HTTP {status}")
        return body

    # -- the run loop --------------------------------------------------------

    def run(self) -> dict[str, dict]:
        """Drain every submitted job through the coordinator; returns
        ``{digest: artifact}``.  Job failures become failure artifacts,
        never exceptions -- same contract as the fork pool."""
        # the live merger holds its seal behind open remote jobs
        self.events.emit("pool-start", remote=True)
        if self._submitted:
            cursor = self._submit()
            if self._unresolved():
                self._poll(cursor)
        summary = self.summary()
        self.events.emit("sweep-summary", **summary)
        if self.drain:
            try:
                self._request("POST", "/control", {"action": "drain"})
            except WireError:  # pragma: no cover - already gone
                pass
        return self.results

    def _submit(self) -> int:
        """Send the jobs as one batch and log the coordinator's store hits;
        returns the coordinator's event-feed cursor snapshotted *before*
        submission (a long-lived coordinator has older sweeps' events in
        its feed)."""
        jobs = [
            {"digest": digest, "spec": spec.to_dict(), "label": spec.label,
             "priority": priority, "after": list(after)}
            for digest, (spec, priority, after) in self._submitted.items()
        ]
        cursor = self._request("GET", "/health").get("feed", 0)
        payload = {
            "jobs": jobs,
            "retries": self.retries,
            "timeout": self.timeout,
            "trace": self.trace_dir is not None,
        }
        if self.chaos_kills:
            payload["chaos_kills"] = self.chaos_kills
            payload["chaos_seed"] = self.chaos_seed
        response = self._request("POST", "/jobs", payload)
        for row in response.get("done", ()):
            digest = row["digest"]
            outcome = self.outcomes[digest]
            self.results[digest] = row["artifact"]
            outcome.status = "cached"
            outcome.cached = True
            self.events.emit("cached-hit", digest=digest, job=outcome.job)
        return cursor

    def _poll(self, cursor: int) -> None:
        no_worker_since: Optional[float] = None
        while True:
            try:
                feed = self._request("GET", f"/events?cursor={cursor}")
            except WireError:
                self._fail_remaining("coordinator-lost",
                                     f"coordinator {self.endpoint.address} "
                                     "became unreachable mid-sweep")
                return
            events = feed.get("events", ())
            cursor = feed.get("cursor", cursor)
            alive = int(feed.get("workers", 0))
            for record in events:
                self._ingest(record)
            if not self._unresolved():
                return
            now = time.monotonic()
            if alive == 0:
                no_worker_since = no_worker_since if no_worker_since is not None else now
                if now - no_worker_since > self.worker_grace:
                    self._fail_remaining(
                        "no-workers",
                        f"no live workers for {self.worker_grace}s "
                        "with jobs still pending",
                    )
                    return
            else:
                no_worker_since = None
            if not events:
                time.sleep(self.poll_interval)

    # -- event ingestion -----------------------------------------------------

    def _ingest(self, record: dict) -> None:
        event = record.get("event")
        digest = record.get("digest")
        if digest not in self._submitted:
            # another driver's job on a shared coordinator, or a worker
            # joining it: this sweep's slice holds only its own jobs
            return
        if event == "trace":
            # a remote worker's mirror tail: land it as a mirror *file*
            # (not a log record) so the trace merge and the live tailer
            # treat remote attempts exactly like local ones.  This record
            # precedes the attempt's terminal record in the feed, so by
            # the time the terminal is logged the mirror is on disk.
            self._write_relay(record)
            return
        clean = {k: v for k, v in record.items()
                 if k not in _STRIP_FIELDS and k not in ("t", "event")}
        self.events.emit(event, t=record.get("t"), **clean)
        outcome = self.outcomes[digest]
        if event == "started":
            outcome.attempts = max(outcome.attempts,
                                   int(record.get("attempt", 1)))
        elif event in ("completed", "failed"):
            self._terminal(record)

    def _write_relay(self, record: dict) -> None:
        if self.trace_dir is None:
            return
        events = record.get("events") or ()
        if not events:
            return
        digest = record.get("digest") or "unknown"
        attempt = int(record.get("attempt", 1))
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"remote-{digest[:12]}.{attempt}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")

    def _terminal(self, record: dict) -> None:
        digest = record["digest"]
        if digest in self.results:
            return
        outcome = self.outcomes[digest]
        artifact = record.get("artifact") or {}
        self.results[digest] = artifact
        outcome.attempts = max(outcome.attempts, int(record.get("attempt", 1)))
        outcome.wall += float(record.get("wall", 0.0) or 0.0)
        if record["event"] == "completed":
            outcome.status = "completed"
        else:
            outcome.status = "failed"
            error = artifact.get("error") or {}
            outcome.error = (
                f"{error.get('type', record.get('error', 'error'))}: "
                f"{error.get('message', '')}"
            )

    def _unresolved(self) -> list[str]:
        return [d for d in self._submitted if d not in self.results]

    def _fail_remaining(self, error_type: str, message: str) -> None:
        for digest in self._unresolved():
            spec = self._submitted[digest][0]
            outcome = self.outcomes[digest]
            artifact = failure_artifact(
                spec, error_type, message,
                attempts=max(1, outcome.attempts),
            )
            self.results[digest] = artifact
            outcome.status = "failed"
            outcome.error = f"{error_type}: {message}"
            self.events.emit("failed", digest=digest, job=outcome.job,
                             attempt=max(1, outcome.attempts), error=error_type)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        return summarize_outcomes(self.outcomes.values())
