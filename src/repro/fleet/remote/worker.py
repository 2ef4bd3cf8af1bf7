"""The stateless worker: lease, execute, report, repeat.

``repro fleet worker <host:port>`` runs one :class:`FleetWorker` against a
coordinator.  The worker owns **no** sweep state -- which jobs exist, what
has finished, what to retry all live on the coordinator -- so a worker can
join mid-sweep, crash mid-job, or be added on a second machine without any
coordination beyond the lease protocol:

1. ``POST /lease`` (with this tree's ``code_version`` -- a worker built
   from different sources would compute different digests, so the
   coordinator refuses it rather than split the cache);
2. short-circuit through the shared artifact store (another worker, or a
   previous sweep, may have produced this digest already);
3. otherwise fork a child with :func:`repro.fleet.scheduler.start_child`
   -- the *same* entry point the local pool uses, so artifacts are
   byte-identical by construction -- heartbeating the lease while the
   child runs and enforcing the coordinator's per-job timeout;
4. ``PUT`` the artifact to the store (successes only; failures are never
   cached), then ``POST /result``.

A heartbeat answered ``ok: false`` means the lease expired and the job was
re-queued for stealing -- this worker was presumed dead (a long GC pause, a
network partition).  The worker kills its child and abandons the job
rather than double-reporting.

Chaos drills: a lease carrying ``"chaos": "kill"`` makes the worker
SIGKILL its own process group -- no cleanup, no goodbye, exactly like a
machine loss -- which is how the steal/retry path gets exercised
end-to-end in tests and CI.
"""

from __future__ import annotations

import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional, Union

from ..cache import StoreIntegrityError
from ..execute import execute_spec, failure_artifact, from_bytes, to_bytes
from ..scheduler import collect_child, mirror_tail, start_child, stop_child
from ..spec import RunSpec, code_version
from .store import HTTPStore
from .wire import Endpoint, WireError, parse_endpoint, request_json

__all__ = ["FleetWorker"]

#: mirror-tail relay cap per attempt: enough for every scheduler-side
#: bench body (hundreds of events), bounded so a runaway child cannot
#: bloat the /result payload past the wire's body limit
TRACE_TAIL_LIMIT = 2048


def _default_log(message: str) -> None:  # pragma: no cover - CLI plumbing
    print(message, file=sys.stderr, flush=True)


class FleetWorker:
    """One lease-execute-report loop against a coordinator.

    ``store`` overrides the artifact store; by default the worker uses
    whatever store URL the coordinator hands out at lease time (so a bare
    ``repro fleet worker host:port`` needs no flags).  ``max_idle`` bounds
    how long the worker polls an empty queue before exiting (``None`` =
    poll until the coordinator drains or disappears).  Tests substitute
    ``executor``; it must be callable in a forked child.
    """

    def __init__(
        self,
        coordinator: Union[str, Endpoint],
        *,
        worker_id: Optional[str] = None,
        store: Optional[HTTPStore] = None,
        executor: Callable[[RunSpec], dict] = execute_spec,
        poll_interval: float = 0.2,
        max_idle: Optional[float] = None,
        connect_retries: int = 10,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.coordinator = parse_endpoint(coordinator)
        self.worker_id = worker_id or f"{os.uname().nodename}-{os.getpid()}"
        self.store = store
        self.executor = executor
        self.poll_interval = poll_interval
        self.max_idle = max_idle
        self.connect_retries = connect_retries
        self.log = log if log is not None else _default_log
        self.completed = 0
        self.store_hits = 0

    # -- protocol round trips ------------------------------------------------

    def _post(self, path: str, payload: dict, *, retries: int = 2) -> tuple[int, dict]:
        return request_json(
            self.coordinator, "POST", path, payload, timeout=30.0, retries=retries
        )

    def _lease(self) -> tuple[int, dict]:
        return self._post(
            "/lease",
            {"worker": self.worker_id, "code_version": code_version()},
            # generous retries on the lease: workers race the coordinator's
            # socket bind at startup (the two-terminal quickstart)
            retries=self.connect_retries,
        )

    def _heartbeat(self, lease_id: str) -> bool:
        try:
            _, payload = self._post(
                "/heartbeat", {"lease": lease_id, "worker": self.worker_id}
            )
        except WireError:
            return True  # transient coordinator hiccup; keep working
        return bool(payload.get("ok", False))

    # -- the loop ------------------------------------------------------------

    def run(self) -> int:
        """Lease until the coordinator drains (or ``max_idle`` expires);
        returns the number of jobs this worker completed."""
        idle_since: Optional[float] = None
        self.log(
            f"worker {self.worker_id}: polling "
            f"http://{self.coordinator.address} ({code_version()[:12]})"
        )
        while True:
            try:
                status, response = self._lease()
            except WireError as exc:
                self.log(f"worker {self.worker_id}: coordinator gone: {exc}")
                return self.completed
            if status == 409 or "error" in response:
                raise SystemExit(
                    f"worker {self.worker_id}: refused by coordinator: "
                    f"{response.get('error', f'HTTP {status}')} "
                    f"(coordinator={str(response.get('coordinator'))[:12]} "
                    f"worker={str(response.get('worker'))[:12]})"
                )
            job = response.get("job")
            if job is None:
                if response.get("shutdown"):
                    self.log(f"worker {self.worker_id}: coordinator drained; "
                             f"exiting after {self.completed} job(s)")
                    return self.completed
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if self.max_idle is not None and now - idle_since > self.max_idle:
                    return self.completed
                time.sleep(self.poll_interval)
                continue
            idle_since = None
            if response.get("chaos") == "kill":
                # the drill: die exactly like a lost machine -- mid-lease,
                # no result, no cleanup; the lease expires and the job is
                # stolen by a surviving worker
                self.log(f"worker {self.worker_id}: chaos kill "
                         f"(job {job['label']})")
                os.kill(os.getpid(), signal.SIGKILL)
            self._serve_lease(job, response)

    def _serve_lease(self, job: dict, response: dict) -> None:
        lease_id = job["lease"]
        store = self._resolve_store(response.get("store"))
        outcome = self._execute(job, store,
                                timeout=response.get("timeout"),
                                hb_interval=float(response.get("heartbeat", 2.0)),
                                trace=bool(response.get("trace")))
        if outcome is None:
            return  # lease stolen mid-run; the steal path owns the job now
        artifact, wall, store_hit, trace_events = outcome
        if store is not None and not store_hit and artifact.get("status") == "ok":
            try:
                store.put(job["digest"], to_bytes(artifact))
            except WireError as exc:  # pragma: no cover - store died mid-sweep
                self.log(f"worker {self.worker_id}: store put failed: {exc}")
        try:
            payload = {
                "lease": lease_id,
                "artifact": artifact,
                "wall": round(wall, 6),
                "store_hit": store_hit,
            }
            if trace_events:
                payload["trace"] = trace_events
            self._post("/result", payload)
        except WireError as exc:
            self.log(f"worker {self.worker_id}: result delivery failed: {exc}")
            return
        self.completed += 1
        if store_hit:
            self.store_hits += 1

    def _resolve_store(self, url: Optional[str]) -> Optional[HTTPStore]:
        if self.store is not None:
            return self.store
        if url:
            self.store = HTTPStore(url)
            # children fork with this env, so bench bodies' default_cache()
            # resolves to the shared store too
            os.environ["REPRO_CACHE_DIR"] = url
            return self.store
        return None

    # -- execution -----------------------------------------------------------

    def _execute(
        self,
        job: dict,
        store: Optional[HTTPStore],
        *,
        timeout: Optional[float],
        hb_interval: float,
        trace: bool = False,
    ) -> Optional[tuple[dict, float, bool, list]]:
        """Produce the artifact for one leased job.

        Returns ``(artifact, wall_seconds, store_hit, trace_events)``, or
        ``None`` when the lease was stolen mid-run (result abandoned).
        ``trace_events`` is the tail of the child's flight-recorder mirror
        (empty unless the coordinator asked for relay at lease time).
        """
        spec = RunSpec.from_dict(job["spec"])
        if store is not None:
            try:
                data = store.get(spec.digest)
            except (StoreIntegrityError, WireError):
                data = None  # quarantined or unreachable: just re-execute
            if data is not None:
                return from_bytes(data), 0.0, True, []
        started = time.monotonic()
        deadline = started + timeout if timeout else None
        attempt = int(job.get("attempt", 1))
        with tempfile.TemporaryDirectory(prefix="repro-worker-") as spool:
            out_path = Path(spool) / f"{spec.digest}.json"
            trace_path = (
                f"{spool}/trace-{spec.digest[:12]}.{attempt}.jsonl"
                if trace else None
            )
            proc = start_child(self.executor, spec, out_path, trace_path,
                               attempt)
            while proc.is_alive():
                proc.join(hb_interval)
                if not proc.is_alive():
                    break
                now = time.monotonic()
                if deadline is not None and now > deadline:
                    stop_child(proc)
                    return (
                        failure_artifact(
                            spec, "timeout",
                            f"exceeded {timeout}s wall-clock limit",
                            attempts=attempt,
                        ),
                        now - started, False, mirror_tail(trace_path, TRACE_TAIL_LIMIT),
                    )
                if not self._heartbeat(job["lease"]):
                    self.log(f"worker {self.worker_id}: lease stolen for "
                             f"{job['label']}; abandoning")
                    stop_child(proc)
                    return None
            artifact = collect_child(proc, out_path, spec, attempt)
            wall = time.monotonic() - started
            return artifact, wall, False, mirror_tail(trace_path, TRACE_TAIL_LIMIT)
