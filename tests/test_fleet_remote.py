"""repro.fleet.remote: store protocol, lease state machine, remote pool.

Three layers of test:

* **wire/store** -- endpoint parsing; local-dir vs HTTP backend byte
  equivalence against the coordinator's store; digest verification
  (transfer corruption, garbled bodies, embedded-digest drift)
  quarantining server-side; concurrent same-digest puts staying
  idempotent; the stranded-``*.tmp``-file sweep regression.
* **coordinator** -- the lease/heartbeat state machine driven with an
  injected fake clock: renewal, expiry -> steal, bounded worker loss ->
  ``worker-lost`` failure, reported-failure retry/backoff, ``after``
  holds, interactive priority, a failed digest resubmitted running
  again, the drain rule, the code-version handshake, and the
  deterministic chaos-kill schedule.
* **end-to-end** -- real worker *processes* (fork) against an in-process
  coordinator that keeps the store: a two-worker sweep whose artifacts
  are byte-identical to the fork pool's, chaos SIGKILLing a live worker
  mid-lease with the job stolen and completed by the survivor, a pool
  returning while another client's job still runs, two drained sweeps
  sharing one long-lived coordinator (the second answered from its
  store), and ``run_sweep(workers=...)`` over the synthetic bench suite
  matching a local sweep object-for-object.

Workers in the chaos tests must be OS processes (the kill directive is a
self-SIGKILL); everything else keeps servers in daemon threads.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fleet import (
    EventLog,
    FleetScheduler,
    ResultCache,
    RunSpec,
    StoreIntegrityError,
    code_version,
    failure_artifact,
    run_cached,
    to_bytes,
)
from repro.fleet.remote import (
    FleetCoordinator,
    FleetWorker,
    HTTPStore,
    RemotePool,
    parse_endpoint,
)
from repro.fleet.remote.coordinator import tally
from repro.observe.critical_path import critical_path

_CTX = multiprocessing.get_context("fork")


@pytest.fixture(autouse=True)
def coordinator_cache(tmp_path, monkeypatch):
    """A coordinator built without ``cache`` stores in the default cache
    directory: give each test its own, so no stored result leaks into
    another test's ``/jobs`` hit check."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "coordinator-cache"))


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "remote-test-1")
    return "remote-test-1"


def _stub_ok(spec: RunSpec) -> dict:
    """Deterministic stub executor (module-level: fork/pickle safe)."""
    return {
        "schema": 1,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "result": {"label": spec.label, "seed": spec.seed},
    }


def _stub_raise(spec: RunSpec) -> dict:
    raise RuntimeError(f"boom for {spec.label}")


def _stub_gated(spec: RunSpec) -> dict:
    """Blocks until the file named by the spec's ``gate`` param exists."""
    gate = spec.program_params().get("gate")
    while gate and not Path(gate).exists():
        time.sleep(0.01)
    return _stub_ok(spec)


def make_specs(n: int) -> list[RunSpec]:
    return [RunSpec.make(f"job{i}", mode="tool", seed=i) for i in range(n)]


def ok_artifact(spec: RunSpec) -> dict:
    return _stub_ok(spec)


def job_rows(specs) -> list[dict]:
    return [
        {"digest": s.digest, "spec": s.to_dict(), "label": s.label}
        for s in specs
    ]


def _worker_entry(address: str, worker_id: str) -> None:
    FleetWorker(
        address, worker_id=worker_id, executor=_stub_ok,
        poll_interval=0.02, log=lambda m: None,
    ).run()


def start_worker_process(address: str, worker_id: str):
    # not daemonic: the worker forks a child per job (test teardown kills
    # any survivor explicitly)
    proc = _CTX.Process(target=_worker_entry, args=(address, worker_id))
    proc.start()
    return proc


# -------------------------------------------------------------------- wire


def test_parse_endpoint_forms():
    assert parse_endpoint("somehost:8750").address == "somehost:8750"
    assert parse_endpoint(":8750").address == "127.0.0.1:8750"
    assert parse_endpoint("http://h:8750/").address == "h:8750"


@pytest.mark.parametrize(
    "bad", ["nohost", "h:", "h:not-a-port", "http://h/", "a:1,b:2"]
)
def test_parse_endpoint_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_endpoint(bad)


# ---------------------------------------------------- store backend protocol


@pytest.fixture
def store_pair(tmp_path):
    """A coordinator serving its store + a client, plus a plain local cache."""
    server = FleetCoordinator(cache=tmp_path / "served").start()
    try:
        yield server, HTTPStore(server.url), ResultCache(tmp_path / "local")
    finally:
        server.shutdown()


def test_http_and_local_backends_round_trip_byte_identical(
    store_pair, pinned_version
):
    server, http, local = store_pair
    spec = make_specs(1)[0]
    data = to_bytes(ok_artifact(spec))
    http.put(spec.digest, data)
    local.put(spec.digest, data)
    # client-visible bytes agree with each other and with the wire input
    assert http.get(spec.digest) == data
    assert local.get(spec.digest) == http.get(spec.digest)
    # and the served backing file is the same object the local backend wrote
    served_path = server.cache._object_path(spec.digest)
    local_path = local._object_path(spec.digest)
    assert served_path.read_bytes() == local_path.read_bytes()
    assert http.has(spec.digest)
    assert not http.has("ee" + "0" * 62)
    assert http.get("ee" + "0" * 62) is None
    info = http.describe()
    assert info["objects"] == 1 and info["hits"] == 2 and info["puts"] == 1


def test_store_health_endpoint(store_pair, pinned_version):
    _, http, _ = store_pair
    health = http.health()
    assert health["status"] == "ok"
    assert health["service"] == "repro-fleet-coordinator"
    assert health["objects"] == 0
    spec = make_specs(1)[0]
    http.put(spec.digest, to_bytes(ok_artifact(spec)))
    assert http.health()["objects"] == 1


def test_embedded_digest_mismatch_raises_and_quarantines(
    store_pair, pinned_version
):
    server, http, _ = store_pair
    spec_a, spec_b = make_specs(2)
    # a valid artifact stored under the WRONG key: transfer checksums all
    # pass (the bytes arrive intact), only the embedded digest betrays it
    http.put(spec_b.digest, to_bytes(ok_artifact(spec_a)))
    with pytest.raises(StoreIntegrityError) as err:
        http.get(spec_b.digest)
    assert spec_b.digest.startswith(err.value.digest[:12])
    # quarantined server-side: the next fetch is a plain miss, and the
    # corrupt object is preserved for forensics
    assert http.get(spec_b.digest) is None
    assert not server.cache.has(spec_b.digest)
    quarantined = list(server.cache.quarantine_dir.glob("*.json"))
    assert [p.stem for p in quarantined] == [spec_b.digest]


def test_garbled_body_raises_and_quarantines(store_pair, pinned_version):
    server, http, _ = store_pair
    spec = make_specs(1)[0]
    http.put(spec.digest, to_bytes(ok_artifact(spec)))
    # on-disk corruption on the server: body no longer parses as JSON
    server.cache._object_path(spec.digest).write_bytes(b"\x00garbage\xff")
    with pytest.raises(StoreIntegrityError):
        http.get(spec.digest)
    assert http.get(spec.digest) is None  # quarantined -> miss


def test_store_rejects_corrupt_upload(store_pair, pinned_version):
    from repro.fleet.remote.store import CHECKSUM_HEADER
    from repro.fleet.remote.wire import request

    server, http, _ = store_pair
    spec = make_specs(1)[0]
    data = to_bytes(ok_artifact(spec))
    # claim the true checksum but deliver truncated bytes: the server must
    # refuse rather than rename the damage into place
    from repro.fleet import content_sha256

    status, _, _ = request(
        server.address, "PUT", f"/artifacts/{spec.digest}", data[:-5],
        {CHECKSUM_HEADER: content_sha256(data)},
    )
    assert status == 400
    assert not server.cache.has(spec.digest)


def test_concurrent_put_same_digest_idempotent(store_pair, pinned_version):
    server, http, _ = store_pair
    spec = make_specs(1)[0]
    data = to_bytes(ok_artifact(spec))
    clients = [HTTPStore(server.url) for _ in range(8)]
    barrier = threading.Barrier(len(clients))
    errors = []

    def racer(client):
        barrier.wait()
        try:
            client.put(spec.digest, data)
        except Exception as exc:  # surfaced below: threads swallow raises
            errors.append(exc)

    threads = [threading.Thread(target=racer, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not errors
    assert len(server.cache) == 1
    assert http.get(spec.digest) == data
    assert not list(server.cache.tmp_files())  # every temp file was renamed


def test_store_rejects_malformed_digest(store_pair):
    _, http, _ = store_pair
    from repro.fleet.remote.wire import request

    status, _, _ = request(http.url, "GET", "/artifacts/..evil")
    assert status == 400


def test_run_cached_treats_integrity_failure_as_miss(
    store_pair, pinned_version, monkeypatch
):
    server, http, _ = store_pair
    spec = RunSpec.make("chaos-probe", mode="chaos")
    artifact = ok_artifact(spec)
    http.put(spec.digest, to_bytes(artifact))
    server.cache._object_path(spec.digest).write_bytes(b"not json")
    # the corrupt hit quarantines, then run_cached re-executes; a chaos
    # spec raises, proving execution was reached (the miss path)
    with pytest.raises(RuntimeError, match="injected chaos"):
        run_cached(spec, http)


# ------------------------------------------------ stranded tmp-file sweep


def test_clean_sweeps_stranded_tmp_files(tmp_path, pinned_version):
    cache = ResultCache(tmp_path / "cache")
    spec = make_specs(1)[0]
    cache.put(spec.digest, to_bytes(ok_artifact(spec)))
    # a worker SIGKILLed between writing its temp file and the rename
    shard = cache._object_path(spec.digest).parent
    stranded = shard / f".{spec.digest}.json.tmp.9999"
    stranded.write_bytes(b"partial")
    assert [p.name for p in cache.tmp_files()] == [stranded.name]
    removed = cache.clean()
    assert removed == 2  # the artifact and the stranded temp file
    assert not stranded.exists()
    assert len(cache) == 0 and not list(cache.tmp_files())


def test_gc_sweeps_old_tmp_but_spares_inflight(tmp_path, pinned_version):
    import os

    cache = ResultCache(tmp_path / "cache")
    spec = make_specs(1)[0]
    cache.put(spec.digest, to_bytes(ok_artifact(spec)))
    shard = cache._object_path(spec.digest).parent
    old = shard / f".{spec.digest}.json.tmp.111"
    old.write_bytes(b"partial")
    two_hours_ago = time.time() - 7200
    os.utime(old, (two_hours_ago, two_hours_ago))
    fresh = shard / f".{spec.digest}.json.tmp.222"
    fresh.write_bytes(b"in flight")  # a put racing the gc right now
    removed = cache.gc(live={spec.digest})
    assert removed == 1
    assert not old.exists() and fresh.exists()
    assert cache.has(spec.digest)  # live artifact untouched
    assert cache.sweep_tmp() == 1  # max_age=0: clean-style full sweep


# ------------------------------------------------- coordinator state machine


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def make_coordinator(clock, **kwargs) -> FleetCoordinator:
    kwargs.setdefault("lease_timeout", 10.0)
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("backoff", 0.0)
    return FleetCoordinator(clock=clock, **kwargs)


def events_of(coord: FleetCoordinator, name: str) -> list[dict]:
    return [e for e in coord._events if e["event"] == name]


def test_lease_result_completes(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock)
    (spec,) = make_specs(1)
    assert coord.submit_jobs({"jobs": job_rows([spec])})["accepted"] == 1
    response = coord.lease("w1", code_version())
    job = response["job"]
    assert job["digest"] == spec.digest and job["attempt"] == 1
    assert coord.result(job["lease"], ok_artifact(spec), wall=0.5)["ok"]
    assert coord.health()["done"] == 1
    assert coord.events_since(0)["done"]
    completed = events_of(coord, "completed")
    assert len(completed) == 1 and completed[0]["worker"] == "w1"
    # the feed cursor is clamped to [0, len(feed)]: a negative one reads
    # from the start instead of handing back the tail as new events
    feed = len(coord._events)
    assert coord.events_since(-2) == coord.events_since(0)
    assert coord.events_since(feed + 5) == {"events": [], "cursor": feed,
                                             "done": True, "workers": 1}
    # resubmitting a terminal digest hands the record straight back
    again = coord.submit_jobs({"jobs": job_rows([spec])})
    assert again["accepted"] == 0
    assert again["done"][0]["artifact"]["status"] == "ok"


def test_heartbeat_renews_lease(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    job = coord.lease("w1", code_version())["job"]
    clock.advance(8.0)
    assert coord.heartbeat(job["lease"], "w1")["ok"]
    clock.advance(8.0)  # 16s since lease, but only 8 since renewal
    assert coord.lease("w2", code_version())["job"] is None  # not stolen
    assert coord.status()["steals"] == 0


def test_missed_heartbeats_steal_the_job(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    first = coord.lease("w1", code_version())["job"]
    clock.advance(10.5)  # w1 goes silent past the lease timeout
    second = coord.lease("w2", code_version())["job"]
    assert second is not None and second["digest"] == spec.digest
    assert second["attempt"] == 2
    status = coord.status()
    assert status["steals"] == 1 and status["worker_losses"] == 1
    assert events_of(coord, "stolen")[0]["worker"] == "w1"
    # the presumed-dead worker resurfacing with a late result is dropped
    assert not coord.result(first["lease"], ok_artifact(spec))["ok"]
    # the stolen attempt completes normally
    assert coord.result(second["lease"], ok_artifact(spec))["ok"]
    assert coord.status()["completed"] == 1


def test_worker_loss_is_bounded(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock, max_steals=1)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    assert coord.lease("w1", code_version())["job"] is not None
    clock.advance(10.5)  # first loss: steal
    assert coord.lease("w2", code_version())["job"] is not None
    clock.advance(10.5)  # second loss: past max_steals -> terminal failure
    assert coord.lease("w3", code_version())["job"] is None
    (failed,) = events_of(coord, "failed")
    assert failed["error"] == "worker-lost"
    assert failed["artifact"]["error"]["type"] == "worker-lost"
    assert coord.status()["failed"] == 1
    assert coord.events_since(0)["done"]  # terminal: the sweep can finish


def test_reported_failure_retries_with_backoff_then_fails(pinned_version):
    clock = FakeClock()
    coord = make_coordinator(clock, retries=1, backoff=2.0)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    job = coord.lease("w1", code_version())["job"]
    bad = failure_artifact(spec, "RuntimeError", "boom")
    assert coord.result(job["lease"], bad)["ok"]
    assert events_of(coord, "retry")
    # requeued with backoff: not leasable until the delay elapses
    assert coord.lease("w1", code_version())["job"] is None
    clock.advance(2.1)
    retry = coord.lease("w1", code_version())["job"]
    assert retry is not None and retry["attempt"] == 2
    assert coord.result(retry["lease"], bad)["ok"]  # retries exhausted
    assert coord.status()["failed"] == 1


@pytest.mark.parametrize("outcome", ["completed", "failed"])
def test_after_holds_consumer_until_producer_terminal(pinned_version, outcome):
    clock = FakeClock()
    coord = make_coordinator(clock, retries=1)
    producer, consumer = make_specs(2)
    rows = job_rows([producer, consumer])
    rows[1]["after"] = [producer.digest]
    coord.submit_jobs({"jobs": rows})
    assert events_of(coord, "queued")[1]["deps"] == 1
    first = coord.lease("w1", code_version())["job"]
    assert first["digest"] == producer.digest
    assert coord.lease("w2", code_version())["job"] is None  # held
    if outcome == "failed":
        bad = failure_artifact(producer, "RuntimeError", "boom")
        coord.result(first["lease"], bad)  # retried: not terminal yet
        retry = coord.lease("w2", code_version())["job"]
        assert retry["digest"] == producer.digest and retry["attempt"] == 2
        assert not events_of(coord, "admitted")
        coord.result(retry["lease"], bad)
    else:
        coord.result(first["lease"], ok_artifact(producer))
    assert events_of(coord, outcome)
    (admitted,) = events_of(coord, "admitted")
    assert admitted["digest"] == consumer.digest and admitted["deps"] == 1
    released = coord.lease("w2", code_version())["job"]
    assert released["digest"] == consumer.digest


def test_interactive_priority_leases_ahead_of_sweep_rows(pinned_version):
    coord = make_coordinator(FakeClock())
    cheap, tool, urgent = make_specs(3)
    rows = job_rows([cheap, tool])
    rows[0]["priority"], rows[1]["priority"] = 1, 0  # the two sweep classes
    coord.submit_jobs({"jobs": rows})
    late = job_rows([urgent])
    late[0]["priority"] = -1  # repro fleet run --interactive
    coord.submit_jobs({"jobs": late})
    leased = [coord.lease(f"w{i}", code_version())["job"]["digest"]
              for i in range(3)]
    assert leased == [urgent.digest, tool.digest, cheap.digest]


def test_failed_job_runs_again_when_resubmitted(pinned_version):
    """Failures are never cached: a later sweep resubmitting a digest
    whose run failed gets a fresh run, not the old failure back."""
    coord = make_coordinator(FakeClock(), retries=0)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec])})
    job = coord.lease("w1", code_version())["job"]
    coord.result(job["lease"], failure_artifact(spec, "RuntimeError", "boom"))
    assert coord.status()["failed"] == 1
    again = coord.submit_jobs({"jobs": job_rows([spec])})
    assert again["accepted"] == 1 and again["done"] == []
    rerun = coord.lease("w1", code_version())["job"]
    assert rerun["digest"] == spec.digest and rerun["attempt"] == 1
    assert coord.result(rerun["lease"], ok_artifact(spec))["ok"]
    assert coord.status()["completed"] == 1
    assert coord.status()["failed"] == 0


def test_code_version_handshake_refuses_mismatched_worker(pinned_version):
    coord = make_coordinator(FakeClock())
    coord.submit_jobs({"jobs": job_rows(make_specs(1))})
    response = coord.lease("w1", "some-other-tree")
    assert response["error"] == "code-version-mismatch"
    # the right version still gets the job
    assert coord.lease("w2", code_version())["job"] is not None


def test_chaos_kill_schedule_is_deterministic(pinned_version):
    def drill():
        clock = FakeClock()
        coord = make_coordinator(clock)
        specs = make_specs(3)
        coord.submit_jobs({
            "jobs": job_rows(specs), "chaos_kills": 2, "chaos_seed": 7,
        })
        coord.lease("w1", code_version())  # one worker alive: never killed
        first = coord.lease("w1", code_version())
        assert first["chaos"] is None
        killed = coord.lease("w2", code_version())  # two alive: eligible
        return coord, killed

    coord_a, killed_a = drill()
    coord_b, killed_b = drill()
    # armed kills fire on the same lease for the same seed, every time
    assert killed_a["chaos"] == "kill" == killed_b["chaos"]
    assert killed_a["job"]["digest"] == killed_b["job"]["digest"]
    assert coord_a.status()["chaos_kills"] == 1
    # the victim no longer counts as alive, so the survivor is never killed
    follow_up = coord_a.lease("w1", code_version())
    assert follow_up.get("chaos") is None
    assert coord_a.health()["workers"] == 1


def test_drain_sends_idle_workers_home(pinned_version):
    coord = make_coordinator(FakeClock())
    spec, later = make_specs(2)
    coord.submit_jobs({"jobs": job_rows([spec])})
    job = coord.lease("w1", code_version())["job"]
    assert coord.lease("w2", code_version())["job"] is None  # seen, idle
    coord.control("drain")
    # jobs outstanding: polling workers keep waiting
    assert coord.lease("w2", code_version())["shutdown"] is False
    coord.result(job["lease"], ok_artifact(spec))
    assert coord.lease("w2", code_version())["shutdown"] is True
    # each is sent home once: w2 restarted under the same id stays
    assert coord.lease("w2", code_version())["shutdown"] is False
    # a worker first seen after the drain is not sent home
    assert coord.lease("w3", code_version())["shutdown"] is False
    assert coord.status()["draining"]
    # the next sweep's batch ends the drain
    coord.submit_jobs({"jobs": job_rows([later])})
    assert not coord.status()["draining"]


# ------------------------------------------------------------- end to end


def wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_worker_short_circuits_through_store(tmp_path, pinned_version):
    """A digest already in the coordinator's store is answered at
    ``/jobs``: it is never queued, so no worker leases it."""
    coord = FleetCoordinator(cache=tmp_path / "store", lease_timeout=5.0).start()
    try:
        (spec,) = make_specs(1)
        # the artifact is already in the store (another machine's run)
        HTTPStore(coord.url).put(spec.digest, to_bytes(ok_artifact(spec)))
        response = coord.submit_jobs({"jobs": job_rows([spec])})
        assert response["accepted"] == 0
        (row,) = response["done"]
        assert row["digest"] == spec.digest
        assert row["artifact"] == ok_artifact(spec)
        # an executor that would raise proves the job body never ran
        worker = FleetWorker(
            coord.address, worker_id="w0", executor=_stub_raise,
            poll_interval=0.02, log=lambda m: None, max_idle=0.2,
        )
        assert worker.run() == 0
        status = coord.status()
        assert status["jobs"] == 0 and status["workers"]["w0"]["jobs"] == 0
        assert not events_of(coord, "started")
    finally:
        coord.shutdown()


def test_remote_pool_returns_once_its_own_jobs_resolve(
    tmp_path, pinned_version
):
    """A pool sharing a coordinator with another client's sweep returns
    once its own jobs are terminal, not when the whole queue drains."""
    gate = tmp_path / "gate"
    coord = FleetCoordinator(lease_timeout=5.0).start()
    try:
        # another client's job, queued first; it runs until the gate opens
        other = RunSpec.make("other-sweep", params={"gate": str(gate)})
        coord.submit_jobs({"jobs": job_rows([other])})
        (mine,) = make_specs(1)
        pool = RemotePool(coord.address, retries=0, poll_interval=0.02)
        pool.submit(mine, priority=-1)
        box: dict = {}
        pool_thread = threading.Thread(
            target=lambda: box.setdefault("results", pool.run()), daemon=True
        )
        pool_thread.start()
        assert wait_for(lambda: coord.health()["pending"] == 2)
        worker = FleetWorker(
            coord.address, worker_id="w0", executor=_stub_gated,
            poll_interval=0.02, log=lambda m: None,
        )
        worker_thread = threading.Thread(target=worker.run, daemon=True)
        worker_thread.start()
        pool_thread.join(20)
        assert not pool_thread.is_alive()
        assert box["results"][mine.digest]["status"] == "ok"
        # the gate is shut, so the other job cannot have finished; the
        # worker may still be between its /result and its next /lease
        assert coord.health()["done"] == 1
        assert wait_for(lambda: coord.health()["leased"] == 1)
        gate.touch()
        assert wait_for(lambda: coord.status()["completed"] == 2)
        coord.control("drain")
        worker_thread.join(10)
        assert not worker_thread.is_alive()
    finally:
        gate.touch()
        coord.shutdown()


def test_remote_pool_starts_at_the_feed_end(pinned_version):
    """A pool joining a long-lived coordinator never downloads the earlier
    sweeps' history: its feed cursor starts at the length ``/health``
    reports, and it ingests only its own sweep's records."""
    (spec,) = make_specs(1)
    coord = FleetCoordinator(lease_timeout=5.0, retries=0).start()
    worker_thread = None
    try:
        # an earlier sweep's run of the same spec failed; its events stay
        # in the feed, and resubmitting the digest runs it again
        coord.submit_jobs({"jobs": job_rows([spec])})
        lease = coord.lease("w-old", code_version())["job"]["lease"]
        boom = failure_artifact(spec, "RuntimeError", "boom")
        assert coord.result(lease, boom)["ok"]
        assert coord.status()["failed"] == 1
        history = len(coord._events)
        assert coord.health()["feed"] == history > 0

        pool = RemotePool(coord.address, retries=0, poll_interval=0.02)
        # a negative cursor is clamped to the feed start over HTTP too
        feed = pool._request("GET", "/events?cursor=-2")
        assert feed["cursor"] == history and len(feed["events"]) == history
        paths: list[str] = []
        request = pool._request
        pool._request = (
            lambda method, path, payload=None:
            paths.append(path) or request(method, path, payload)
        )
        pool.submit(spec)
        worker = FleetWorker(
            coord.address, worker_id="w0", executor=_stub_ok,
            poll_interval=0.02, log=lambda m: None,
        )
        worker_thread = threading.Thread(target=worker.run, daemon=True)
        worker_thread.start()
        assert pool.run()[spec.digest]["status"] == "ok"
        cursors = [int(path.split("cursor=")[1]) for path in paths
                   if path.startswith("/events")]
        assert cursors and min(cursors) >= history  # never cursor=0
        # the cursor snapshot is the only /health: each poll reads the live
        # worker count from its /events reply
        assert paths.count("/health") == 1
        mine = [r["event"] for r in pool.events.records
                if r.get("digest") == spec.digest]
        assert mine.count("queued") == 1 and mine.count("completed") == 1
        assert "w-old" not in {r.get("worker") for r in pool.events.records}
    finally:
        coord.control("drain")
        if worker_thread is not None:
            worker_thread.join(10)
        coord.shutdown()


def test_two_sweeps_share_one_coordinator(pinned_version):
    """A drain ends with its sweep: a worker that starts after one sweep
    drained a long-lived coordinator, and polls its empty queue before the
    next sweep's batch lands, stays to serve that next sweep."""
    first, second = make_specs(2)
    coord = FleetCoordinator(lease_timeout=1.0).start()
    threads: list[threading.Thread] = []

    def start_worker(worker_id: str) -> threading.Thread:
        worker = FleetWorker(
            coord.address, worker_id=worker_id, executor=_stub_ok,
            poll_interval=0.02, log=lambda m: None,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        threads.append(thread)
        return thread

    def sweep(spec: RunSpec, joining: str | None = None) -> RemotePool:
        pool = RemotePool(coord.address, retries=0, drain=True,
                          poll_interval=0.02, worker_grace=2.0)
        if joining is not None:
            # a worker joins inside this sweep's feed window (after the
            # cursor snapshot, before the batch) and finds the queue empty
            request = pool._request

            def join_then_request(method, path, payload=None):
                if path == "/jobs":
                    assert coord.lease(joining, code_version())["job"] is None
                return request(method, path, payload)

            pool._request = join_then_request
        pool.submit(spec)
        assert pool.run()[spec.digest]["status"] == "ok"
        return pool

    try:
        w1 = start_worker("w1")
        sweep(first)
        w1.join(10)
        assert not w1.is_alive()  # sweep 1's drain sent its worker home
        start_worker("w2")
        time.sleep(0.3)  # w2 polls the drained, empty queue
        pool = sweep(second, joining="w3")
        # the second sweep's own records name only the worker that served
        # it: w3 joined mid-sweep but leased nothing
        assert list(tally(pool.events.records)["workers"]) == ["w2"]
        # the coordinator's lifetime view still lists the idle worker
        lifetime = coord.status()["workers"]
        assert set(lifetime) == {"w1", "w2", "w3"}
        assert lifetime["w3"]["jobs"] == 0
    finally:
        coord.control("drain")
        for thread in threads:
            thread.join(10)
        coord.shutdown()


def test_second_sweep_is_answered_from_the_coordinator_store(pinned_version):
    """A later sweep on a long-lived coordinator resubmits a digest the
    first one completed: the coordinator answers it from its store, and the
    sweep logs and counts it as a cache hit, not as a job it ran."""
    (spec,) = make_specs(1)
    coord = FleetCoordinator(lease_timeout=5.0).start()
    worker = FleetWorker(
        coord.address, worker_id="w0", executor=_stub_ok,
        poll_interval=0.02, log=lambda m: None,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    try:
        first = RemotePool(coord.address, retries=0, poll_interval=0.02)
        first.submit(spec)
        assert first.run()[spec.digest]["status"] == "ok"
        assert first.outcomes[spec.digest].status == "completed"

        second = RemotePool(coord.address, retries=0, poll_interval=0.02)
        second.submit(spec)
        assert second.run()[spec.digest] == ok_artifact(spec)
        outcome = second.outcomes[spec.digest]
        assert outcome.status == "cached" and outcome.cached
        assert second.summary()["cached"] == 1
        assert [r["event"] for r in second.events.records] == [
            "pool-start", "cached-hit", "sweep-summary",
        ]
        cpath = critical_path(second.events.records)
        assert (cpath["executed"], cpath["cached"]) == (0, 1)
        coord.control("drain")
        thread.join(10)
        assert not thread.is_alive()
    finally:
        coord.control("drain")
        thread.join(10)
        coord.shutdown()


def test_remote_block_has_no_store_hits():
    """Hits are answered by the coordinator, so no worker scores one: the
    ``remote`` block counts leases and lost leases only."""
    records = [
        {"event": "worker-joined", "worker": "w0"},
        {"event": "started", "worker": "w0", "digest": "d1"},
        {"event": "completed", "worker": "w0", "digest": "d1", "wall": 0.1},
        {"event": "cached-hit", "digest": "d2"},
    ]
    remote = tally(records)
    assert "store_hits" not in remote
    assert remote["workers"] == {"w0": {"jobs": 1, "lost": 0}}


def test_workers_with_cache_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """A remote run caches in its coordinator's store: ``--cache`` next to
    ``--workers`` exits 2 before anything runs, and so does a URL given
    to ``fleet serve --cache``."""
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["fleet", "sweep", "--suite", "sanitize", "--workers", ":9",
                 "--cache", "elsewhere"]) == 2
    assert main(["fleet", "run", "allcount", "--workers", ":9",
                 "--cache", "elsewhere"]) == 2
    assert main(["fleet", "serve", "--cache", "http://127.0.0.1:9"]) == 2
    err = capsys.readouterr().err
    assert err.count("exclusive") == 2 and "takes a directory" in err
    assert list(tmp_path.iterdir()) == []


def test_two_workers_byte_identical_to_fork_pool(tmp_path, pinned_version):
    specs = make_specs(6)

    # the oracle: the local fork pool into a local directory
    local_cache = ResultCache(tmp_path / "local")
    scheduler = FleetScheduler(
        jobs=2, retries=0, cache=local_cache, executor=_stub_ok
    )
    for spec in specs:
        scheduler.submit(spec)
    local_results = scheduler.run()

    coord = FleetCoordinator(cache=tmp_path / "remote", lease_timeout=5.0).start()
    workers = []
    try:
        pool = RemotePool(coord.address, retries=0, drain=True)
        for spec in specs:
            pool.submit(spec)
        workers = [
            start_worker_process(coord.address, f"w{i}") for i in range(2)
        ]
        remote_results = pool.run()
        for proc in workers:
            proc.join(15)
        assert pool.summary()["completed"] == 6
        remote = tally(pool.events.records)
        assert sum(r["jobs"] for r in remote["workers"].values()) == 6
        for spec in specs:
            # artifact bytes AND backing files identical local vs remote
            assert to_bytes(remote_results[spec.digest]) == to_bytes(
                local_results[spec.digest]
            )
            assert (
                coord.cache._object_path(spec.digest).read_bytes()
                == local_cache._object_path(spec.digest).read_bytes()
            )
        # drain sent both workers home cleanly
        assert all(proc.exitcode == 0 for proc in workers)
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.kill()
        coord.shutdown()


def test_chaos_kills_worker_job_stolen_and_completed(tmp_path, pinned_version):
    """The --chaos drill end-to-end: a real worker process is SIGKILLed
    mid-lease, the lease expires, the survivor steals the job, and the
    sweep still completes every job with no artifacts lost."""
    specs = make_specs(5)
    coord = FleetCoordinator(
        cache=tmp_path / "store", lease_timeout=1.5, retries=1
    ).start()
    workers = []
    try:
        pool = RemotePool(
            coord.address, retries=1,
            chaos_kills=2, chaos_seed=0, drain=True, worker_grace=30.0,
        )
        for spec in specs:
            pool.submit(spec)
        workers = [
            start_worker_process(coord.address, f"w{i}") for i in range(2)
        ]
        results = pool.run()
        assert pool.summary()["completed"] == 5
        assert pool.summary()["failed"] == 0
        for spec in specs:
            assert results[spec.digest]["status"] == "ok"
            assert coord.cache.has(spec.digest)
        remote = tally(pool.events.records)
        assert remote["chaos_kills"] == 1  # one armed kill fired
        assert remote["steals"] >= 1  # the victim's lease was stolen
        # exactly one worker was SIGKILLed, the other drained cleanly
        for proc in workers:
            proc.join(15)
        exit_codes = sorted(proc.exitcode for proc in workers)
        assert exit_codes[0] == -9 and exit_codes[1] == 0
        # the pool's event relay carried the drill into the local log
        names = [r["event"] for r in pool.events.records]
        assert "chaos-kill" in names and "stolen" in names
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.kill()
        coord.shutdown()


# -------------------------------------------------- run_sweep over --workers


REAL_COMMON = Path(__file__).resolve().parents[1] / "benchmarks" / "common.py"

ALPHA = """\
import common


def test_alpha(benchmark):
    value = common.once(benchmark, lambda: "alpha-v1")
    common.emit("alpha", f"alpha report: {value}")
"""


@pytest.fixture
def remote_bench_env(tmp_path, monkeypatch):
    """A one-bench synthetic suite, env-isolated (same recipe as the
    render determinism tests)."""
    bench = tmp_path / "benches"
    bench.mkdir()
    shutil.copy(REAL_COMMON, bench / "common.py")
    (bench / "bench_alpha.py").write_text(ALPHA)
    monkeypatch.setenv("REPRO_BENCH_DIR", str(bench))
    monkeypatch.setenv("REPRO_CODE_VERSION", "remote-sweep-test")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    saved = {
        name: sys.modules.pop(name, None) for name in ("common", "bench_alpha")
    }
    yield bench
    for name, module in saved.items():
        if module is not None:
            sys.modules[name] = module
        else:
            sys.modules.pop(name, None)


def _sweep_worker_entry(address: str) -> None:
    # default executor: the real execute_spec, so render jobs run the bench
    FleetWorker(address, worker_id="sweep-w0", poll_interval=0.02,
                log=lambda m: None).run()


def test_run_sweep_remote_matches_local(tmp_path, remote_bench_env):
    from repro.fleet import run_sweep

    bench = remote_bench_env
    reports = bench / "reports"

    # the oracle: a serial local-fork sweep into a local cache directory
    local_cache = ResultCache(tmp_path / "cache-local")
    local = run_sweep(suite="bench", jobs=1, retries=0, cache=local_cache,
                      bench_out=None)
    assert local["counts"]["failed"] == 0 and local["remote"] is None
    local_reports = {p.name: p.read_bytes() for p in reports.glob("*.txt")}
    shutil.rmtree(reports)

    coord = FleetCoordinator(cache=tmp_path / "cache-remote",
                             lease_timeout=5.0).start()
    worker = _CTX.Process(target=_sweep_worker_entry, args=(coord.address,))
    worker.start()
    try:
        log = EventLog()
        summary = run_sweep(
            suite="bench", retries=0, workers=coord.address,
            bench_out=tmp_path / "BENCH_remote.json", events=log,
        )
        worker.join(20)
        assert summary["schema"] == 8
        # one pool for warm and render jobs alike: the remote sweep pipelines
        assert [r["event"] for r in log.records].count("pool-start") == 1
        assert summary["counts"]["failed"] == 0
        assert summary["counts"]["completed"] == local["counts"]["completed"]
        remote = summary["remote"]
        assert list(remote["workers"]) == ["sweep-w0"]
        assert remote["workers"]["sweep-w0"]["jobs"] >= 1
        assert summary["workers"] == 1
        assert summary["cache"]["root"] == coord.url

        # every artifact byte-identical to the local sweep's, file for file
        local_digests = set(local_cache.digests())
        assert set(coord.cache.digests()) == local_digests
        for digest in local_digests:
            assert (
                coord.cache._object_path(digest).read_bytes()
                == local_cache._object_path(digest).read_bytes()
            )
        # and the rendered reports byte-identical too
        remote_reports = {
            p.name: p.read_bytes() for p in reports.glob("*.txt")
        }
        assert remote_reports == local_reports

        # a warm remote re-sweep is answered from the coordinator's store:
        # all cache hits, no worker needed
        shutil.rmtree(reports)
        warm = run_sweep(
            suite="bench", retries=0, workers=coord.address, bench_out=None,
        )
        assert warm["counts"]["cached"] == warm["counts"]["specs"]
        assert warm["counts"]["completed"] == 0
        # ... and its cache block counts the coordinator's hits
        assert warm["cache"]["hit_rate"] == 1.0
        assert warm["cache"]["hits"] == warm["counts"]["cached"]
        # ... so nothing ran on any worker in this sweep
        assert warm["workers"] == 0 and warm["remote"]["workers"] == {}
        warm_reports = {p.name: p.read_bytes() for p in reports.glob("*.txt")}
        assert warm_reports == local_reports
    finally:
        if worker.is_alive():
            worker.kill()
        coord.shutdown()


# consumes a real (quick) tool spec, like pc_figure: at render time the
# artifact must come from the coordinator's store, not a worker-local cache
GAMMA = """\
import common
from repro.fleet import CollectOnly, RunSpec, default_cache, run_cached

SPEC = RunSpec.make("allcount", mode="tool", quick=True)


def test_gamma(benchmark):
    if common.FLEET_COLLECT is not None:
        common.FLEET_COLLECT.append(SPEC)
        raise CollectOnly("gamma")
    artifact = run_cached(SPEC, default_cache())
    common.emit("gamma", "gamma elapsed: %r" % artifact["result"]["elapsed"])
"""


def _elsewhere_worker_entry(address: str, workdir: str) -> None:
    # a worker on another machine: its own working directory, no cache set
    os.chdir(workdir)
    os.environ.pop("REPRO_CACHE_DIR", None)
    FleetWorker(address, worker_id="far-w0", poll_interval=0.02,
                log=lambda m: None).run()


def test_remote_render_reads_consumed_artifact_from_coordinator(
    tmp_path, remote_bench_env
):
    """A render on a worker reads the tool artifact it consumes from the
    coordinator's store: the tool spec runs once, as its own leased job,
    and the worker's working directory gets no cache of its own."""
    from repro.fleet import run_sweep

    (remote_bench_env / "bench_gamma.py").write_text(GAMMA)
    consumed = RunSpec.make("allcount", mode="tool", quick=True)
    workdir = tmp_path / "worker-machine"
    workdir.mkdir()
    coord = FleetCoordinator(cache=tmp_path / "served",
                             lease_timeout=5.0).start()
    worker = _CTX.Process(target=_elsewhere_worker_entry,
                          args=(coord.address, str(workdir)))
    worker.start()
    try:
        log = EventLog()
        summary = run_sweep(suite="bench", retries=0, workers=coord.address,
                            bench_out=None, events=log)
        worker.join(20)
        assert worker.exitcode == 0  # the sweep's drain sent it home
        assert summary["counts"]["failed"] == 0
        assert summary["render"]["rendered"] == 2
        assert "store_hits" not in summary["remote"]
        started = [r for r in log.records if r["event"] == "started"
                   and r["digest"] == consumed.digest]
        assert len(started) == 1
        assert coord.cache.has(consumed.digest)
        assert not (workdir / ".repro-cache").exists()
        report = (remote_bench_env / "reports" / "gamma.txt").read_text()
        assert report.startswith("gamma elapsed: ")
    finally:
        if worker.is_alive():
            worker.kill()
        coord.shutdown()
