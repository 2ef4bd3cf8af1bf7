"""repro.fleet: specs, cache, job graph, scheduler, events, sweeps.

The job-graph tests drive the pure state machine with explicit clock
values.  The scheduler tests drive the real multiprocessing pool with stub
executors
(module-level so they survive any start method): a sleeper for timeouts, a
raiser for retry exhaustion, a hard os._exit crash for worker-death
containment.  Digest tests pin ``REPRO_CODE_VERSION`` so expectations hold
across source edits.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.fleet import (
    CollectOnly,
    EventLog,
    FleetScheduler,
    JobGraph,
    ResultCache,
    RunSpec,
    canonical_json,
    execute_spec,
    failure_artifact,
    from_bytes,
    run_cached,
    to_bytes,
)
from repro.fleet.spec import freeze, thaw
from repro.observe.export import read_jsonl


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-version-1")
    return "test-version-1"


# ---------------------------------------------------------------- RunSpec

def test_freeze_thaw_round_trip():
    value = {"b": [1, 2, {"x": None}], "a": {"nested": True}}
    frozen = freeze(value)
    hash(frozen)  # must be hashable
    assert thaw(frozen) == value


def test_freeze_rejects_unserializable():
    with pytest.raises(TypeError):
        freeze({"fn": print})


def test_spec_digest_stable_across_processes_and_field_order(pinned_version):
    a = RunSpec.make("oned", impl="mpich2", params={"x": 1, "y": 2})
    b = RunSpec.from_dict(json.loads(canonical_json(a.to_dict())))
    assert a == b
    assert a.digest == b.digest


def test_spec_digest_sensitive_to_every_field(pinned_version):
    base = RunSpec.make("oned")
    variants = [
        RunSpec.make("sstwod"),
        RunSpec.make("oned", mode="sanitize"),
        RunSpec.make("oned", impl="mpich"),
        RunSpec.make("oned", nprocs=8),
        RunSpec.make("oned", seed=1),
        RunSpec.make("oned", metrics=("sync_wait",)),
        RunSpec.make("oned", quick=True),
        RunSpec.make("oned", params={"iterations": 3}),
        RunSpec.make("oned", options={"pc_window": 0.5}),
    ]
    digests = {s.digest for s in variants} | {base.digest}
    assert len(digests) == len(variants) + 1


def test_spec_digest_salted_with_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "salt-a")
    a = RunSpec.make("oned").digest
    monkeypatch.setenv("REPRO_CODE_VERSION", "salt-b")
    b = RunSpec.make("oned").digest
    assert a != b


def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError):
        RunSpec.make("oned", mode="maybe")


# ------------------------------------------------------------- ResultCache

def test_cache_put_get_roundtrip_and_stats(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    digest = "ab" + "0" * 62
    assert cache.get(digest) is None
    cache.put(digest, b'{"v":1}\n')
    assert cache.get(digest) == b'{"v":1}\n'
    assert cache.has(digest)
    assert len(cache) == 1
    assert cache.stats.hits == 1 and cache.stats.misses == 1 and cache.stats.puts == 1
    assert 0 < cache.stats.hit_rate < 1
    assert cache.size_bytes() == 8


def test_cache_write_is_atomic_no_partials(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    digest = "cd" + "1" * 62
    cache.put(digest, b"x" * 4096)
    leftovers = [p for p in cache.objects_dir.rglob("*") if p.name.startswith(".")]
    assert not leftovers  # temp file was renamed, never left behind


def test_cache_rejects_malformed_digest(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(ValueError):
        cache.put("../evil", b"{}")


def test_cache_clean_and_gc(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    live = "aa" + "2" * 62
    dead = "bb" + "3" * 62
    cache.put(live, b"{}")
    cache.put(dead, b"{}")
    assert cache.gc([live]) == 1
    assert cache.has(live) and not cache.has(dead)
    assert cache.clean() == 1
    assert len(cache) == 0


def test_cache_clean_and_gc_on_missing_cache(tmp_path):
    """clean/gc on a cache directory that was never created must be no-ops,
    not tracebacks."""
    cache = ResultCache(tmp_path / "never-created")
    assert cache.clean() == 0
    assert cache.gc([]) == 0
    assert cache.describe()["objects"] == 0


def test_cache_clean_and_gc_on_partially_initialized_cache(tmp_path):
    """A mangled cache -- events.jsonl squatted by a directory, a directory
    masquerading as an object -- degrades gracefully under every
    maintenance entry point (the `repro fleet clean` traceback regression)."""
    cache = ResultCache(tmp_path / "cache")
    good = "aa" + "4" * 62
    cache.put(good, b"{}")
    # events.jsonl as a *directory* (interrupted setup / bad restore)
    cache.events_path.mkdir(parents=True)
    (cache.events_path / "stray").write_text("x")
    # a directory named like an object
    fake = cache.objects_dir / "zz" / ("zz" + "5" * 62 + ".json")
    fake.mkdir(parents=True)
    # reads skip the impostor ...
    assert list(cache.digests()) == [good]
    assert len(cache) == 1
    assert cache.size_bytes() == 2
    # ... gc reclaims it without raising ...
    assert cache.gc([good]) == 1
    assert not fake.exists()
    assert cache.has(good)
    # ... and clean wipes everything, including the squatted events path
    assert cache.clean() == 1
    assert not cache.objects_dir.exists()
    assert not cache.events_path.exists()


# ------------------------------------------------------------------ events

def test_event_log_appends_and_persists(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.emit("queued", digest="d1", job="j")
    log.emit("completed", digest="d1", job="j", wall=0.5)
    rows = list(read_jsonl(path))
    assert [r["event"] for r in rows] == ["queued", "completed"]
    assert rows[1]["wall"] == 0.5
    assert log.counts()["completed"] == 1


# -------------------------------------------------- executor + artifacts

def test_chaos_spec_raises_and_failure_artifact_is_byte_stable(pinned_version):
    spec = RunSpec.make("chaos-0", mode="chaos")
    with pytest.raises(RuntimeError):
        execute_spec(spec)
    art = failure_artifact(spec, "RuntimeError", "boom", attempts=2)
    assert art["status"] == "failed"
    assert from_bytes(to_bytes(art)) == art


def test_run_cached_hit_replays_identical_bytes(tmp_path, pinned_version):
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec.make("random_barrier", mode="sanitize", quick=True)
    first = run_cached(spec, cache)
    second = run_cached(spec, cache)
    assert to_bytes(first) == to_bytes(second)
    assert cache.stats.hits == 1 and cache.stats.puts == 1


# -------------------------------------------------------------- scheduler
#
# Stub executors live at module level so the worker can run them under any
# multiprocessing start method.

def _stub_ok(spec):
    return {
        "schema": 1,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "result": {"echo": spec.program},
    }


def _stub_sleep(spec):
    time.sleep(60)
    return _stub_ok(spec)  # pragma: no cover - killed before reaching this


def _stub_raise(spec):
    raise ValueError(f"always fails ({spec.program})")


def _stub_hard_crash(spec):
    os._exit(3)  # dies without writing a spool file


def _scheduler(**kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("retries", 0)
    kw.setdefault("backoff", 0.01)
    return FleetScheduler(**kw)


def test_scheduler_runs_jobs_and_caches(tmp_path, pinned_version):
    cache = ResultCache(tmp_path / "cache")
    log = EventLog()
    sched = _scheduler(cache=cache, events=log, executor=_stub_ok)
    specs = [RunSpec.make(f"job-{i}") for i in range(5)]
    for spec in specs:
        sched.submit(spec)
    results = sched.run()
    assert len(results) == 5
    assert all(results[s.digest]["status"] == "ok" for s in specs)
    assert all(cache.has(s.digest) for s in specs)
    assert sched.summary()["completed"] == 5
    events = [e["event"] for e in log.records]
    assert events.count("queued") == 5 and events.count("completed") == 5
    assert events[-1] == "sweep-summary"


def test_scheduler_warm_cache_executes_nothing(tmp_path, pinned_version):
    cache = ResultCache(tmp_path / "cache")
    specs = [RunSpec.make(f"job-{i}") for i in range(3)]
    first = _scheduler(cache=cache, executor=_stub_ok)
    for spec in specs:
        first.submit(spec)
    first.run()
    second = _scheduler(cache=cache, executor=_stub_raise)  # would fail if run
    for spec in specs:
        second.submit(spec)
    results = second.run()
    summary = second.summary()
    assert summary["cached"] == 3 and summary["completed"] == 0
    assert all(results[s.digest]["status"] == "ok" for s in specs)


def test_torn_local_object_is_quarantined_and_rerun(tmp_path, pinned_version):
    """A local object cut short by a crash is a miss, as a torn remote one
    is: ``run_cached`` quarantines it, re-executes and re-stores, and a
    ``FleetScheduler`` run over the same corruption completes."""
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec.make("random_barrier", mode="sanitize", quick=True)
    good = to_bytes(run_cached(spec, cache))
    path = cache._object_path(spec.digest)
    path.write_bytes(good[:40])
    assert to_bytes(run_cached(spec, cache)) == good
    assert path.read_bytes() == good
    assert (cache.quarantine_dir / path.name).read_bytes() == good[:40]

    stub = RunSpec.make("job-torn")
    cache.put(stub.digest, to_bytes(_stub_ok(stub))[:40])
    sched = _scheduler(cache=cache, executor=_stub_ok)
    sched.submit(stub)
    assert sched.run()[stub.digest]["status"] == "ok"
    assert sched.summary()["completed"] == 1
    assert cache.load(stub.digest) == _stub_ok(stub)


def test_scheduler_duplicate_submissions_coalesce(pinned_version):
    sched = _scheduler(executor=_stub_ok)
    spec = RunSpec.make("job-dup")
    assert sched.submit(spec) == sched.submit(spec)
    results = sched.run()
    assert len(results) == 1


def test_scheduler_timeout_kills_hanging_job(pinned_version):
    sched = _scheduler(timeout=0.3, executor=_stub_sleep)
    spec = RunSpec.make("hang")
    sched.submit(spec)
    t0 = time.monotonic()
    results = sched.run()
    assert time.monotonic() - t0 < 30
    artifact = results[spec.digest]
    assert artifact["status"] == "failed"
    assert artifact["error"]["type"] == "timeout"


def test_scheduler_retry_exhaustion_records_attempts(pinned_version):
    log = EventLog()
    sched = _scheduler(retries=1, events=log, executor=_stub_raise)
    spec = RunSpec.make("flaky")
    sched.submit(spec)
    results = sched.run()
    artifact = results[spec.digest]
    assert artifact["status"] == "failed"
    assert artifact["error"]["type"] == "ValueError"
    assert sched.outcomes[spec.digest].attempts == 2
    events = [e["event"] for e in log.records]
    assert "retry" in events and events.count("started") == 2


def test_scheduler_contains_hard_worker_crash(pinned_version):
    sched = _scheduler(executor=_stub_hard_crash)
    spec = RunSpec.make("segv")
    sched.submit(spec)
    results = sched.run()
    artifact = results[spec.digest]
    assert artifact["status"] == "failed"
    assert artifact["error"]["type"] == "crashed"
    assert "exit code" in artifact["error"]["message"]


def _stub_boom_or_ok(spec):
    if spec.program == "boom":
        raise ValueError("boom")
    return _stub_ok(spec)


def test_scheduler_failure_does_not_abort_sweep(tmp_path, pinned_version):
    """The acceptance drill: a crashing job is reported, the rest completes."""
    cache = ResultCache(tmp_path / "cache")
    sched = _scheduler(cache=cache, executor=_stub_boom_or_ok)
    good = [RunSpec.make(f"ok-{i}") for i in range(4)]
    bad = RunSpec.make("boom")
    for spec in good:
        sched.submit(spec)
    sched.submit(bad)
    results = sched.run()
    assert all(results[s.digest]["status"] == "ok" for s in good)
    assert results[bad.digest]["status"] == "failed"
    summary = sched.summary()
    assert summary["completed"] == 4 and summary["failed"] == 1


def test_scheduler_chaos_failure_artifact_not_cached(tmp_path, pinned_version):
    cache = ResultCache(tmp_path / "cache")
    sched = _scheduler(cache=cache, retries=0)  # default executor: execute_spec
    good = RunSpec.make("random_barrier", mode="sanitize", quick=True)
    bad = RunSpec.make("boom", mode="chaos")
    sched.submit(good)
    sched.submit(bad)
    results = sched.run()
    assert results[good.digest]["status"] == "ok"
    assert results[bad.digest]["status"] == "failed"
    assert cache.has(good.digest)
    assert not cache.has(bad.digest)  # failures are reported, never cached
    summary = sched.summary()
    assert summary["completed"] == 1 and summary["failed"] == 1


def test_scheduler_priority_orders_launches(pinned_version):
    log = EventLog()
    sched = _scheduler(jobs=1, events=log, executor=_stub_ok)
    low = RunSpec.make("low-prio")
    high = RunSpec.make("high-prio")
    sched.submit(low, priority=5)
    sched.submit(high, priority=0)
    sched.run()
    started = [e["job"] for e in log.records if e["event"] == "started"]
    assert started == ["tool:high-prio/lam", "tool:low-prio/lam"]


# --------------------------------------------------------------- job graph
#
# Pure state machine: every call takes the clock value explicitly, so these
# run instantly and exactly.


def test_job_graph_priority_class_before_lpt():
    graph = JobGraph()
    graph.add("long-sweep", priority=1, predicted=30.0)
    graph.add("short-tool", priority=0, predicted=0.1)
    graph.add("long-tool", priority=0, predicted=9.0)
    assert [graph.pop(0.0) for _ in range(3)] == [
        "long-tool", "short-tool", "long-sweep",
    ]
    assert graph.pop(0.0) is None


def test_job_graph_failed_producer_releases_consumers():
    graph = JobGraph(retries=0)
    graph.add("producer")
    assert graph.add("consumer", after=("producer",)) == ("producer",)
    assert graph.pop(0.0) == "producer"
    assert graph.start("producer") == 1
    assert graph.pop(0.0) is None  # held while the producer runs
    assert graph.retry("producer", 0.0) is None  # no retries: it failed
    assert graph.done("producer") == ["consumer"]
    assert graph.pop(0.0) == "consumer"
    assert graph.done("consumer") == [] and graph.unfinished == 0


def test_job_graph_ignores_unsubmitted_and_terminal_producers():
    graph = JobGraph()
    graph.add("finished")
    graph.pop(0.0)
    graph.done("finished")
    assert graph.add("lone", after=("never-added", "finished")) == ()
    assert graph.pop(0.0) == "lone"


def test_job_graph_backoff_doubles_until_retries_run_out():
    graph = JobGraph(retries=3, backoff=0.25)
    graph.add("flaky")
    now, delays = 100.0, []
    while True:
        assert graph.pop(now) == "flaky"
        attempt = graph.start("flaky")
        delay = graph.retry("flaky", now)
        if delay is None:
            break
        delays.append(delay)
        assert graph.next_wake() == now + delay
        assert graph.pop(now + delay - 1e-6) is None  # still backing off
        now += delay
    assert delays == [0.25, 0.5, 1.0]  # 0.25 * 2**(n-1)
    assert attempt == 4  # the first try plus three retries


def test_job_graph_steal_requeues_immediately():
    graph = JobGraph(backoff=10.0)
    graph.add("job")
    graph.pop(0.0)
    graph.start("job")
    graph.requeue("job")  # lease expired: no backoff
    assert graph.next_wake() is None
    assert graph.pop(0.0) == "job"
    assert graph.start("job") == 2


def test_job_graph_order_seed_is_reproducible():
    def pops(seed):
        graph = JobGraph(order_seed=seed)
        for i in range(8):
            graph.add(f"j{i}")
        return [graph.pop(0.0) for _ in range(8)]

    assert pops(None) == [f"j{i}" for i in range(8)]  # FIFO without a seed
    assert pops(7) == pops(7)
    assert len({tuple(pops(seed)) for seed in (7, 11, 23)}) > 1


def test_cli_fleet_run_local_then_cache_hit(tmp_path, capsys):
    from repro.cli import main

    argv = ["fleet", "run", "random_barrier", "--mode", "sanitize", "--quick",
            "--cache", str(tmp_path / "cache")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert ": ok in " in first and "cache hit" not in first
    assert main(argv) == 0
    assert ": ok (cache hit) in " in capsys.readouterr().out


def test_cli_fleet_run_local_honours_timeout(tmp_path, capsys):
    from repro.cli import main

    # a full-scale small_messages run takes seconds; the limit stops it
    argv = ["fleet", "run", "small_messages", "--timeout", "1",
            "--retries", "0", "--cache", str(tmp_path / "cache")]
    started = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - started < 10.0
    out = capsys.readouterr().out
    assert ": failed in " in out
    assert "ERROR timeout: exceeded 1.0s wall-clock limit" in out


# ------------------------------------------------------------------ sweeps

def test_collect_mode_raises_collect_only():
    import importlib
    import pathlib
    import sys

    bench = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
    if not (bench / "common.py").is_file():
        pytest.skip("no benchmarks directory")
    sys.path.insert(0, str(bench))
    try:
        common = importlib.import_module("common")
        collected = []
        common.FLEET_COLLECT = collected
        try:
            with pytest.raises(CollectOnly):
                common.pc_figure(
                    None,
                    "x",
                    "t",
                    "oned",
                    impls={"lam": [], "mpich2": []},
                )
        finally:
            common.FLEET_COLLECT = None
    finally:
        sys.path.remove(str(bench))
    assert sorted(s.impl for s in collected) == ["lam", "mpich2"]
    assert all(s.mode == "tool" and s.program == "oned" for s in collected)
