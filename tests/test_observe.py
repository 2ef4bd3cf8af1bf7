"""repro.observe: flight recorder, trace export, critical path, wiring.

Integration tests drive the real fleet scheduler (stub executors, as in
test_fleet.py) with tracing on, plus real sanitize workers for the golden
determinism test: the deterministic projection of a worker's trace must be
byte-stable across two cold runs of the same sweep.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.fleet import EventLog, FleetScheduler, ResultCache, RunSpec, code_version
from repro.fleet.execute import failure_artifact
from repro.observe import (
    Recorder,
    active,
    critical_path,
    deterministic_projection,
    disable,
    enable,
    merge_events,
    pack_event,
    read_jsonl,
    recording,
    render_critical_path,
    sweep_intervals,
    to_chrome,
    unpack_event,
    write_chrome,
    write_jsonl,
)


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "observe-test-1")
    code_version.cache_clear()
    yield "observe-test-1"
    code_version.cache_clear()


@pytest.fixture(autouse=True)
def no_leaked_recorder():
    """Every test must leave the process-global recorder slot empty."""
    disable()
    yield
    assert active() is None, "test leaked an enabled flight recorder"
    disable()


# ---------------------------------------------------------------- recorder

def test_pack_unpack_round_trip():
    record = pack_event(7, "X", "sim", 1.25, 1e9, 0.5, "kernel.run",
                        {"events": 42})
    event = unpack_event(record, pid=123)
    assert event == {
        "seq": 7, "pid": 123, "kind": "X", "clock": "sim", "t": 1.25,
        "wall": 1e9, "dur": 0.5, "name": "kernel.run", "args": {"events": 42},
    }


def test_ring_is_bounded_and_keeps_the_tail():
    rec = Recorder(capacity=8)
    for i in range(20):
        rec.instant("tick", i=i)
    assert len(rec) == 8
    assert rec.dropped == 12
    events = list(rec.events())
    assert [e["args"]["i"] for e in events] == list(range(12, 20))
    assert [e["seq"] for e in events] == list(range(13, 21))


def test_recorder_kinds_and_clock_domains():
    rec = Recorder(capacity=32)
    rec.begin("span", a=1)
    rec.end("span")
    rec.complete("whole", 0.25, b=2)
    rec.counter("count", 5, clock="sim", t=1.5)
    rec.instant("mark", clock="sim", t=2.0)
    kinds = [e["kind"] for e in rec.events()]
    assert kinds == ["B", "E", "X", "C", "I"]
    events = list(rec.events())
    assert events[2]["dur"] == 0.25
    assert events[3]["clock"] == "sim" and events[3]["t"] == 1.5
    assert events[3]["args"]["value"] == 5
    # sim-clock events still carry wall for cross-process merging
    assert events[4]["wall"] > 0 and events[4]["t"] == 2.0


def test_span_contextmanager_closes_on_error():
    rec = Recorder(capacity=8)
    with pytest.raises(RuntimeError):
        with rec.span("work"):
            raise RuntimeError("boom")
    assert [e["kind"] for e in rec.events()] == ["B", "E"]


def test_mirror_is_flushed_per_event(tmp_path):
    mirror = tmp_path / "mirror.jsonl"
    rec = Recorder(capacity=4, mirror=mirror)
    rec.instant("one")
    # no close(): flushed-per-event means the line is already on disk
    lines = mirror.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["name"] == "one"
    rec.close()


def test_dump_shape():
    rec = Recorder(capacity=4)
    for i in range(6):
        rec.instant("e", i=i)
    dump = rec.dump()
    assert dump["schema"] == 1
    assert dump["emitted"] == 6 and dump["dropped"] == 2
    assert len(dump["events"]) == 4
    assert dump["pid"] == rec.pid


def test_enable_disable_and_scoped_recording():
    assert active() is None
    rec = enable(capacity=16)
    assert active() is rec
    with recording(capacity=8) as inner:
        assert active() is inner and inner is not rec
        inner.instant("scoped")
    assert active() is rec  # restored, not closed
    assert disable() is rec
    assert active() is None


def test_suspended_detaches_without_closing():
    from repro.observe import suspended

    with recording(capacity=16) as rec:
        with suspended():
            assert active() is None
            # a nested scoped recorder still works inside the gap
            with recording(capacity=8) as inner:
                assert active() is inner
            assert active() is None
        assert active() is rec  # reattached, still usable
        rec.instant("after-suspend")
    assert active() is None


# ------------------------------------------------------------------ export

def test_merge_events_orders_by_wall_then_seq(tmp_path):
    a = [{"seq": 2, "pid": 1, "wall": 3.0, "kind": "I", "clock": "wall",
          "t": 3.0, "name": "a2", "args": {}},
         {"seq": 1, "pid": 1, "wall": 1.0, "kind": "I", "clock": "wall",
          "t": 1.0, "name": "a1", "args": {}}]
    b = [{"seq": 1, "pid": 2, "wall": 2.0, "kind": "I", "clock": "wall",
          "t": 2.0, "name": "b1", "args": {}}]
    write_jsonl(tmp_path / "a.jsonl", a)
    merged = merge_events([tmp_path / "a.jsonl", b])
    assert [e["name"] for e in merged] == ["a1", "b1", "a2"]


def test_read_jsonl_tolerates_torn_tail(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text('{"seq": 1, "name": "ok", "wall": 1.0}\n{"seq": 2, "na')
    events = list(read_jsonl(path))
    assert len(events) == 1 and events[0]["name"] == "ok"


def test_chrome_trace_structure():
    events = [
        {"seq": 1, "pid": 9, "kind": "B", "clock": "wall", "t": 10.0,
         "wall": 10.0, "dur": 0.0, "name": "worker.job",
         "args": {"job": "oned/lam"}},
        {"seq": 2, "pid": 9, "kind": "C", "clock": "sim", "t": 1.5,
         "wall": 10.1, "dur": 0.0, "name": "kernel.events",
         "args": {"value": 8192}},
        {"seq": 3, "pid": 9, "kind": "X", "clock": "wall", "t": 10.0,
         "wall": 10.2, "dur": 0.2, "name": "job:oned/lam",
         "args": {"slot": 3}},
        {"seq": 4, "pid": 9, "kind": "E", "clock": "wall", "t": 10.2,
         "wall": 10.2, "dur": 0.0, "name": "worker.job", "args": {}},
    ]
    doc = to_chrome(events)
    trace = doc["traceEvents"]
    phases = [r["ph"] for r in trace]
    # process_name metadata from the first labelled span, then B C X E,
    # then the sim thread_name row
    assert phases.count("M") == 2
    by_name = {(r["name"], r["ph"]): r for r in trace if r["ph"] != "M"}
    assert by_name[("worker.job", "B")]["ts"] == 0.0  # rebased to min wall
    counter = by_name[("kernel.events", "C")]
    assert counter["ph"] == "C" and counter["args"] == {"kernel.events": 8192}
    assert counter["tid"] == 1000  # sim events get their own thread row
    assert counter["ts"] == 1.5e6  # sim seconds, not rebased wall
    x = by_name[("job:oned/lam", "X")]
    assert x["dur"] == 0.2e6 and x["tid"] == 3  # slot -> swimlane
    meta = [r for r in trace if r["ph"] == "M"]
    assert {m["name"] for m in meta} == {"process_name", "thread_name"}


def test_chrome_trace_written_is_json_loadable(tmp_path):
    rec = Recorder(capacity=8)
    rec.complete("x", 0.1)
    out = write_chrome(tmp_path / "trace.json", list(rec.events()))
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


def test_deterministic_projection_drops_nondeterminism():
    rec = Recorder(capacity=8)
    rec.begin("s", n=1)
    rec.counter("c", 2, clock="sim", t=0.5)
    rec.end("s")
    proj = deterministic_projection(rec.events())
    assert proj == [
        (1, "B", "wall", "s", None, '{"n":1}'),
        (2, "C", "sim", "c", 0.5, '{"value":2}'),
        (3, "E", "wall", "s", None, "{}"),
    ]


# ------------------------------------------------------------ kernel hooks

def _churn(n=40):
    from repro.sim.kernel import Kernel

    kernel = Kernel()
    state = {"fired": 0}

    def cb():
        state["fired"] += 1
        if state["fired"] < n:
            kernel.schedule(0.001, cb)

    kernel.schedule(0.001, cb)
    kernel.run()
    return kernel


def test_kernel_emits_run_span_when_recording():
    with recording(capacity=64) as rec:
        _churn()
    events = list(rec.events())
    (run,) = [e for e in events if e["name"] == "kernel.run"]
    assert run["kind"] == "X"
    assert run["args"]["events"] == 40


def test_kernel_run_is_silent_without_recorder():
    assert active() is None
    _churn()  # must not raise, must not need a recorder


def test_kernel_compact_emits_instant():
    from repro.sim.kernel import Kernel

    with recording(capacity=256) as rec:
        kernel = Kernel()
        calls = [kernel.schedule(1.0 + i, lambda: None) for i in range(64)]
        for call in calls:
            kernel.cancel(call)  # mass cancellation forces a compaction
    compacts = [e for e in rec.events() if e["name"] == "kernel.compact"]
    assert compacts
    assert compacts[-1]["clock"] == "sim"
    assert compacts[-1]["args"]["dropped"] > 0


def test_kernel_trace_is_deterministic_across_runs():
    runs = []
    for _ in range(2):
        with recording(capacity=256) as rec:
            _churn()
        runs.append(deterministic_projection(rec.events()))
    assert runs[0] == runs[1]


# --------------------------------------------------------- sanitizer spans

def test_sanitizer_phase_spans():
    from repro.sanitizer.run import sanitize_program

    with recording(capacity=256) as rec:
        report = sanitize_program("defect_recv_truncation", impl="lam")
    names = [e["name"] for e in rec.events()]
    assert names.count("sanitize.build") == 2  # B + E
    assert names.count("sanitize.run") == 2
    classify = [e for e in rec.events() if e["name"] == "sanitize.classify"]
    assert classify[0]["args"]["status"] == report.status
    assert classify[0]["args"]["findings"] == len(report.findings)
    assert classify[0]["args"]["elapsed"] == report.elapsed  # sim time


# ----------------------------------------------------------- critical path

def _records(*rows):
    """(event, digest, t, extra...) tuples -> fleet event records."""
    out = []
    for event, digest, t, extra in rows:
        out.append({"event": event, "digest": digest, "t": t,
                    "job": f"job-{digest}", **extra})
    return out


def test_sweep_intervals_per_attempt():
    records = _records(
        ("started", "d1", 0.0, {"attempt": 1}),
        ("retry", "d1", 1.0, {"attempt": 1}),
        ("started", "d1", 1.5, {"attempt": 2}),
        ("completed", "d1", 3.0, {"attempt": 2}),
        ("cached-hit", "d2", 0.1, {}),
    )
    intervals, cached = sweep_intervals(records)
    assert [(i["attempt"], i["status"]) for i in intervals] == [
        (1, "failed"), (2, "completed")
    ]
    assert cached == [{"job": "job-d2", "digest": "d2", "t": 0.1}]


def test_critical_path_chain_and_idle_fraction():
    # two workers; d1 and d2 start together, d3 runs after d1 finishes:
    # the chain is d1 -> d3 and one worker idles while d3 runs alone
    records = _records(
        ("pool-start", None, 0.0, {"workers": 2}),
        ("started", "d1", 0.0, {"attempt": 1}),
        ("started", "d2", 0.0, {"attempt": 1}),
        ("completed", "d2", 1.0, {"attempt": 1}),
        ("completed", "d1", 4.0, {"attempt": 1}),
        ("started", "d3", 4.1, {"attempt": 1}),
        ("completed", "d3", 6.0, {"attempt": 1}),
    )
    summary = critical_path(records)
    assert summary["workers"] == 2  # read from pool-start
    assert summary["executed"] == 3
    assert [link["job"] for link in summary["chain"]] == ["job-d1", "job-d3"]
    assert summary["makespan"] == 6.0
    assert summary["busy"] == pytest.approx(6.9)
    assert 0 < summary["worker_idle_fraction"] < 1
    assert summary["chain_coverage"] == pytest.approx(5.9 / 6.0, abs=1e-3)
    text = render_critical_path(summary)
    assert "job-d3" in text and "idle fraction" in text


def test_critical_path_empty_and_all_cached():
    assert critical_path([])["chain"] == []
    summary = critical_path(_records(("cached-hit", "d1", 0.0, {})))
    assert summary["executed"] == 0 and summary["cached"] == 1
    assert "warm cache" in render_critical_path(summary)


def test_critical_path_phase_decomposition():
    """Warm and render are windows over the job events (a ``render:``
    label is render), the collect marker pair adds its own window; the
    summary names the bounding phase and attributes jobs and cache hits
    to their phase, even where the windows overlap."""
    render = {"job": "render:bench"}
    records = _records(
        ("sweep-start", None, 0.0, {"suite": "all"}),
        ("phase-start", None, 0.0, {"phase": "collect"}),
        ("phase-end", None, 0.1, {"phase": "collect"}),
        ("pool-start", None, 0.1, {"workers": 2}),
        ("started", "d1", 0.1, {"attempt": 1}),
        ("cached-hit", "d2", 0.2, render),
        ("completed", "d1", 5.0, {"attempt": 1}),
        ("started", "d3", 5.2, {"attempt": 1, **render}),
        ("completed", "d3", 6.0, {"attempt": 1, **render}),
    )
    summary = critical_path(records)
    phases = summary["phases"]
    assert set(phases) == {"collect", "warm", "render"}
    assert phases["collect"]["wall"] == 0.1
    assert phases["warm"] == {
        "wall": 4.9, "executed": 1, "cached": 0, "busy": 4.9,
    }
    assert phases["render"] == {
        "wall": 5.8, "executed": 1, "cached": 1, "busy": 0.8,
    }
    assert summary["bounding_phase"] == "render"
    text = render_critical_path(summary)
    assert "render-bound" in text and "warm" in text


def test_critical_path_phases_survive_all_cached_sweep():
    """A fully warm re-sweep executes nothing; the phase decomposition
    must still be present (it is how `observe critical-path` shows the
    render phase collapsed to cache restores)."""
    records = _records(
        ("cached-hit", "d1", 0.1, {"job": "render:a"}),
        ("cached-hit", "d2", 0.3, {"job": "render:b"}),
    )
    summary = critical_path(records)
    assert summary["executed"] == 0
    assert summary["phases"]["render"]["cached"] == 2
    assert summary["phases"]["render"]["wall"] == 0.2
    assert summary["bounding_phase"] == "render"


# ------------------------------------------------- scheduler integration
#
# Module-level stubs so fork/spawn workers can run them (see test_fleet.py).

def _stub_ok(spec):
    return {
        "schema": 1,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "result": {"echo": spec.program},
    }


def _stub_raise(spec):
    raise ValueError(f"always fails ({spec.program})")


def _stub_sleep(spec):
    time.sleep(60)
    return _stub_ok(spec)  # pragma: no cover - killed before reaching this


def _scheduler(**kw):
    kw.setdefault("jobs", 2)
    kw.setdefault("retries", 0)
    kw.setdefault("backoff", 0.01)
    return FleetScheduler(**kw)


def test_worker_failure_artifact_carries_flight_recorder(pinned_version):
    sched = _scheduler(executor=_stub_raise)
    spec = RunSpec.make("boom")
    sched.submit(spec)
    artifact = sched.run()[spec.digest]
    assert artifact["status"] == "failed"
    fr = artifact["error"]["flight_recorder"]
    assert fr["schema"] == 1 and fr["pid"]
    names = [e["name"] for e in fr["events"]]
    assert names.count("worker.job") == 2  # B + E from the dying worker
    ends = [e for e in fr["events"]
            if e["name"] == "worker.job" and e["kind"] == "E"]
    assert ends[0]["args"]["status"] == "ValueError"


def test_timeout_salvages_worker_trace_mirror(tmp_path, pinned_version):
    sched = _scheduler(timeout=0.3, executor=_stub_sleep,
                       trace_dir=tmp_path / "trace")
    spec = RunSpec.make("hang")
    sched.submit(spec)
    artifact = sched.run()[spec.digest]
    assert artifact["error"]["type"] == "timeout"
    fr = artifact["error"]["flight_recorder"]
    assert fr["salvaged"] is True
    # the SIGKILLed worker never dumped; the mirror tail still shows the
    # open worker.job span it died inside
    assert any(e["name"] == "worker.job" and e["kind"] == "B"
               for e in fr["events"])


def test_traced_sweep_produces_mergeable_trace(tmp_path, pinned_version):
    trace_dir = tmp_path / "trace"
    log = EventLog()
    specs = [RunSpec.make(f"job-{i}") for i in range(4)]
    with recording(capacity=1024, mirror=trace_dir / "scheduler.jsonl") as rec:
        sched = _scheduler(executor=_stub_ok, events=log, trace_dir=trace_dir)
        for spec in specs:
            sched.submit(spec)
        results = sched.run()
    assert all(results[s.digest]["status"] == "ok" for s in specs)
    # one mirror per worker attempt, plus the scheduler's own
    mirrors = sorted(trace_dir.glob("*.jsonl"))
    assert len(mirrors) == 5
    merged = merge_events(mirrors)
    pids = {e["pid"] for e in merged}
    assert len(pids) == 5  # parent + 4 workers
    names = {e["name"] for e in merged}
    assert {"fleet.pool", "worker.job", "workers.active"} <= names
    assert sum(1 for e in merged if e["name"].startswith("job:")) == 4
    # parent log self-describes the pool for post-hoc critical-path
    pool = next(r for r in log.records if r["event"] == "pool-start")
    assert pool["workers"] == sched.jobs
    # merged stream is (wall, pid, seq)-ordered
    keys = [(e["wall"], e["pid"], e["seq"]) for e in merged]
    assert keys == sorted(keys)
    doc = to_chrome(merged)
    assert len(doc["traceEvents"]) >= len(merged)


def test_scheduler_trace_events_cover_cache_hits_and_retries(
    tmp_path, pinned_version
):
    cache = ResultCache(tmp_path / "cache")
    spec = RunSpec.make("job-0")
    warm = _scheduler(executor=_stub_ok, cache=cache)
    warm.submit(spec)
    warm.run()
    with recording(capacity=1024) as rec:
        sched = _scheduler(executor=_stub_raise, cache=cache, retries=1)
        sched.submit(spec)  # cache hit
        flaky = RunSpec.make("job-flaky")
        sched.submit(flaky)  # fails, retries, exhausts
        sched.run()
    names = [e["name"] for e in rec.events()]
    assert "cache.hit" in names
    assert "job.retry" in names


# ------------------------------------------------------- golden determinism

def test_sanitize_worker_trace_projection_is_byte_stable(tmp_path):
    """Tier-1 golden: two cold traced runs of the same sanitize job produce
    identical deterministic projections of the worker's trace (kernel event
    counts, sanitizer phases, span args -- everything but wall/pid/dur)."""
    spec = RunSpec.make("defect_recv_truncation", mode="sanitize")
    projections = []
    for run in ("a", "b"):
        trace_dir = tmp_path / run
        sched = _scheduler(jobs=1, trace_dir=trace_dir)  # real execute_spec
        sched.submit(spec)
        results = sched.run()
        assert results[spec.digest]["status"] == "ok"
        (mirror,) = sorted(trace_dir.glob("worker-*.jsonl"))
        events = list(read_jsonl(mirror))
        assert any(e["name"] == "kernel.run" for e in events)
        assert any(e["name"] == "sanitize.classify" for e in events)
        projections.append(deterministic_projection(events))
    assert projections[0] == projections[1]


# --------------------------------------------------------------------- CLI

def _mk_mirror(tmp_path):
    trace_dir = tmp_path / "trace"
    rec = Recorder(capacity=16, mirror=trace_dir / "worker-abc.1.jsonl")
    rec.begin("worker.job", job="oned/lam")
    rec.complete("kernel.run", 0.2, events=100)
    rec.end("worker.job", status="ok")
    rec.close()
    return trace_dir


def test_cli_observe_trace_and_summary(tmp_path, capsys):
    trace_dir = _mk_mirror(tmp_path)
    assert main(["observe", "trace", "--dir", str(trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "merged 3 event(s)" in out
    assert (trace_dir / "trace.json").exists()
    json.loads((trace_dir / "trace.json").read_text())
    assert (trace_dir / "trace.jsonl").exists()

    assert main(["observe", "summary", "--dir", str(trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "worker.job" in out and "kernel.run" in out


def test_cli_observe_trace_empty_dir_errors(tmp_path, capsys):
    assert main(["observe", "trace", "--dir", str(tmp_path)]) == 2
    assert "no trace mirrors" in capsys.readouterr().err


def test_cli_observe_critical_path(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    log = EventLog(events_path, clock=iter([0.0, 0.1, 0.2, 5.0, 5.1]).__next__)
    log.emit("pool-start", workers=2, requested=2, queued=1)
    log.emit("queued", digest="d1", job="oned/lam")
    log.emit("started", digest="d1", job="oned/lam", attempt=1)
    log.emit("completed", digest="d1", job="oned/lam", attempt=1)
    log.close()
    assert main(["observe", "critical-path", "--events", str(events_path),
                 "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["workers"] == 2
    assert [link["job"] for link in summary["chain"]] == ["oned/lam"]
    assert main(["observe", "critical-path", "--events",
                 str(events_path)]) == 0
    assert "blocking chain" in capsys.readouterr().out


def test_cli_observe_critical_path_no_events(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "nope"))
    assert main(["observe", "critical-path"]) == 1
    assert "no fleet events" in capsys.readouterr().err


def test_cli_observe_critical_path_truncated_log(tmp_path, capsys):
    """A log torn mid-record (crash during append) exits 1 with a message,
    not a traceback."""
    events_path = tmp_path / "events.jsonl"
    events_path.write_text(
        '{"t": 0.0, "event": "pool-start", "workers": 2}\n'
        '{"t": 0.1, "event": "started", "dig'  # torn mid-append
    )
    assert main(["observe", "critical-path", "--events",
                 str(events_path)]) == 1
    err = capsys.readouterr().err
    assert "truncated" in err and "Traceback" not in err


def test_cli_observe_critical_path_empty_file(tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    events_path.write_text("")
    assert main(["observe", "critical-path", "--events",
                 str(events_path)]) == 1
    assert "no fleet events" in capsys.readouterr().err


# -------------------------------------------------- failure-path soundness

def test_failure_artifacts_with_recorder_dumps_are_never_cached(
    tmp_path, pinned_version
):
    """The determinism escape hatch: wall-stamped recorder dumps ride only
    in failure artifacts, and failure artifacts never enter the cache."""
    cache = ResultCache(tmp_path / "cache")
    sched = _scheduler(executor=_stub_raise, cache=cache)
    spec = RunSpec.make("boom")
    sched.submit(spec)
    artifact = sched.run()[spec.digest]
    assert "flight_recorder" in artifact["error"]
    assert not cache.has(spec.digest)
    assert len(cache) == 0


def test_failure_artifact_helper_embeds_dump(pinned_version):
    spec = RunSpec.make("x")
    art = failure_artifact(spec, "ValueError", "boom",
                           flight_recorder={"schema": 1, "events": []})
    assert art["error"]["flight_recorder"]["schema"] == 1
    plain = failure_artifact(spec, "ValueError", "boom")
    assert "flight_recorder" not in plain["error"]
