"""The live observability service: incremental tailing, streaming merge,
the observatory HTTP feed, and the fleet-wire token auth.

Layers under test:

* **tailer** -- per-mirror byte cursors: a torn trailing line is buffered
  and completed by the next poll (never skipped, never double-read);
  rotation/truncation restarts the tail under a bumped generation;
  undecodable complete lines are skipped exactly like the post-hoc
  ``read_jsonl``.
* **merger** -- the watermark-sealed streaming merge serves *the same
  sequence* as :func:`repro.observe.export.merge_events` over the same
  mirrors, to any number of viewers at any cursors; open remote jobs
  clamp the watermark so relayed mirror tails can never land behind the
  seal.
* **observatory** -- the HTTP service end-to-end: a ``watch --raw``
  replay from cursor 0 is byte-identical to the post-hoc merged
  ``trace.jsonl``; ``/critical-path`` converges to the post-hoc analysis
  of the same fleet log; token auth 401s everything but ``/health``.
* **the live sweep** -- ``run_sweep(live=True)`` over a synthetic bench
  suite: a client attached mid-sweep drains a replay byte-identical to
  the sweep's own ``trace.jsonl``, and the cache is byte-identical to a
  no-live sweep's (viewing perturbs nothing).
"""

from __future__ import annotations

import io
import json
import shutil
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fleet import EventLog, ResultCache, code_version, to_bytes
from repro.fleet.remote import FleetCoordinator, HTTPStore
from repro.fleet.remote.wire import TOKEN_HEADER, WireError, parse_endpoint, request
from repro.observe.critical_path import critical_path
from repro.observe.export import merge_events, read_jsonl, write_jsonl
from repro.observe.live import (
    DirectoryTailer,
    LiveMerger,
    LiveObservatory,
    MirrorTail,
)
from repro.observe.live.client import watch
from repro.observe.live.views import ConsultantState

from test_fleet_remote import job_rows, make_specs, ok_artifact


def ev(wall: float, pid: int = 1, seq: int = 0, name: str = "x",
       kind: str = "I", **args) -> dict:
    """A flight-recorder-schema event (the mirror line payload)."""
    return {
        "seq": seq, "pid": pid, "kind": kind, "clock": "wall",
        "t": wall, "wall": wall, "dur": 0.0, "name": name,
        "args": args,
    }


def jl(event: dict) -> str:
    """One mirror line, exactly as the recorder writes it."""
    return json.dumps(event, sort_keys=True) + "\n"


def http_get(address: str, path: str, token=None):
    headers = {TOKEN_HEADER: token} if token else None
    status, _, body = request(parse_endpoint(address), "GET", path, None,
                              headers, timeout=10.0, retries=1)
    try:
        payload = json.loads(body.decode())
    except ValueError:
        payload = None
    return status, payload


# ------------------------------------------------------------------ tailer


def test_tail_completes_torn_line_on_next_poll(tmp_path):
    mirror = tmp_path / "w0.jsonl"
    first, second = ev(1.0, seq=0), ev(2.0, seq=1)
    torn = jl(second)
    mirror.write_text(jl(first) + torn[: len(torn) // 2])

    tail = MirrorTail(mirror)
    got = [t.event for t in tail.poll()]
    assert got == [first]  # the torn half is buffered, not skipped
    assert tail.skipped == 0

    # the writer finishes its line; only the completion is read
    with mirror.open("a") as fh:
        fh.write(torn[len(torn) // 2:])
    got = [t.event for t in tail.poll()]
    assert got == [second]
    assert tail.lines == 2 and tail.skipped == 0
    # and the cursor is at EOF: an idle poll reads nothing
    assert list(tail.poll()) == []


def test_tail_line_indices_never_rewind(tmp_path):
    mirror = tmp_path / "w0.jsonl"
    mirror.write_text(jl(ev(1.0, seq=0)))
    tail = MirrorTail(mirror)
    (first,) = tail.poll()
    with mirror.open("a") as fh:
        fh.write(jl(ev(2.0, seq=1)))
    (second,) = tail.poll()
    # line_index continues across polls: the tie-break tail of the merge
    # key must match the line's position in the whole file
    assert (first.line_index, second.line_index) == (0, 1)
    assert first.generation == second.generation == 0


def test_tail_detects_truncation_as_rotation(tmp_path):
    mirror = tmp_path / "w0.jsonl"
    mirror.write_text(jl(ev(1.0, seq=0)) + jl(ev(2.0, seq=1)))
    tail = MirrorTail(mirror)
    assert len(list(tail.poll())) == 2

    # a re-run reopens the same mirror name from scratch
    replacement = ev(3.0, seq=0)
    mirror.write_text(jl(replacement))
    got = list(tail.poll())
    assert [t.event for t in got] == [replacement]
    assert got[0].generation == 1 and got[0].line_index == 0
    assert tail.rotations == 1


def test_tail_survives_vanish_and_reappear(tmp_path):
    mirror = tmp_path / "w0.jsonl"
    mirror.write_text(jl(ev(1.0, seq=0)))
    tail = MirrorTail(mirror)
    assert len(list(tail.poll())) == 1

    mirror.unlink()
    assert list(tail.poll()) == []  # vanished: no events, no crash

    reborn = ev(2.0, seq=0)
    mirror.write_text(jl(reborn))
    got = list(tail.poll())
    assert [t.event for t in got] == [reborn]
    assert got[0].generation >= 1  # a fresh stream, not a continuation


def test_tail_skips_undecodable_lines_like_read_jsonl(tmp_path):
    mirror = tmp_path / "w0.jsonl"
    good = ev(1.0, seq=0)
    mirror.write_text(jl(good) + "{torn garbage\n" + "[1, 2]\n")
    tail = MirrorTail(mirror)
    assert [t.event for t in tail.poll()] == [good]
    assert tail.skipped == 2
    # same lines the post-hoc reader drops
    assert list(read_jsonl(mirror)) == [good]


def test_directory_tailer_discovers_mirrors_and_excludes_outputs(tmp_path):
    (tmp_path / "a.jsonl").write_text(jl(ev(1.0, pid=1)))
    tailer = DirectoryTailer(tmp_path)
    assert len(tailer.poll()) == 1

    # a late-forking worker's mirror appears mid-run; the post-hoc merge
    # output must never be tailed as an input
    (tmp_path / "b.jsonl").write_text(jl(ev(2.0, pid=2)))
    (tmp_path / "trace.jsonl").write_text(jl(ev(99.0, pid=9)))
    got = tailer.poll()
    assert [t.filename for t in got] == ["b.jsonl"]
    assert tailer.stats()["mirrors"] == 2


# ------------------------------------------------------------------ merger


def interleaved_mirrors(tmp_path) -> list[Path]:
    """Two mirrors with interleaved walls and an exact (wall, pid, seq)
    tie across files -- the stable-sort tie-break case."""
    a = tmp_path / "proc-a.jsonl"
    b = tmp_path / "proc-b.jsonl"
    a.write_text("".join(jl(e) for e in [
        ev(1.0, pid=1, seq=0), ev(3.0, pid=1, seq=1),
        ev(5.0, pid=1, seq=2, name="tie"),
    ]))
    b.write_text("".join(jl(e) for e in [
        ev(2.0, pid=2, seq=0), ev(5.0, pid=1, seq=2, name="tie"),
        ev(4.0, pid=2, seq=1),
    ]))
    return [a, b]


def drain_into_merger(tmp_path, merger: LiveMerger) -> None:
    tailer = DirectoryTailer(tmp_path)
    merger.add_all(tailer.poll())
    merger.finalize()


def test_live_merge_equals_posthoc_merge(tmp_path):
    files = interleaved_mirrors(tmp_path)
    merger = LiveMerger()
    drain_into_merger(tmp_path, merger)
    expected = merge_events(files)
    assert merger.sealed == expected
    # byte-identical, not merely equal: the raw replay is diffable
    # against the post-hoc trace.jsonl
    assert [json.dumps(e, sort_keys=True) for e in merger.sealed] == [
        json.dumps(e, sort_keys=True) for e in expected
    ]
    assert merger.late == 0


def test_live_merge_incremental_appends_same_order(tmp_path):
    """Events arriving over many polls, interleaved across mirrors, seal
    into exactly the post-hoc order; nothing seals past the watermark."""
    a, b = tmp_path / "proc-a.jsonl", tmp_path / "proc-b.jsonl"
    a.write_text("")
    b.write_text("")
    tailer = DirectoryTailer(tmp_path)
    merger = LiveMerger()

    batches = [
        (a, [ev(1.0, pid=1, seq=0), ev(4.0, pid=1, seq=1)]),
        (b, [ev(2.0, pid=2, seq=0)]),
        (b, [ev(3.0, pid=2, seq=1), ev(6.0, pid=2, seq=2)]),
        (a, [ev(5.0, pid=1, seq=2)]),
    ]
    for path, events in batches:
        with path.open("a") as fh:
            fh.writelines(jl(e) for e in events)
        merger.add_all(tailer.poll())
        merger.seal(3.5)  # only walls <= 3.5 may seal mid-run

    assert [e["wall"] for e in merger.sealed] == [1.0, 2.0, 3.0]
    merger.finalize()
    assert merger.sealed == merge_events([a, b])
    assert merger.late == 0


def test_watermark_clamped_while_remote_jobs_open():
    merger = LiveMerger()
    merger.note_fleet_record({"event": "pool-start", "remote": True})
    merger.note_fleet_record(
        {"event": "started", "digest": "d1", "attempt": 1, "t": 100.0}
    )
    # an open remote job pins the seal below its start time: its mirror
    # tail only ships when the job finishes
    assert merger.watermark(1000.0) == pytest.approx(99.0)
    merger.note_fleet_record(
        {"event": "completed", "digest": "d1", "attempt": 1, "t": 400.0}
    )
    assert merger.watermark(1000.0) == pytest.approx(999.5)
    # lease-expired also closes the clamp: a dead worker cannot stall it
    merger.note_fleet_record(
        {"event": "started", "digest": "d2", "attempt": 1, "t": 500.0}
    )
    merger.note_fleet_record(
        {"event": "lease-expired", "digest": "d2", "attempt": 1, "t": 600.0}
    )
    assert merger.watermark(1000.0) == pytest.approx(999.5)


def test_viewers_at_any_cursor_see_identical_events(tmp_path):
    files = interleaved_mirrors(tmp_path)
    merger = LiveMerger()
    drain_into_merger(tmp_path, merger)
    full = merger.events_since(0, limit=100)
    assert full["done"] and full["cursor"] == len(merger.sealed)

    # every cursor/limit window is a slice of the same sealed sequence
    for cursor in range(len(merger.sealed) + 1):
        for limit in (1, 2, 100):
            page = merger.events_since(cursor, limit=limit)
            assert page["events"] == full["events"][cursor:cursor + limit]
    # paging through in steps of 2 replays the feed exactly once
    cursor, replay = 0, []
    while True:
        page = merger.events_since(cursor, limit=2)
        replay.extend(page["events"])
        cursor = page["cursor"]
        if page["done"]:
            break
    assert replay == full["events"] == merge_events(files)


def test_events_since_name_filter_keeps_cursor_global(tmp_path):
    """``name=`` filters the returned events but not the cursor: the
    filter applies after the cursor/limit slice, so a filtered viewer
    advances exactly like an unfiltered one and can drop or change the
    prefix mid-stream without losing its place."""
    a = tmp_path / "proc-a.jsonl"
    a.write_text("".join(jl(e) for e in [
        ev(1.0, seq=0, name="pc.start"), ev(2.0, seq=1, name="job.run"),
        ev(3.0, seq=2, name="pc.verdict"), ev(4.0, seq=3, name="job.done"),
        ev(5.0, seq=4, name="pc.end"),
    ]))
    merger = LiveMerger()
    drain_into_merger(tmp_path, merger)

    full = merger.events_since(0, limit=100)
    filtered = merger.events_since(0, limit=100, name="pc.")
    assert filtered["cursor"] == full["cursor"] == 5
    assert filtered["done"] == full["done"]
    assert [e["name"] for e in filtered["events"]] == [
        "pc.start", "pc.verdict", "pc.end",
    ]

    # paging with a filter walks the same global windows: cursors match
    # the unfiltered pager's step for step, events are the window's subset
    cursor, names = 0, []
    while True:
        page = merger.events_since(cursor, limit=2, name="job.")
        unfiltered = merger.events_since(cursor, limit=2)
        assert page["cursor"] == unfiltered["cursor"]
        names.extend(e["name"] for e in page["events"])
        cursor = page["cursor"]
        if page["done"]:
            break
    assert names == ["job.run", "job.done"]
    # switching the filter off mid-stream resumes the full feed in place
    assert merger.events_since(2, limit=100)["events"] == full["events"][2:]


def test_observatory_serves_name_filtered_feed(tmp_path):
    """/events?name=prefix streams the server-side filtered feed, and the
    watch client's ``name`` knob drives it end to end."""
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    (trace_dir / "proc-a.jsonl").write_text("".join(jl(e) for e in [
        ev(1.0, seq=0, name="pc.start"), ev(2.0, seq=1, name="job.run"),
        ev(3.0, seq=2, name="pc.end"),
    ]))
    service = LiveObservatory(trace_dir, None, poll_interval=0.05)
    service.start()
    try:
        service.finalize()
        status, payload = http_get(service.address, "/events?cursor=0&name=pc.")
        assert status == 200
        assert [e["name"] for e in payload["events"]] == ["pc.start", "pc.end"]
        assert payload["cursor"] == 3 and payload["done"]

        out = io.StringIO()
        assert watch(service.address, raw=True, name="job.", out=out,
                     poll=0.01) == 0
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [e["name"] for e in lines] == ["job.run"]
    finally:
        service.shutdown()


# ------------------------------------------------------------- observatory


def test_observatory_replay_and_views(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    files = interleaved_mirrors(trace_dir)

    # a fleet log shaped like one local sweep (same records run_sweep logs)
    events_path = tmp_path / "events.jsonl"
    log = EventLog(events_path)
    log.emit("sweep-start", suite="bench", t=0.0)
    log.emit("phase-start", phase="warm", t=0.5)
    # a 3-slot pool whose third slot never gets a job
    log.emit("pool-start", workers=3, t=1.0)
    log.emit("started", digest="d1", job="alpha", attempt=1, slot=0, t=1.0)
    log.emit("started", digest="d2", job="beta", attempt=1, slot=1, t=1.1)
    log.emit("completed", digest="d1", job="alpha", attempt=1, t=4.0)
    log.emit("completed", digest="d2", job="beta", attempt=1, t=6.0)
    log.emit("phase-end", phase="warm", t=6.5)
    log.emit("phase-start", phase="render", t=6.5)
    log.emit("cached-hit", digest="d3", job="render:alpha", t=6.6)
    log.emit("phase-end", phase="render", t=7.0)

    service = LiveObservatory(trace_dir, events_path, poll_interval=0.05)
    service.start()
    try:
        service.finalize()

        # the raw watch replay is byte-identical to the post-hoc merge
        out = io.StringIO()
        assert watch(service.address, raw=True, out=out) == 0
        merged = merge_events(files)
        posthoc = trace_dir / "trace.jsonl"
        write_jsonl(posthoc, merged)
        assert out.getvalue() == posthoc.read_text()

        # /critical-path converges to the post-hoc analysis of the log
        status, live_cpath = http_get(service.address, "/critical-path")
        assert status == 200
        assert live_cpath == critical_path(list(read_jsonl(events_path)))
        assert live_cpath["bounding_phase"] == "warm"

        status, lanes = http_get(service.address, "/swimlanes")
        assert status == 200
        # the idle slot is a lane too, and a worker in both views
        assert set(lanes["lanes"]) == {"slot-0", "slot-1", "slot-2"}
        assert lanes["lanes"]["slot-2"] == {"jobs": 0, "state": "idle"}
        assert lanes["workers"] == live_cpath["workers"] == 3
        assert lanes["counts"]["completed"] == 2

        status, health = http_get(service.address, "/health")
        assert status == 200 and health["done"]

        status, stats = http_get(service.address, "/status")
        assert status == 200
        assert stats["sealed"] == len(merged) and stats["late"] == 0
    finally:
        service.shutdown()


def test_observatory_concurrent_viewers_identical_streams(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    files = interleaved_mirrors(trace_dir)
    service = LiveObservatory(trace_dir, None, poll_interval=0.05)
    service.start()
    try:
        service.finalize()
        streams: dict[int, str] = {}

        def viewer(idx: int, cursor: int, limit: int) -> None:
            out = io.StringIO()
            watch(service.address, raw=True, cursor=cursor, out=out,
                  poll=0.01)
            streams[idx] = out.getvalue()

        merged = merge_events(files)
        starts = [0, 0, 1, 3, len(merged)]
        threads = [
            threading.Thread(target=viewer, args=(i, start, 2))
            for i, start in enumerate(starts)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        full = "".join(json.dumps(e, sort_keys=True) + "\n" for e in merged)
        for i, start in enumerate(starts):
            skip = sum(len(json.dumps(e, sort_keys=True)) + 1
                       for e in merged[:start])
            assert streams[i] == full[skip:], f"viewer {i} diverged"
    finally:
        service.shutdown()


def test_observatory_consultant_view_from_live_run(tmp_path):
    """A real tool run's pc.* instants, mirrored and tailed, reconstruct
    the Consultant's search state for the /consultant view."""
    from repro.analysis.runner import run_program
    from repro.observe.recorder import recording

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import bench_scale_ranks as bench

    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    with recording(mirror=trace_dir / "tool.jsonl"):
        result = run_program(
            bench._tool_program()(), impl="refmpi", nprocs=16,
            consultant=True, seed=0,
        )
    expected = result.consultant.summary()

    service = LiveObservatory(trace_dir, None, poll_interval=0.05)
    service.start()
    try:
        service.finalize()
        status, view = http_get(service.address, "/consultant")
        assert status == 200
        # every experimented node's verdict reaches the feed (queued nodes
        # bulk-marked UNKNOWN at wind-down never ran, so never decided)
        assert view["decisions"] >= expected["true"] + expected["false"]
        assert any("ExcessiveSyncWaitingTime" in node
                   for node in view["true_nodes"])
        assert view["by_state"].get("TRUE") == expected["true"]
        assert view["by_state"].get("FALSE") == expected["false"]
        assert view["refinements"] > 0
    finally:
        service.shutdown()


def test_consultant_state_tracks_refinement():
    state = ConsultantState()
    state.consume(ev(1.0, name="pc.decide", node="TopLevelHypothesis",
                     state="TRUE", value=0.9, metric="sync", depth=0))
    state.consume(ev(1.1, name="pc.refine", node="TopLevelHypothesis",
                     depth=0))
    state.consume(ev(1.5, name="pc.decide", node="CPUBound @ Whole Program",
                     state="FALSE", value=0.1, metric="cpu", depth=1))
    snap = state.snapshot()
    assert snap["decisions"] == 2 and snap["refinements"] == 1
    assert snap["nodes"]["TopLevelHypothesis"]["refined"] is True
    assert snap["true_nodes"] == ["TopLevelHypothesis"]
    assert snap["by_state"] == {"TRUE": 1, "FALSE": 1}


# ------------------------------------------------------------- token auth


def test_observatory_auth_gates_everything_but_health(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    interleaved_mirrors(trace_dir)
    service = LiveObservatory(trace_dir, None, token="s3cret")
    service.start()
    try:
        service.finalize()
        status, _ = http_get(service.address, "/health")
        assert status == 200  # liveness stays credential-free
        for path in ("/events?cursor=0", "/status", "/swimlanes",
                     "/critical-path", "/consultant"):
            status, payload = http_get(service.address, path)
            assert status == 401, path
            assert "token" in payload["hint"]
            status, _ = http_get(service.address, path, token="wrong")
            assert status == 401, path
            status, _ = http_get(service.address, path, token="s3cret")
            assert status == 200, path
        # the watch client surfaces the refusal as exit 1, not a traceback
        assert watch(service.address, raw=True, out=io.StringIO()) == 1
        out = io.StringIO()
        assert watch(service.address, raw=True, token="s3cret", out=out) == 0
        assert out.getvalue()
    finally:
        service.shutdown()


def test_store_and_coordinator_auth(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FLEET_TOKEN", raising=False)
    coord = FleetCoordinator(cache=tmp_path / "store", token="hunter2").start()
    try:
        status, _ = http_get(coord.address, "/health")
        assert status == 200
        for path in ("/stats", "/status"):
            status, payload = http_get(coord.address, path)
            assert status == 401 and "token" in payload["hint"]
            status, _ = http_get(coord.address, path, token="hunter2")
            assert status == 200
        # PUT/POST are gated too
        (spec,) = make_specs(1)
        store = HTTPStore(coord.url)
        with pytest.raises(WireError):
            store.put(spec.digest, to_bytes(ok_artifact(spec)))
        # the ambient env token authenticates every wire client
        monkeypatch.setenv("REPRO_FLEET_TOKEN", "hunter2")
        store.put(spec.digest, to_bytes(ok_artifact(spec)))
        assert store.has(spec.digest)
    finally:
        coord.shutdown()


# ----------------------------------------------------- remote mirror relay


def test_coordinator_emits_trace_relay_before_terminal(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "live-relay-test")
    coord = FleetCoordinator(cache=tmp_path)
    (spec,) = make_specs(1)
    coord.submit_jobs({"jobs": job_rows([spec]), "trace": True})
    response = coord.lease("w1", code_version())
    job = response["job"]
    assert response.get("trace") or job.get("trace")  # relay requested
    tail = [ev(1.0, name="worker.job", kind="B")]
    coord.result(job["lease"], ok_artifact(spec), wall=0.5, trace=tail)
    kinds = [e["event"] for e in coord._events]
    # the relay record precedes the terminal so a tailer that sees
    # "completed" can rely on the mirror being on disk already
    assert kinds.index("trace") < kinds.index("completed")
    (relay,) = [e for e in coord._events if e["event"] == "trace"]
    assert relay["digest"] == spec.digest
    assert relay["worker"] == "w1" and relay["events"] == tail


def test_pool_lands_relay_as_mirror_file(tmp_path):
    from repro.fleet.remote.pool import RemotePool

    trace_dir = tmp_path / "trace"
    pool = RemotePool.__new__(RemotePool)
    pool.trace_dir = trace_dir
    events = [ev(1.0, name="worker.job", kind="B"),
              ev(2.0, name="worker.job", kind="E")]
    pool._write_relay({
        "event": "trace", "digest": "a" * 64, "job": "alpha",
        "attempt": 2, "worker": "w1", "events": events,
    })
    relay = trace_dir / f"remote-{'a' * 12}.2.jsonl"
    assert relay.is_file()
    assert list(read_jsonl(relay)) == events
    # the relay file is a regular mirror: the tailer picks it up, the
    # post-hoc merge sees the same lines
    assert [t.event for t in DirectoryTailer(trace_dir).poll()] == events


# --------------------------------------------------------- the live sweep


REAL_COMMON = Path(__file__).resolve().parents[1] / "benchmarks" / "common.py"

ALPHA = """\
import common


def test_alpha(benchmark):
    value = common.once(benchmark, lambda: "alpha-v1")
    common.emit("alpha", f"alpha report: {value}")
"""

GAMMA = """\
import common


def test_gamma(benchmark):
    value = common.once(benchmark, lambda: "gamma-v1")
    common.emit("gamma", f"gamma report: {value}")
"""


@pytest.fixture
def live_bench_env(tmp_path, monkeypatch):
    """A two-bench synthetic suite, env-isolated (the render-test recipe)."""
    bench = tmp_path / "benches"
    bench.mkdir()
    shutil.copy(REAL_COMMON, bench / "common.py")
    (bench / "bench_alpha.py").write_text(ALPHA)
    (bench / "bench_gamma.py").write_text(GAMMA)
    monkeypatch.setenv("REPRO_BENCH_DIR", str(bench))
    monkeypatch.setenv("REPRO_CODE_VERSION", "live-sweep-test")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_FLEET_TOKEN", raising=False)
    saved = {
        name: sys.modules.pop(name, None)
        for name in ("common", "bench_alpha", "bench_gamma")
    }
    yield bench
    for name, module in saved.items():
        if module is not None:
            sys.modules[name] = module
        else:
            sys.modules.pop(name, None)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_live_sweep_end_to_end(tmp_path, live_bench_env):
    """A client attached to a running ``run_sweep(live=True)`` drains a
    replay byte-identical to the sweep's own post-hoc ``trace.jsonl``,
    the live ``/critical-path`` converges to the summary's, and the
    cache is byte-identical to a sweep without the observatory."""
    from repro.fleet import run_sweep

    trace_dir = tmp_path / "trace"
    port = free_port()
    address = f"127.0.0.1:{port}"
    live_cache = ResultCache(tmp_path / "cache-live")
    summary_box: dict = {}

    def drive() -> None:
        summary_box["summary"] = run_sweep(
            suite="bench", jobs=2, retries=0, cache=live_cache,
            bench_out=None, trace_dir=trace_dir, live=True,
            live_port=port, live_linger=4.0,
        )

    sweeper = threading.Thread(target=drive)
    sweeper.start()
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                status, _ = http_get(address, "/health")
                if status == 200:
                    break
            except WireError:
                pass
            time.sleep(0.05)
        else:
            pytest.fail("live observatory never came up")

        # attach mid-sweep and drain to the finalized end
        out = io.StringIO()
        assert watch(address, raw=True, out=out, poll=0.05) == 0

        # snapshots during the linger window, before the socket goes away
        status, live_cpath = http_get(address, "/critical-path")
        assert status == 200
        status, lanes = http_get(address, "/swimlanes")
        assert status == 200
        status, stats = http_get(address, "/status")
        assert status == 200
    finally:
        sweeper.join(timeout=120)
    assert not sweeper.is_alive()
    summary = summary_box["summary"]
    assert summary["counts"]["failed"] == 0

    # (a) the feed carried events from every pool slot: both bench
    # bodies forked, each child's mirror reached the client
    replayed = [json.loads(line) for line in out.getvalue().splitlines()]
    client_pids = {e["pid"] for e in replayed}
    mirror_pids = set()
    for mirror in trace_dir.glob("*.jsonl"):
        if mirror.name != "trace.jsonl":
            mirror_pids.update(e["pid"] for e in read_jsonl(mirror))
    assert client_pids == mirror_pids and len(mirror_pids) >= 2
    assert {e.get("name") for e in replayed} >= {"worker.job"}
    started_slots = {
        lane for lane in lanes["lanes"] if lane.startswith("slot-")
    }
    assert started_slots  # swimlanes saw the local pool slots

    # (b) the live replay is byte-identical to the sweep's own merge
    assert out.getvalue() == (trace_dir / "trace.jsonl").read_text()
    assert stats["late"] == 0

    # the live /critical-path converged to the post-hoc analysis the
    # sweep wrote into its summary (same log, same consumer)
    posthoc = summary["critical_path"]
    assert live_cpath["bounding_phase"] == posthoc["bounding_phase"]
    assert live_cpath["executed"] == posthoc["executed"]
    assert live_cpath["cached"] == posthoc["cached"]
    assert [link["job"] for link in live_cpath["chain"]] == [
        link["job"] for link in posthoc["chain"]
    ]

    # the observatory perturbs nothing: a no-live sweep produces a
    # byte-identical cache
    shutil.rmtree(live_bench_env / "reports")
    plain_cache = ResultCache(tmp_path / "cache-plain")
    plain = run_sweep(suite="bench", jobs=2, retries=0, cache=plain_cache,
                      bench_out=None)
    assert plain["counts"]["failed"] == 0
    assert set(live_cache.digests()) == set(plain_cache.digests())
    for digest in plain_cache.digests():
        assert (
            live_cache._object_path(digest).read_bytes()
            == plain_cache._object_path(digest).read_bytes()
        )
