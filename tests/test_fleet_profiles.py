"""Learned walls and the longest-predicted-first schedule they steer.

The reader side is pure unit tests over :func:`learned_walls`: a job
label's latest executed wall comes from the summary's ``per_job`` rows,
then the event log's ``completed`` records, and an unreadable file or row
contributes nothing.  The scheduler side runs real worker processes
through :class:`FleetScheduler` and asserts the *launch order* from the
event log: longest-predicted-first within a priority class, explicit
priority still primary, dependency admission only after the producer is
terminal (including failed producers), and seeded tie-shuffles that never
change the artifacts.  The sweep side checks that a sweep predicts from
its own event log, that ``fleet clean`` keeps that log, and that no
second record of the walls is written.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.fleet.cache import ResultCache
from repro.fleet.events import EventLog
from repro.fleet.profiles import learned_walls
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import RunSpec
from repro.fleet.sweeps import run_sweep


def spec_for(program: str, **kwargs) -> RunSpec:
    kwargs.setdefault("mode", "tool")
    kwargs.setdefault("impl", "lam")
    return RunSpec.make(program, **kwargs)


def event_log(tmp_path, *rows, name="events.jsonl"):
    """An event log of ``completed`` records from ``(label, wall)`` rows."""
    path = tmp_path / name
    log = EventLog(path)
    for label, wall in rows:
        log.emit("completed", digest="d" * 64, job=label, attempt=1, wall=wall)
    log.close()
    return path


def bench_fleet_json(tmp_path, per_job, schema=7):
    path = tmp_path / "BENCH_fleet.json"
    path.write_text(json.dumps({"schema": schema, "per_job": per_job}))
    return path


def queued_predictions(events):
    return {r["job"]: r["predicted"] for r in events.records
            if r["event"] == "queued"}


# ------------------------------------------------------------- label keys


def test_family_key_survives_code_edits_digest_does_not(monkeypatch, tmp_path):
    """Walls are keyed by job label, which a source edit leaves alone:
    the cached artifact is invalidated, the learned wall is not."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "edit-one")
    before = spec_for("sstwod", params={"n": 64})
    digest_before = before.digest
    log = event_log(tmp_path, (before.label, 4.0))
    monkeypatch.setenv("REPRO_CODE_VERSION", "edit-two")
    after = spec_for("sstwod", params={"n": 64})
    assert after.digest != digest_before
    pool = FleetScheduler(jobs=1, walls=learned_walls(None, log),
                          events=EventLog())
    pool.submit(after)
    assert queued_predictions(pool.events) == {after.label: 4.0}


def test_family_key_distinguishes_params_and_modes(tmp_path):
    """The label names mode, program and impl: those predict apart, while
    a params or nprocs variant of the same label shares its wall."""
    base = spec_for("sstwod")
    walls = learned_walls(None, event_log(tmp_path, (base.label, 3.0)))
    assert walls == {"tool:sstwod/lam": 3.0}
    for same in (spec_for("sstwod", params={"n": 2}), spec_for("sstwod", nprocs=8)):
        assert walls.get(same.label) == 3.0
    for other in (spec_for("sstwod", mode="sanitize"),
                  spec_for("sstwod", impl="mpich"), spec_for("oned")):
        assert walls.get(other.label) is None


# ------------------------------------------------------- latest wall wins


def test_observe_first_sample_then_ema_merge(tmp_path):
    """No averaging: a label's latest ``completed`` wall replaces the
    earlier one outright."""
    log = event_log(tmp_path, ("tool:small_messages/lam", 4.0))
    assert learned_walls(None, log) == {"tool:small_messages/lam": 4.0}
    log = event_log(tmp_path, ("tool:small_messages/lam", 2.0))  # appends
    assert learned_walls(None, log) == {"tool:small_messages/lam": 2.0}


def test_predict_fallback_chain(tmp_path):
    """A prediction is the label's wall or nothing: neither a params
    sibling's median nor a ``mode:program`` group stands in for an unseen
    label, which therefore queues unpredicted."""
    known = spec_for("sstwod")
    cousin = spec_for("sstwod", impl="mpich")  # same mode:program group
    stranger = spec_for("small_messages")
    walls = learned_walls(None, event_log(
        tmp_path, (known.label, 3.0), (known.label, 9.0)))
    pool = FleetScheduler(jobs=1, walls=walls, events=EventLog())
    for spec in (known, cousin, stranger):
        pool.submit(spec)
    assert queued_predictions(pool.events) == {
        known.label: 9.0, cousin.label: None, stranger.label: None,
    }


def test_predict_uses_seeds_when_no_family_measured(tmp_path):
    """The summary's rows predict labels the log never completed; where
    both name a label, the log (read second) wins."""
    bench = bench_fleet_json(tmp_path, [
        {"job": "tool:sstwod/lam", "wall": 21.0},
        {"job": "tool:oned/lam", "wall": 7.5},
    ])
    log = event_log(tmp_path, ("tool:sstwod/lam", 18.0))
    assert learned_walls(bench, log) == {
        "tool:sstwod/lam": 18.0, "tool:oned/lam": 7.5,
    }
    assert learned_walls(bench, None) == {
        "tool:sstwod/lam": 21.0, "tool:oned/lam": 7.5,
    }


# ------------------------------------------------------------- round trip


def test_save_load_round_trip(tmp_path):
    """What the pool logs is what the reader reads: every executed job's
    ``completed`` wall, under its label."""
    specs = [spec_for("short"), spec_for("long")]
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        pool = FleetScheduler(jobs=1, retries=0, executor=stub_executor,
                              events=log)
        for spec in specs:
            pool.submit(spec)
        pool.run()
    completed = {r["job"]: r["wall"] for r in log.records
                 if r["event"] == "completed"}
    assert set(completed) == {"tool:short/lam", "tool:long/lam"}
    assert learned_walls(None, path) == completed


@pytest.mark.parametrize("payload", [
    "not json at all {",
    json.dumps({"schema": 99, "jobs": {"k": {"wall": 1.0}}}),
    json.dumps(["a", "list"]),
    json.dumps({"schema": 1, "jobs": {"k": {"no_wall": True}}}),
])
def test_corrupt_or_wrong_schema_degrades_to_empty(tmp_path, payload):
    """Not a summary with a per_job table, and not a log of completed
    records: neither file contributes a wall."""
    summary = tmp_path / "BENCH_fleet.json"
    summary.write_text(payload)
    log = tmp_path / "events.jsonl"
    log.write_text(payload + "\n")
    assert learned_walls(summary, log) == {}


def test_missing_file_is_an_empty_store(tmp_path):
    nope = tmp_path / "nope"
    assert learned_walls(nope / "BENCH_fleet.json", nope / "events.jsonl") == {}
    assert learned_walls(None, None) == {}
    # a directory squatting on either name reads as no file
    nope.mkdir()
    assert learned_walls(nope, nope) == {}


# ------------------------------------------------------- summary per_job rows


def test_seed_from_bench_reads_schema_3_snapshots(tmp_path):
    """Summaries before schema 7 carry the same per_job table."""
    bench = bench_fleet_json(
        tmp_path, [{"job": "tool:sstwod/lam", "wall": 21.0}], schema=3
    )
    assert learned_walls(bench, None) == {"tool:sstwod/lam": 21.0}


def test_seed_from_bench_skips_cached_rows_and_known_labels(tmp_path):
    """Cached rows are restore times, not walls; malformed rows are
    skipped; a label named twice keeps its later row."""
    bench = bench_fleet_json(tmp_path, [
        {"job": "tool:sstwod/lam", "wall": 21.0},
        {"job": "tool:fast/lam", "wall": 0.5, "cached": True},
        {"job": "tool:twice/lam", "wall": 0.038},
        {"job": "tool:broken/lam"},  # no wall: skipped, not fatal
        {"job": "tool:nan/lam", "wall": "slow"},
        "not a row",
        {"job": "tool:twice/lam", "wall": 0.018},
    ])
    assert learned_walls(bench, None) == {
        "tool:sstwod/lam": 21.0, "tool:twice/lam": 0.018,
    }
    log = tmp_path / "events.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in [
        {"event": "completed", "job": "tool:hit/lam", "wall": 0.1,
         "store_hit": True},  # a remote store hit: nothing executed
        {"event": "started", "job": "tool:sstwod/lam", "wall": 1.0},
    ]))
    assert learned_walls(None, log) == {}


def test_open_store_seeds_only_when_empty(tmp_path):
    """Both records are read on every sweep, the log after the summary:
    a label the log completed takes the log's wall, and a label only the
    summary names keeps the summary's."""
    bench = bench_fleet_json(tmp_path, [
        {"job": "tool:sstwod/lam", "wall": 21.0},
        {"job": "tool:other/lam", "wall": 3.0},
    ])
    log = event_log(tmp_path, ("tool:sstwod/lam", 19.0))
    assert learned_walls(bench, log) == {
        "tool:sstwod/lam": 19.0, "tool:other/lam": 3.0,
    }


# --------------------------------------------------- scheduler: LPT + deps


def stub_executor(spec: RunSpec) -> dict:
    if spec.program == "boom":
        raise RuntimeError("synthetic failure")
    return {
        "schema": 1,
        "digest": spec.digest,
        "spec": spec.to_dict(),
        "status": "ok",
        "error": None,
        "result": {"program": spec.program},
    }


def run_pool(specs, *, walls=None, order_seed=None, priorities=None,
             after=None, jobs=1):
    events = EventLog()
    pool = FleetScheduler(
        jobs=jobs, retries=0, executor=stub_executor, events=events,
        walls=walls, order_seed=order_seed,
    )
    for i, spec in enumerate(specs):
        pool.submit(
            spec,
            priority=(priorities or {}).get(spec.program, 0),
            after=(after or {}).get(spec.program, ()),
        )
    results = pool.run()
    return pool, events, results


def started_jobs(events):
    return [r["job"] for r in events.records if r["event"] == "started"]


def test_lpt_orders_ready_jobs_longest_predicted_first():
    short, medium, long = (
        spec_for("short"), spec_for("medium"), spec_for("long")
    )
    walls = {short.label: 0.2, medium.label: 2.0, long.label: 8.0}
    _, events, results = run_pool([short, medium, long], walls=walls)
    assert started_jobs(events) == [
        "tool:long/lam", "tool:medium/lam", "tool:short/lam"
    ]
    assert all(a["status"] == "ok" for a in results.values())
    # the walls the next sweep predicts from are the completed records
    assert {r["job"] for r in events.records if r["event"] == "completed"
            and r["wall"] >= 0} == set(walls)


def test_explicit_priority_beats_predicted_wall():
    urgent, long = spec_for("urgent"), spec_for("long")
    _, events, _ = run_pool(
        [long, urgent], walls={urgent.label: 0.1, long.label: 30.0},
        priorities={"urgent": 0, "long": 1},
    )
    assert started_jobs(events) == ["tool:urgent/lam", "tool:long/lam"]


def test_unprofiled_jobs_keep_submission_order():
    specs = [spec_for(p) for p in ("c", "a", "b")]
    _, events, _ = run_pool(specs, walls={})
    assert started_jobs(events) == ["tool:c/lam", "tool:a/lam", "tool:b/lam"]
    # and an unseen label launches after the predicted jobs of its class
    seen = spec_for("seen")
    _, events, _ = run_pool(specs + [seen], walls={seen.label: 0.01})
    assert started_jobs(events) == [
        "tool:seen/lam", "tool:c/lam", "tool:a/lam", "tool:b/lam"
    ]


def test_dependency_holds_consumer_until_producer_terminal():
    producer, consumer = spec_for("producer"), spec_for("consumer")
    # LPT would launch the consumer first; the dependency must override
    _, events, results = run_pool(
        [producer, consumer], walls={producer.label: 0.1, consumer.label: 9.0},
        jobs=2, after={"consumer": (producer.digest,)},
    )
    names = [
        (r["event"], r.get("job")) for r in events.records
        if r["event"] in ("started", "completed", "admitted")
    ]
    assert names == [
        ("started", "tool:producer/lam"),
        ("completed", "tool:producer/lam"),
        ("admitted", "tool:consumer/lam"),
        ("started", "tool:consumer/lam"),
        ("completed", "tool:consumer/lam"),
    ]
    assert len(results) == 2


def test_failed_producer_still_admits_consumer():
    producer, consumer = spec_for("boom"), spec_for("consumer")
    _, events, results = run_pool(
        [producer, consumer], jobs=2,
        after={"consumer": (producer.digest,)},
    )
    order = [r["event"] for r in events.records
             if r["event"] in ("failed", "admitted")]
    assert order == ["failed", "admitted"]
    assert results[producer.digest]["status"] == "failed"
    assert results[consumer.digest]["status"] == "ok"


def test_dependency_on_unsubmitted_digest_is_ignored():
    lone = spec_for("lone")
    _, events, results = run_pool(
        [lone], after={"lone": ("deadbeef" * 8,)},
    )
    assert results[lone.digest]["status"] == "ok"
    (queued,) = [r for r in events.records if r["event"] == "queued"]
    assert queued["deps"] == 0


def test_order_seed_shuffles_deterministically_without_changing_results():
    programs = ("p1", "p2", "p3", "p4", "p5")
    specs = [spec_for(p) for p in programs]

    _, ev_a, res_a = run_pool(specs, order_seed=7)
    _, ev_b, res_b = run_pool(specs, order_seed=7)
    assert started_jobs(ev_a) == started_jobs(ev_b)  # same seed, same order

    orders, artifacts = set(), []
    for seed in (None, 7, 11, 23):
        _, events, results = run_pool(specs, order_seed=seed)
        orders.add(tuple(started_jobs(events)))
        artifacts.append(
            {d: json.dumps(a, sort_keys=True) for d, a in results.items()}
        )
    assert len(orders) > 1  # the shuffle actually reorders launches
    assert all(a == artifacts[0] for a in artifacts[1:])  # bytes never move


# ------------------------------------------------- sweeps: one record of walls


def sanitize_sweep(cache, bench_out=None):
    """A real sweep of the lam sanitizer suite (about a second)."""
    events = EventLog(cache.events_path)
    summary = run_sweep(suite="sanitize", sanitize_impls=("lam",), jobs=2,
                        retries=0, cache=cache, events=events,
                        bench_out=bench_out)
    events.close()
    return summary, events


def test_sweep_predicts_from_its_own_event_log(tmp_path):
    """No second record: a sweep writes no profiles file, and the next
    sweep queues every job at its last ``completed`` wall."""
    cache = ResultCache(tmp_path / "cache")
    first, log = sanitize_sweep(cache)
    assert first["counts"]["failed"] == 0
    assert "profiles" not in first
    assert sorted(p.name for p in cache.root.iterdir()) == [
        "events.jsonl", "objects",
    ]
    walls = {r["job"]: r["wall"] for r in log.records
             if r["event"] == "completed"}
    assert len(walls) == first["counts"]["completed"] > 0
    assert not any(queued_predictions(log).values())  # a cold first sweep

    second, log = sanitize_sweep(cache)
    assert second["counts"]["cached"] == second["counts"]["specs"]
    assert queued_predictions(log) == walls


def test_fleet_clean_keeps_the_event_log(tmp_path):
    """``fleet clean`` drops the artifacts, not the learned walls: the
    next sweep is cold again and still predicts every job."""
    from repro.cli import main

    cache = ResultCache(tmp_path / "cache")
    first, _ = sanitize_sweep(cache)
    assert main(["fleet", "clean", "--cache", str(cache.root)]) == 0
    assert len(cache) == 0
    assert cache.events_path.is_file()

    second, log = sanitize_sweep(cache)
    assert second["counts"]["completed"] == first["counts"]["completed"]
    predicted = queued_predictions(log)
    assert predicted and all(w is not None for w in predicted.values())


def test_garbage_log_and_malformed_summary_never_fail_a_sweep(tmp_path):
    """Torn and foreign lines in the log, and a summary that is not
    JSON, cost the sweep its predictions from them and nothing else."""
    cache = ResultCache(tmp_path / "cache")
    cache.events_path.parent.mkdir(parents=True)
    cache.events_path.write_text(
        "not json\n[1, 2]\n"
        + json.dumps({"event": "completed", "job": "sanitize:oned/lam",
                      "wall": "slow"}) + "\n"
        + json.dumps({"event": "completed", "job": "sanitize:allcount/lam",
                      "wall": 5.0}) + "\n"
        + '{"event": "completed", "job": "sanitize:win'  # torn tail
    )
    bench_out = tmp_path / "BENCH_fleet.json"
    bench_out.write_text("{not json")
    summary, log = sanitize_sweep(cache, bench_out=bench_out)
    assert summary["counts"]["failed"] == 0
    assert summary["schema"] == 8
    predicted = {job: w for job, w in queued_predictions(log).items() if w}
    assert predicted == {"sanitize:allcount/lam": 5.0}
    # the sweep overwrote the malformed summary with its own
    assert json.loads(bench_out.read_text())["schema"] == 8


# ------------------------------------------------- packing-efficiency floor

PACKING_WALLS = [2.0, 1.5, 1.2, 0.9, 0.7, 0.6, 0.5, 0.4, 0.4, 0.3, 0.3, 0.2]


def sleep_executor(spec: RunSpec) -> dict:
    time.sleep(spec.program_params()["wall"])
    return {"schema": 1, "digest": spec.digest,
            "spec": spec.to_dict(), "status": "ok",
            "error": None, "result": {}}


@pytest.mark.slow
def test_packing_within_lpt_bound():
    """Known-length sleep jobs, submitted shortest-first (adversarial for
    FIFO) and scheduled LPT from their known walls, finish within 1.15x
    the LPT lower bound max(longest_job, total/workers)."""
    specs = [RunSpec.make(f"pack{i:02d}", params={"wall": wall})
             for i, wall in enumerate(PACKING_WALLS)]
    walls = {spec.label: wall for spec, wall in zip(specs, PACKING_WALLS)}
    pool = FleetScheduler(jobs=4, retries=0, executor=sleep_executor,
                          walls=walls, events=EventLog())
    for spec in sorted(specs, key=lambda s: s.program_params()["wall"]):
        pool.submit(spec)
    t0 = time.monotonic()
    results = pool.run()
    makespan = time.monotonic() - t0
    assert all(a["status"] == "ok" for a in results.values())
    bound = max(max(PACKING_WALLS), sum(PACKING_WALLS) / pool.jobs)
    ratio = makespan / bound
    assert ratio <= 1.15, (
        f"packing regressed: makespan {makespan:.2f}s is {ratio:.2f}x the "
        f"LPT bound {bound:.2f}s on {pool.jobs} worker(s)"
    )
