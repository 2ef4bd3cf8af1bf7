"""Profile store and profile-guided scheduling.

The store side is pure unit tests: EMA merge math, the four-step
prediction fallback, corrupt-file degradation, and BENCH_fleet.json
seeding.  The scheduler side runs real worker processes through
:class:`FleetScheduler` and asserts the *launch order* from the event
log: longest-predicted-first within a priority class, explicit priority
still primary, dependency admission only after the producer is terminal
(including failed producers), and seeded tie-shuffles that never change
the artifacts.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.fleet.events import EventLog
from repro.fleet.profiles import (
    EMA_ALPHA,
    PROFILES_NAME,
    ProfileStore,
    family_key,
    open_store,
)
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import RunSpec


def spec_for(program: str, **kwargs) -> RunSpec:
    kwargs.setdefault("mode", "tool")
    kwargs.setdefault("impl", "lam")
    return RunSpec.make(program, **kwargs)


# -------------------------------------------------------------- family keys


def test_family_key_survives_code_edits_digest_does_not(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "edit-one")
    before = spec_for("sstwod", params={"n": 64})
    digest_before, family_before = before.digest, family_key(before)
    monkeypatch.setenv("REPRO_CODE_VERSION", "edit-two")
    after = spec_for("sstwod", params={"n": 64})
    # the cached artifact is invalidated, the learned wall is not
    assert after.digest != digest_before
    assert family_key(after) == family_before


def test_family_key_distinguishes_params_and_modes():
    base = spec_for("sstwod")
    assert family_key(spec_for("sstwod", params={"n": 2})) != family_key(base)
    assert family_key(spec_for("sstwod", mode="sanitize")) != family_key(base)
    assert family_key(spec_for("sstwod", nprocs=8)) != family_key(base)


# ----------------------------------------------------------- observe / EMA


def test_observe_first_sample_then_ema_merge():
    store = ProfileStore()
    spec = spec_for("small_messages")
    store.observe(spec, 4.0)
    row = store.jobs[family_key(spec)]
    assert row == {"label": "tool:small_messages/lam", "wall": 4.0, "n": 1}

    store.observe(spec, 2.0)
    row = store.jobs[family_key(spec)]
    assert row["wall"] == round(EMA_ALPHA * 2.0 + (1 - EMA_ALPHA) * 4.0, 6)
    assert row["n"] == 2
    assert store.dirty


def test_predict_fallback_chain():
    store = ProfileStore()
    exact = spec_for("sstwod", params={"n": 1})
    sibling = spec_for("sstwod", params={"n": 2})  # same label, other family
    cousin = spec_for("sstwod", impl="mpich")      # same mode:program group
    stranger = spec_for("small_messages")

    # 4: nothing known at all
    assert store.predict(exact) is None

    store.observe(exact, 3.0)
    store.observe(sibling, 9.0)
    # 1: exact family hit
    assert store.predict(exact) == 3.0
    # 2: label median over the known families with the same label
    other = spec_for("sstwod", params={"n": 3})
    assert store.predict(other) == pytest.approx(6.0)
    # 3: mode:program group median for a new impl personality
    assert store.predict(cousin) == pytest.approx(6.0)
    # 4: a different program stays unknown
    assert store.predict(stranger) is None


def test_predict_uses_seeds_when_no_family_measured():
    store = ProfileStore()
    store.seeds["tool:sstwod/lam"] = 7.5
    # label-level seed answers both the exact label and the group fallback
    assert store.predict(spec_for("sstwod")) == 7.5
    assert store.predict(spec_for("sstwod", impl="mpich")) == 7.5
    assert store.predict(spec_for("small_messages")) is None


# ------------------------------------------------------------- persistence


def test_save_load_round_trip(tmp_path):
    path = tmp_path / PROFILES_NAME
    store = ProfileStore(path)
    spec = spec_for("sstwod")
    store.observe(spec, 1.25)
    store.seeds["tool:other/lam"] = 2.5
    assert store.save() == path

    reloaded = ProfileStore(path)
    assert reloaded.jobs == store.jobs
    assert reloaded.seeds == store.seeds
    assert not reloaded.dirty


@pytest.mark.parametrize("payload", [
    "not json at all {",
    json.dumps({"schema": 99, "jobs": {"k": {"wall": 1.0}}}),
    json.dumps(["a", "list"]),
    json.dumps({"schema": 1, "jobs": {"k": {"no_wall": True}}}),
])
def test_corrupt_or_wrong_schema_degrades_to_empty(tmp_path, payload):
    path = tmp_path / PROFILES_NAME
    path.write_text(payload)
    store = ProfileStore(path)
    assert store.jobs == {} and store.seeds == {}
    assert store.predict(spec_for("sstwod")) is None


def test_missing_file_is_an_empty_store(tmp_path):
    store = ProfileStore(tmp_path / "nope" / PROFILES_NAME)
    assert len(store) == 0


# ----------------------------------------------------------------- seeding


def bench_fleet_json(tmp_path, per_job, schema=4):
    path = tmp_path / "BENCH_fleet.json"
    path.write_text(json.dumps({"schema": schema, "per_job": per_job}))
    return path


def test_seed_from_bench_reads_schema_3_snapshots(tmp_path):
    """Committed BENCH_fleet.json files predate schema 4; their per_job
    table has the same shape and must still seed."""
    bench = bench_fleet_json(
        tmp_path, [{"job": "tool:sstwod/lam", "wall": 21.0}], schema=3
    )
    store = ProfileStore()
    assert store.seed_from_bench(bench) == 1
    assert store.predict(spec_for("sstwod")) == 21.0


def test_seed_from_bench_skips_cached_rows_and_known_labels(tmp_path):
    bench = bench_fleet_json(tmp_path, [
        {"job": "tool:sstwod/lam", "wall": 21.0},
        {"job": "tool:fast/lam", "wall": 0.5, "cached": True},
        {"job": "tool:known/lam", "wall": 99.0},
        {"job": "tool:broken/lam"},  # no wall: skipped, not fatal
    ])
    store = ProfileStore()
    store.seeds["tool:known/lam"] = 1.0
    assert store.seed_from_bench(bench) == 1
    assert store.seeds == {"tool:known/lam": 1.0, "tool:sstwod/lam": 21.0}


def test_open_store_seeds_only_when_empty(tmp_path):
    bench = bench_fleet_json(
        tmp_path, [{"job": "tool:sstwod/lam", "wall": 21.0}]
    )
    store = open_store(tmp_path, bench)
    assert store.seeds == {"tool:sstwod/lam": 21.0}
    store.save()

    richer = bench_fleet_json(
        tmp_path, [{"job": "tool:other/lam", "wall": 3.0}]
    )
    again = open_store(tmp_path, richer)
    # the persisted store is non-empty, so the snapshot is ignored
    assert again.seeds == {"tool:sstwod/lam": 21.0}
    assert "tool:other/lam" not in again.seeds


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


def run_pool(specs, *, profiles=None, order_seed=None, priorities=None,
             after=None, jobs=1):
    events = EventLog()
    pool = FleetScheduler(
        jobs=jobs, retries=0, executor=stub_executor, events=events,
        profiles=profiles, order_seed=order_seed,
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
    profiles = ProfileStore()
    profiles.observe(short, 0.2)
    profiles.observe(medium, 2.0)
    profiles.observe(long, 8.0)
    _, events, results = run_pool([short, medium, long], profiles=profiles)
    assert started_jobs(events) == [
        "tool:long/lam", "tool:medium/lam", "tool:short/lam"
    ]
    assert all(a["status"] == "ok" for a in results.values())
    # completed walls are EMA-merged back into the store
    assert profiles.jobs[family_key(short)]["n"] == 2


def test_explicit_priority_beats_predicted_wall():
    urgent, long = spec_for("urgent"), spec_for("long")
    profiles = ProfileStore()
    profiles.observe(urgent, 0.1)
    profiles.observe(long, 30.0)
    _, events, _ = run_pool(
        [long, urgent], profiles=profiles,
        priorities={"urgent": 0, "long": 1},
    )
    assert started_jobs(events) == ["tool:urgent/lam", "tool:long/lam"]


def test_unprofiled_jobs_keep_submission_order():
    specs = [spec_for(p) for p in ("c", "a", "b")]
    _, events, _ = run_pool(specs, profiles=ProfileStore())
    assert started_jobs(events) == ["tool:c/lam", "tool:a/lam", "tool:b/lam"]


def test_dependency_holds_consumer_until_producer_terminal():
    producer, consumer = spec_for("producer"), spec_for("consumer")
    # LPT would launch the consumer first; the dependency must override
    profiles = ProfileStore()
    profiles.observe(producer, 0.1)
    profiles.observe(consumer, 9.0)
    _, events, results = run_pool(
        [producer, consumer], profiles=profiles, jobs=2,
        after={"consumer": (producer.digest,)},
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
    FIFO) and scheduled LPT from a pre-seeded profile store, finish within
    1.15x the LPT lower bound max(longest_job, total/workers)."""
    specs = [RunSpec.make(f"pack{i:02d}", params={"wall": wall})
             for i, wall in enumerate(PACKING_WALLS)]
    profiles = ProfileStore()
    for spec, wall in zip(specs, PACKING_WALLS):
        profiles.observe(spec, wall)
    pool = FleetScheduler(jobs=4, retries=0, executor=sleep_executor,
                          profiles=profiles, events=EventLog())
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
