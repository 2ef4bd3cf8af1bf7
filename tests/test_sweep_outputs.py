"""Check what real fleet sweeps cached, rendered and summarized.

CI runs the same sweep twice -- with and without ``--live``, and on local
forks and on remote workers -- and checks that the two caches agree
object for object (and, for the remote run, the two report directories
file for file); it also checks the ``BENCH_fleet.json`` a sweep wrote,
what a live client saw of it, and a warm re-sweep::

    python -m pytest tests/test_sweep_outputs.py --compare-caches LHS RHS
    python -m pytest tests/test_sweep_outputs.py --compare-reports LHS RHS
    python -m pytest tests/test_sweep_outputs.py --sweep-summary PATH
    python -m pytest tests/test_sweep_outputs.py --chaos-summary PATH
    python -m pytest tests/test_sweep_outputs.py --live-replay LIVE CPATH SUMMARY
    python -m pytest tests/test_sweep_outputs.py --resweep-summary PATH

Each test skips unless its option is given, so a plain tier-1 run skips
all six.
"""

import json
import os
import pathlib

import pytest

#: the benches that *measure* real wall-clock events/sec: deterministic
#: within a run, not across two separate executions
EXEMPT = ("bench_kernel_throughput", "bench_scale_ranks")


def _pair(request, option: str) -> list[pathlib.Path]:
    pair = request.config.getoption(option)
    if pair is None:
        pytest.skip(f"needs {option} LHS RHS")
    return [pathlib.Path(p) for p in pair]


def test_cache_objects_byte_identical(request):
    roots = _pair(request, "--compare-caches")
    local, remote = (root / "objects" for root in roots)
    checked = 0
    lhs = {p.name: p for p in local.glob("*/*.json")}
    rhs = {p.name: p for p in remote.glob("*/*.json")}
    assert lhs.keys() == rhs.keys(), lhs.keys() ^ rhs.keys()
    for name, lp in lhs.items():
        lb, rb = lp.read_bytes(), rhs[name].read_bytes()
        if any(e in json.loads(lb)["spec"]["program"] for e in EXEMPT):
            continue
        assert lb == rb, f"objects differ: {name}"
        checked += 1
    assert checked > 10, checked
    print(f"{checked} object(s) byte-identical (+exempt wall-clock benches)")


def test_reports_byte_identical(request):
    local, reports = _pair(request, "--compare-reports")
    for lp in local.glob("*.txt"):
        if any(e.removeprefix("bench_") in lp.name for e in EXEMPT):
            continue
        assert (reports / lp.name).read_bytes() == lp.read_bytes(), (
            f"report differs: {lp.name}")
    print("reports byte-identical")


def _summary(request, option: str) -> dict:
    path = request.config.getoption(option)
    if path is None:
        pytest.skip(f"needs {option} PATH")
    return json.loads(pathlib.Path(path).read_text())


def test_sweep_schedule_pipelined(request):
    """The sweep pipelines: its first render started before the warm
    frontier closed, and the makespan respects the LPT lower bound."""
    s = _summary(request, "--sweep-summary")
    assert s["schema"] == 6, s["schema"]
    sched = s["scheduling"]
    lead = sched["render_admission"]["lead"]
    assert lead is not None and lead > 0, sched["render_admission"]
    packing = sched["packing"]
    assert packing["makespan"] >= packing["lower_bound"] > 0, packing
    print(f"pipelined sweep: render admission lead {lead}s, "
          f"packing {packing['efficiency']:.0%} of the LPT bound")


def test_remote_chaos_drill(request):
    """``--chaos 1`` over ``--workers`` SIGKILLed a live worker mid-lease,
    its lease was stolen, and no job was lost."""
    s = _summary(request, "--chaos-summary")
    # the injected chaos spec fails by design; nothing else may
    real = [j for j in s["per_job"] if j["status"] == "failed"
            and not j["job"].startswith("chaos:")]
    assert not real, real
    r = s["remote"]
    assert r["chaos_kills"] == 1, r["chaos_kills"]
    assert r["steals"] >= 1, r["steals"]
    assert r["worker_losses"] >= 1, r["worker_losses"]
    jobs = {w: row["jobs"] for w, row in r["workers"].items()}
    assert sum(jobs.values()) > 0, jobs
    print("chaos drill ok:", {k: r[k] for k in
          ("chaos_kills", "steals", "worker_losses")}, jobs)


def test_live_replay_matches_sweep(request):
    """A client attached to a ``--live`` sweep saw >= 1 job event from
    every slot of the pool width the sweep was entitled to (its ``jobs``
    clamped to this host's usable CPUs, as the fork pool clamps it), its
    raw replay is byte-identical to the post-hoc ``trace.jsonl``, and its
    last ``/critical-path`` matches the analysis the sweep wrote."""
    paths = request.config.getoption("--live-replay")
    if paths is None:
        pytest.skip("needs --live-replay LIVE CPATH SUMMARY")
    live_path, cpath_path, summary_path = (pathlib.Path(p) for p in paths)
    s = json.loads(summary_path.read_text())
    live = live_path.read_text()
    post = pathlib.Path(s["trace"]["jsonl"]).read_text()
    assert live == post, (len(live), len(post))
    events = [json.loads(line) for line in live.splitlines()]
    slots = {e["args"]["slot"] for e in events
             if e.get("name", "").startswith("job:")
             and "slot" in e.get("args", {})}
    width = min(s["jobs"], len(os.sched_getaffinity(0)))
    assert width > 1 and slots == set(range(width)), (slots, width)
    assert s["workers"] == width, (s["workers"], width)
    cpath = json.loads(cpath_path.read_text())
    fleet = s["critical_path"]
    for key in ("workers", "executed", "cached", "bounding_phase"):
        assert cpath[key] == fleet[key], (key, cpath[key], fleet[key])
    print(f"live replay: {len(events)} event(s) byte-identical to "
          f"trace.jsonl; worker slots {sorted(slots)}; critical path "
          f"converged on {cpath['bounding_phase']}")


def test_resweep_is_a_cache_hit(request):
    """Every bench's render key was unchanged, so the re-sweep's render
    phase was a pure cache restore: all benches skipped, none failed,
    render wall under 5 seconds."""
    s = _summary(request, "--resweep-summary")
    r, wall = s["render"], s["wall"]["render"]
    assert r["skipped"] == r["benches"] > 0, (r["skipped"], r["benches"])
    assert r["rendered"] == 0 and r["failed"] == 0, r
    assert wall < 5.0, f"warm render took {wall:.1f}s"
    benches = {row["bench"] for row in r["per_bench"]}
    for required in ("bench_spawn_workload", "bench_scale_ranks"):
        found = [b for b in benches if required in b]
        assert found, f"{required} missing from render plan: {sorted(benches)}"
        assert all(
            row["cached"] for row in r["per_bench"]
            if required in row["bench"]
        ), f"{required} was not restored from the warm cache"
    print(f"render: {r['skipped']}/{r['benches']} skipped in {wall:.2f}s")
