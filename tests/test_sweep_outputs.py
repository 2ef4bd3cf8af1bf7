"""Check what real fleet sweeps cached, rendered and summarized.

CI runs the same sweep twice -- with and without ``--live``, and on local
forks and on remote workers -- and checks that the two caches agree
object for object (and, for the remote run, the two report directories
file for file); it also checks the ``BENCH_fleet.json`` a sweep wrote::

    python -m pytest tests/test_sweep_outputs.py --compare-caches LHS RHS
    python -m pytest tests/test_sweep_outputs.py --compare-reports LHS RHS
    python -m pytest tests/test_sweep_outputs.py --sweep-summary PATH
    python -m pytest tests/test_sweep_outputs.py --chaos-summary PATH

Each test skips unless its option is given, so a plain tier-1 run skips
all four.
"""

import json
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
    assert s["schema"] == 5, s["schema"]
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
