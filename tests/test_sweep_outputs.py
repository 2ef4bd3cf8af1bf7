"""Byte-compare what two fleet sweeps cached and rendered.

CI runs the same sweep twice -- with and without ``--live``, and on local
forks and on remote workers -- and checks that the two caches agree
object for object (and, for the remote run, the two report directories
file for file)::

    python -m pytest tests/test_sweep_outputs.py --compare-caches LHS RHS
    python -m pytest tests/test_sweep_outputs.py --compare-reports LHS RHS

Each test skips unless its option names the two directories, so a plain
tier-1 run skips both.
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
