"""Smoke tests for the benchmark suite.

``pyproject.toml`` lists ``bench_*.py`` in ``python_files``, but ``testpaths``
only covers ``tests/``, so the benchmarks in ``benchmarks/`` are never
collected by the tier-1 run -- an import error or API drift there would go
unnoticed until someone regenerated the tables.  These tests import every
bench module and run one cheap bench per table through a stand-in for the
pytest-benchmark fixture (``common.once`` only ever calls ``pedantic``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCH_DIR) not in sys.path:  # same trick as benchmarks/conftest.py
    sys.path.insert(0, str(BENCH_DIR))

BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))


class StubBenchmark:
    """Duck-type of the pytest-benchmark fixture as ``common.once`` uses it."""

    def __init__(self):
        self.calls = 0

    def pedantic(self, fn, rounds=1, iterations=1):
        self.calls += 1
        return fn()


def test_bench_modules_exist_and_import():
    assert BENCH_MODULES, "benchmarks/ lost its bench_*.py files"
    for name in BENCH_MODULES:
        module = __import__(name)
        bench_fns = [n for n in dir(module) if n.startswith("test_")]
        assert bench_fns, f"{name} defines no benchmark entry point"


def test_common_once_uses_pedantic_once():
    import common

    stub = StubBenchmark()
    assert common.once(stub, lambda: 41 + 1) == 42
    assert stub.calls == 1


def test_table1_bench_runs_end_to_end(tmp_path, monkeypatch):
    """Table 1 regenerates from the metric registry in well under a second."""
    import bench_table1_rma_metrics as b1
    import common

    monkeypatch.setattr(common, "REPORTS_DIR", tmp_path)
    b1.test_table1_rma_metric_definitions(StubBenchmark())
    report = tmp_path / "table1_rma_metrics.txt"
    assert report.exists()
    assert "rma_sync_wait" in report.read_text()


def test_table2_bench_machinery_one_cheap_row():
    """One Table 2 verdict (system_time, ~50 ms) through the bench module."""
    import bench_table2_pperfmark_mpi1 as b2
    from repro.analysis import verify_program

    verdict = verify_program("system_time", "lam")
    assert verdict.passed
    table = b2.render_table2([verdict])
    assert verdict.program in table and "match" in table


def test_table3_bench_machinery_one_cheap_row():
    """One Table 3 verdict (allcount, ~60 ms) through the bench module."""
    import bench_table3_pperfmark_mpi2 as b3

    verdict = b3.verify_program("allcount", "lam")
    assert verdict.passed
    assert "allcount" in b3.render_table3([verdict])


#: what each perf bench's scenario run returns, cut down to what its
#: entry point renders and asserts on
STUB_RUNS = {
    "bench_kernel_throughput": ("test_kernel_throughput", "run_scenarios", {
        "calibration_events_per_sec": 1,
        "scenarios": {"timer_churn": {
            "after": {"events": 1, "events_per_sec": 1},
            "before": {"events_per_sec": 1},
            "speedup": 1.0, "normalized": 1.0,
        }},
    }),
    "bench_scale_ranks": ("test_scale_ranks", "run_sweep", {
        "impl": "lam", "seed": 0,
        "shapes": {"barrier": {
            "cells": [{"ranks": 1024, "events": 1, "events_per_sec": 1,
                       "normalized": 1.0, "digest": "0" * 64}],
            "wall_ratio": 1.0, "rank_ratio": 1.0,
        }},
    }),
}


@pytest.mark.parametrize("module_name", sorted(STUB_RUNS))
def test_perf_bench_entry_points_leave_bench_kernel_json_alone(
        module_name, tmp_path, monkeypatch):
    """Only a perf bench's command line (``--out``) writes
    ``BENCH_kernel.json``; its entry point, which a fleet sweep renders,
    writes nothing but its captured report."""
    import pathlib

    import common

    module = __import__(module_name)
    entry, scenario_run, summary = STUB_RUNS[module_name]
    out = tmp_path / "BENCH_kernel.json"
    monkeypatch.setattr(common, "REPORTS_DIR", tmp_path / "reports")
    monkeypatch.setattr(module, "BENCH_OUT", out)
    monkeypatch.setattr(module, scenario_run, lambda *args, **kwargs: summary)
    # any write outside tmp_path (the committed file included) fails here
    # instead of landing
    write_text = pathlib.Path.write_text

    def guarded(path, *args, **kwargs):
        assert tmp_path in path.parents, f"{entry} wrote {path}"
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "write_text", guarded)
    getattr(module, entry)(StubBenchmark())
    assert not out.exists()
    assert [p.name for p in (tmp_path / "reports").iterdir()] == [
        f"{module_name.removeprefix('bench_')}.txt"
    ]
