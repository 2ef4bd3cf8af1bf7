"""Self-tests of the benchmark: layer table, spec, isolation, seeds, goldens.

    python3 -m pytest perfbench/tests

The command-level tests run ``perfbench/run.py`` at ``--scale tiny``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER, Tally, run_rounds  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDENS = json.loads((BENCH / "goldens.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done, result


def snapshot(root: Path) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file, bytecode caches aside."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in ("__pycache__", ".git", ".pytest_cache")]
        for name in filenames:
            stat = Path(dirpath, name).stat()
            files[os.path.relpath(Path(dirpath, name), root)] = (stat.st_size, stat.st_mtime_ns)
    return files


# -- module -> layer table ----------------------------------------------------


def test_every_module_belongs_to_exactly_one_layer():
    modules = list(layers.repro_modules(SRC))
    assert len(modules) > 50
    wrong = {m: layers.owners(m) for m in modules if len(layers.owners(m)) != 1}
    assert not wrong, f"unmapped or mapped twice: {wrong}"


def test_every_table_entry_names_a_module():
    modules = set(layers.repro_modules(SRC))
    assert set(layers.MODULE_LAYERS) == set(layers.LAYERS)
    for entries in layers.MODULE_LAYERS.values():
        for entry in entries:
            assert entry.removesuffix(".*") in modules, entry


def test_a_second_entry_for_a_module_is_caught(monkeypatch):
    monkeypatch.setitem(
        layers.MODULE_LAYERS, "mpi", layers.MODULE_LAYERS["mpi"] + ("repro.sim.kernel",)
    )
    assert layers.owners("repro.sim.kernel") == ["sim.kernel", "mpi"]
    assert layers.owners("repro.nowhere") == []


def test_builtins_are_charged_to_their_callers_layer():
    import cProfile
    import pstats

    sys.path.insert(0, str(SRC))
    from repro.sim.rng import RngStreams

    profile = cProfile.Profile()
    profile.enable()
    RngStreams(3).normal("x")
    profile.disable()
    self_s, _ = layers.ledger(pstats.Stats(profile), SRC)
    total = sum(stat[2] for stat in pstats.Stats(profile).stats.values())
    assert self_s["sim.kernel"] > 0
    assert sum(self_s.values()) == pytest.approx(total)


# -- BENCHMARK.json ------------------------------------------------------------


def test_spec_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- seeds and goldens ----------------------------------------------------------


def round_digests(workload: str, seed: int, work: Path) -> tuple[dict, list]:
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[workload]
    cls.import_modules()
    instance = cls(seed, "tiny", work)
    instance.build_inputs()
    tally = Tally({}, check_goldens=False)
    run_rounds(instance, 0, tally)  # one round
    return tally.digests, tally.problems


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_seed_reproduces_its_digests_and_another_passes(workload, tmp_path):
    first, problems = round_digests(workload, DEFAULT_SEED, tmp_path)
    assert not problems
    assert first == GOLDENS["tiny"][workload]
    again, _ = round_digests(workload, DEFAULT_SEED, tmp_path)
    assert again == first
    _, problems = round_digests(workload, 7, tmp_path)
    assert not problems


def copy_of_the_benchmark(tmp_path: Path) -> Path:
    """``tmp_path`` holding a copy of the benchmark and ``src`` linked to the repository's."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def test_a_corrupted_golden_fails_the_command(tmp_path):
    root = copy_of_the_benchmark(tmp_path)
    (root / "src").symlink_to(SRC, target_is_directory=True)
    goldens = json.loads(json.dumps(GOLDENS))
    first = sorted(goldens["tiny"]["sanitize_suite"])[0]
    goldens["tiny"]["sanitize_suite"][first] = "0" * 16
    (root / "perfbench" / "goldens.json").write_text(json.dumps(goldens))
    done, result = bench("--workload", "sanitize_suite", "--scale", "tiny",
                         "--seconds", "0", cwd=root)
    assert done.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert first in done.stdout


# -- whole command --------------------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_a_run_checks_its_items_and_leaves_the_tree_unchanged(workload):
    before = snapshot(ROOT)
    done, result = bench("--workload", workload, "--seed", "0", "--scale", "tiny",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert snapshot(ROOT) == before


@pytest.mark.parametrize("workload, snippets", [("pc_session", True), ("sanitize_suite", False)])
def test_the_traced_run_prints_the_ledger(workload, snippets):
    done, result = bench("--workload", workload, "--seed", "1", "--scale", "tiny",
                         "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    assert (metrics["dyninst.snippets"] > 0) is snippets
    assert metrics["sim.kernel.events"] > 0 and metrics["trace.overhead"] > 1
    assert "# layer ledger" in done.stdout


def test_without_the_repository_sources_it_fails_quietly(tmp_path):
    done, result = bench("--workload", "pc_session", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=copy_of_the_benchmark(tmp_path))
    assert done.returncode != 0
    assert result is None
