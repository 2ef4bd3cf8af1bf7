"""The cache salt: every spec digest is salted with the whole-tree hash.

An edit anywhere under ``src/repro`` must move :func:`code_version` and with
it the digest of every spec, whatever its mode: a salt that leaves some
source out lets an edit there keep serving artifacts computed by the old
code.  The table below proves it on a copy of the tree, one package at a
time, in one subprocess.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.fleet.spec import MODES, RunSpec, code_version

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"
BENCH_DIR = REPO_ROOT / "benchmarks"

#: one edited file per package (the last module in it), plus one top-level
#: module; keyed by the package's dotted path under ``repro``
EDITS = {
    init.parent.relative_to(SRC_ROOT).as_posix().replace("/", "."):
        sorted(init.parent.glob("*.py"))[-1].relative_to(SRC_ROOT).as_posix()
    for init in sorted(SRC_ROOT.rglob("__init__.py"))
    if init.parent != SRC_ROOT
}
EDITS["top-level"] = "cli.py"

#: runs in the copy: appends a comment to each file in turn (restoring it
#: after), reloads the spec module so nothing cached survives, and prints
#: which keys stayed put.  One spec per mode; the render spec is the one
#: the sweep builds for ``bench_scale_ranks::test_scale_ranks``, whose
#: report prints sanitizer trace digests.
_TABLE_SCRIPT = r"""
import importlib, json, pathlib, sys

import repro.fleet.spec as spec
from repro.fleet.render import _render_spec, _source_hash

root, bench = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
edits = json.loads(sys.argv[3])
sources = {"bench": _source_hash(bench / "bench_scale_ranks.py"),
           "common": _source_hash(bench / "common.py")}


def keys():
    importlib.reload(spec)
    make = spec.RunSpec.make
    return {
        "code_version": spec.code_version(),
        "tool": make("oned", mode="tool", metrics=("sync_wait",)).digest,
        "sanitize": make("oned", mode="sanitize", quick=True).digest,
        "chaos": make("chaos-0", mode="chaos").digest,
        "render": _render_spec("bench_scale_ranks", "test_scale_ranks",
                               sources, ()).digest,
    }


base = keys()
stayed = {}
for name, rel in edits.items():
    path = root / rel
    original = path.read_bytes()
    path.write_bytes(original + b"\n# an edit\n")
    after = keys()
    path.write_bytes(original)
    stayed[name] = sorted(k for k in base if after[k] == base[k])
print(json.dumps(stayed))
"""


@pytest.fixture(scope="module")
def keys_left_in_place(tmp_path_factory):
    """Package -> the keys an edit there left unchanged (should be none)."""
    copy = tmp_path_factory.mktemp("tree") / "repro"
    shutil.copytree(SRC_ROOT, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CODE_VERSION"}
    env["PYTHONPATH"] = str(copy.parent)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", _TABLE_SCRIPT, str(copy), str(BENCH_DIR),
         json.dumps(EDITS)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def test_edit_table_covers_every_package():
    assert {"observe", "sanitizer", "tracetools", "sim", "top-level"} <= set(EDITS)
    assert all((SRC_ROOT / rel).is_file() for rel in EDITS.values())


@pytest.mark.parametrize("package", sorted(EDITS))
def test_source_edit_moves_every_key(package, keys_left_in_place):
    assert keys_left_in_place[package] == [], (
        f"an edit to {EDITS[package]} left these cache keys unchanged, so "
        f"their artifacts would be served stale: {keys_left_in_place[package]}"
    )


def test_env_override_pins_all_modes(monkeypatch):
    """``REPRO_CODE_VERSION`` is read on every call: the salt and every
    mode's digest follow it with no cache to clear."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-xyz")
    assert code_version() == "pinned-xyz"
    first = {mode: RunSpec.make("oned", mode=mode).digest for mode in MODES}
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-abc")
    assert code_version() == "pinned-abc"
    for mode in MODES:
        assert RunSpec.make("oned", mode=mode).digest != first[mode], mode


# ------------------------------------------------------------ render keys


def _render_key(bench_hash: str, common_hash: str, consumes: list) -> str:
    """A render spec's digest, built the way collect_render_plan builds it."""
    return RunSpec.make(
        "bench_x::test_y",
        mode="render",
        impl="bench",
        params={
            "sources": {"bench": bench_hash, "common": common_hash},
            "consumes": list(consumes),
        },
    ).digest


def test_render_key_covers_every_input(monkeypatch):
    """The render key must move when any of its declared inputs moves --
    bench module source, common.py source, or a consumed artifact digest --
    and must be stable when none of them do."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-render-key")
    base = _render_key("b" * 16, "c" * 16, ["d1", "d2"])
    assert _render_key("b" * 16, "c" * 16, ["d1", "d2"]) == base
    assert _render_key("B" * 16, "c" * 16, ["d1", "d2"]) != base
    assert _render_key("b" * 16, "C" * 16, ["d1", "d2"]) != base
    assert _render_key("b" * 16, "c" * 16, ["d1", "dX"]) != base
    assert _render_key("b" * 16, "c" * 16, ["d1"]) != base


def test_render_key_salted_with_render_mode(monkeypatch):
    """Two identical render params under different salts differ: the
    render key carries :func:`code_version` like every mode (so any source
    edit re-renders, per test_source_edit_moves_every_key), and the mode
    itself, so a render spec never shares a digest with a tool spec."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-render-a")
    base = _render_key("b" * 16, "c" * 16, ["d1"])
    assert _render_key("b" * 16, "c" * 16, ["d1"]) == base
    assert RunSpec.make("bench_x::test_y", impl="bench").digest != base
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-render-b")
    assert _render_key("b" * 16, "c" * 16, ["d1"]) != base
