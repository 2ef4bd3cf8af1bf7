"""Declarative run specifications and their content-addressed cache keys.

A :class:`RunSpec` is the fleet's unit of work: a frozen, hashable
description of one deterministic simulation run (program, implementation
personality, process count, metrics, sanitize flag, RNG seed, scaled-down
"quick" parameters).  Two specs with equal fields describe byte-identical
artifacts, so the canonical digest of a spec -- salted with
:func:`code_version`, a hash over every source file under ``src/repro`` --
is the key into the content-addressed result cache.  Any source edit
invalidates every cached artifact: the salt is the same whole-tree hash the
remote coordinator compares in its worker handshake, so no edit can leave a
stale artifact live, at the price of re-running every job after an edit
that could not have changed some of them.

Constructor keyword dictionaries (program parameters, extra ``run_program``
options) are *frozen* into sorted tuples so specs stay hashable, and thawed
back into plain dicts at execution time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Optional

__all__ = [
    "RunSpec",
    "MODES",
    "canonical_json",
    "code_version",
    "freeze",
    "thaw",
]

#: what a spec asks the executor to do.  "tool" runs the program under the
#: Paradyn-style tool with the Performance Consultant; "sanitize" runs it
#: under the correctness sanitizer; "render" runs one bench entry point
#: (``benchmarks/bench_*.py::test_*``) with a stub timer and captures the
#: reports it emits (the spec's ``params`` carry the bench/common source
#: hashes and consumed-artifact digests, so the digest *is* the render
#: key); "chaos" is an always-crashing stub used to exercise failure
#: containment end to end (``fleet sweep --chaos``).
MODES = ("tool", "sanitize", "render", "chaos")

_DICT_TAG = "@dict"


def freeze(value: Any) -> Any:
    """Recursively convert ``value`` into a hashable, order-canonical form."""
    if isinstance(value, Mapping):
        return (_DICT_TAG,) + tuple(
            (str(k), freeze(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"value not representable in a RunSpec: {value!r}")


def thaw(value: Any) -> Any:
    """Invert :func:`freeze` back into plain dicts/lists."""
    if isinstance(value, tuple):
        if value and value[0] == _DICT_TAG:
            return {k: thaw(v) for k, v in value[1:]}
        return [thaw(v) for v in value]
    return value


def canonical_json(obj: Any) -> str:
    """One canonical serialization: sorted keys, no incidental whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


@functools.lru_cache(maxsize=1)
def _tree_hash() -> str:
    root = Path(__file__).resolve().parents[1]  # .../src/repro
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def code_version() -> str:
    """Hash of every ``.py`` file under ``src/repro``: the salt of every
    spec digest and the version a remote worker's handshake must match.

    ``REPRO_CODE_VERSION`` overrides it (tests pin it to get stable
    digests); it is read on every call, and only the tree walk is cached
    for the process lifetime.
    """
    return os.environ.get("REPRO_CODE_VERSION") or _tree_hash()


@dataclass(frozen=True)
class RunSpec:
    """One deterministic run, declaratively.  Build via :meth:`make`."""

    program: str
    mode: str = "tool"
    impl: str = "lam"
    nprocs: Optional[int] = None
    seed: int = 0
    #: metric names enabled at Whole Program (tool mode)
    metrics: tuple = ()
    #: scaled-down program parameters (sanitize mode: SMALL_PARAMS)
    quick: bool = False
    #: frozen program constructor kwargs (see :func:`freeze`)
    params: tuple = ()
    #: frozen extra ``run_program`` kwargs (pc_window, thresholds, ...)
    options: tuple = ()

    @classmethod
    def make(
        cls,
        program: str,
        *,
        mode: str = "tool",
        impl: str = "lam",
        nprocs: Optional[int] = None,
        seed: int = 0,
        metrics: tuple = (),
        quick: bool = False,
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[Mapping[str, Any]] = None,
    ) -> "RunSpec":
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; have {MODES}")
        return cls(
            program=program,
            mode=mode,
            impl=impl,
            nprocs=None if nprocs is None else int(nprocs),
            seed=int(seed),
            metrics=tuple(str(m) for m in metrics),
            quick=bool(quick),
            params=freeze(params or {}),
            options=freeze(options or {}),
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "mode": self.mode,
            "impl": self.impl,
            "nprocs": self.nprocs,
            "seed": self.seed,
            "metrics": list(self.metrics),
            "quick": self.quick,
            "params": thaw(self.params),
            "options": thaw(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        return cls.make(
            data["program"],
            mode=data.get("mode", "tool"),
            impl=data.get("impl", "lam"),
            nprocs=data.get("nprocs"),
            seed=data.get("seed", 0),
            metrics=tuple(data.get("metrics", ())),
            quick=data.get("quick", False),
            params=data.get("params") or {},
            options=data.get("options") or {},
        )

    def program_params(self) -> dict:
        return thaw(self.params)

    def run_options(self) -> dict:
        return thaw(self.options)

    # -- identity ------------------------------------------------------------

    @functools.cached_property
    def digest(self) -> str:
        """sha256 over the canonical spec dict, salted with
        :func:`code_version`."""
        payload = {"code_version": code_version(), "spec": self.to_dict()}
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable job label for logs and summaries."""
        return f"{self.mode}:{self.program}/{self.impl}"

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return f"<RunSpec {self.label} seed={self.seed} {self.digest[:10]}>"

