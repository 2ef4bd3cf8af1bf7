"""The program catalog: names -> instances, plus scaled-down parameters.

This lives in :mod:`repro.pperfmark` (not the sanitizer) on purpose: program
resolution is used by *every* execution mode -- tool runs, sanitizer runs,
fleet sweeps -- and keeping it beside the registries it reads means none of
those paths needs to import the sanitizer package.
"""

from __future__ import annotations

from typing import Any

from .base import REGISTRY, create

__all__ = ["CLEAN_PROGRAMS", "SMALL_PARAMS", "resolve_program"]

#: the paper's 16 clean PPerfMark programs (8 MPI-1 + 7 MPI-2 + oned)
#: plus the nengo-mpi-style data-parallel spawn workload -- 17 in all
CLEAN_PROGRAMS = (
    "small_messages",
    "big_message",
    "wrong_way",
    "intensive_server",
    "random_barrier",
    "diffuse_procedure",
    "system_time",
    "hot_procedure",
    "allcount",
    "wincreateblast",
    "winfencesync",
    "winscpwsync",
    "spawncount",
    "spawnsync",
    "spawnwinsync",
    "spawn_workload",
    "oned",
)

#: scaled-down constructor parameters for quick sweeps (CI, tests): same
#: code paths and communication structure, far fewer iterations.
SMALL_PARAMS: dict[str, dict[str, Any]] = {
    "small_messages": {"iterations": 300},
    "big_message": {"iterations": 8},
    "wrong_way": {"iterations": 30, "batch": 10},
    "intensive_server": {"iterations": 40, "time_to_waste": 0.05},
    "random_barrier": {"iterations": 12, "time_to_waste": 0.2},
    "diffuse_procedure": {"iterations": 40},
    "system_time": {"iterations": 60, "barrier_every": 20},
    "hot_procedure": {"iterations": 60},
    "allcount": {"epochs": 10},
    "wincreateblast": {"num_windows": 10},
    "winfencesync": {"iterations": 30, "waste_seconds": 1e-3},
    "winscpwsync": {"iterations": 30, "waste_seconds": 1e-3},
    "spawncount": {"spawns": 2, "children_per_spawn": 2},
    "spawnsync": {"children": 2, "messages": 30, "waste_seconds": 1e-3},
    "spawnwinsync": {"children": 2, "iterations": 30, "waste_seconds": 1e-3},
    "spawn_workload": {
        "workers": 2,
        "chunks": 4,
        "chunk_elems": 8,
        "steps": 2,
        "work_seconds": 1e-4,
    },
    "oned": {"iterations": 12, "local_rows": 8, "row_width": 64},
}


def resolve_program(name: str, *, quick: bool = False):
    """A program instance from the PPerfMark or defect registries."""
    from .defects import DEFECT_REGISTRY

    if name in REGISTRY:
        params = SMALL_PARAMS.get(name, {}) if quick else {}
        return create(name, **params)
    if name in DEFECT_REGISTRY:
        return DEFECT_REGISTRY[name]()
    known = sorted(set(REGISTRY) | set(DEFECT_REGISTRY))
    raise KeyError(f"unknown program {name!r}; known: {known}")
