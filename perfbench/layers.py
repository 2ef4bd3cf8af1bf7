"""The layer ledger: which layer owns each module, and where traced time went.

Every module under ``src/repro`` belongs to exactly one layer of
``MODULE_LAYERS``.  An entry ending in ``.*`` owns a package and everything
below it; any other entry owns exactly that module (a package entry without
``.*`` owns only its ``__init__``).  Code outside ``src/repro`` -- the
standard library, numpy, this benchmark -- is charged to ``other``.

The traced run installs :mod:`cProfile` around the workload's items.  Each
profiled function's self time goes to the layer that owns its module; a
built-in (C) function has no module, so its self time goes to the layer of
the Python function that called it, split the way the profiler split it
between callers.  Call counts of the public entry points in ``COUNTED``
come from the same profile.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Iterable, Optional

#: ledger rows, in print order
LAYERS = (
    "sim.kernel",
    "sim.process",
    "dyninst",
    "mpi",
    "core.daemon",
    "core.consultant",
    "core.metrics",
    "sanitizer",
    "pperfmark",
    "fleet.scheduler",
    "fleet",
    "other",
)

#: layer -> module entries it owns (``pkg.*`` = the package and below)
MODULE_LAYERS: dict[str, tuple[str, ...]] = {
    # the DES kernel and the simulated machine it runs on
    "sim.kernel": ("repro.sim.kernel", "repro.sim.node", "repro.sim.network", "repro.sim.rng"),
    # the simulated call boundary (frames, trace hooks, snippet dispatch)
    "sim.process": ("repro.sim.process",),
    "dyninst": ("repro.dyninst.*",),
    "mpi": ("repro.mpi.*", "repro.launch.*"),
    "core.daemon": (
        "repro.core.daemon",
        "repro.core.histogram",
        "repro.core.costmodel",
        "repro.core.spawnsupport",
    ),
    "core.consultant": ("repro.core.consultant", "repro.core.pcl"),
    "core.metrics": (
        "repro.core.metrics",
        "repro.core.mdl.*",
        "repro.core.frontend",
        "repro.core.resources",
        "repro.core.tool",
        "repro.core.visualization",
    ),
    "sanitizer": ("repro.sanitizer.*",),
    "pperfmark": ("repro.pperfmark.*",),
    "fleet.scheduler": (
        "repro.fleet.scheduler",
        "repro.fleet.sweeps",
        "repro.fleet.events",
        "repro.fleet.profiles",
    ),
    "fleet": (
        "repro.fleet",
        "repro.fleet.cache",
        "repro.fleet.cli",
        "repro.fleet.execute",
        "repro.fleet.render",
        "repro.fleet.spec",
        "repro.fleet.remote.*",
    ),
    "other": (
        "repro",
        "repro.__main__",
        "repro.cli",
        "repro.analysis.*",
        "repro.observe.*",
        "repro.tracetools.*",
        "repro.sim",
        "repro.sim.reference",
        "repro.core",
    ),
}

#: public entry points whose call counts the ledger reports:
#: (path under src/repro, function name) -> metric
COUNTED = {
    ("sim/process.py", "call"): "sim.process.calls",
    ("dyninst/mutator.py", "insert"): "dyninst.inserts",
    ("core/daemon.py", "sample_now"): "core.daemon.samples",
    ("core/frontend.py", "enable"): "core.metrics.enables",
    ("sanitizer/core.py", "_on_trace"): "sanitizer.hook_calls",
}

#: functions whose cumulative time (self plus callees) is reported
CUMULATIVE = {
    ("fleet/cache.py", "get"): "fleet.cache.get_s",
    ("fleet/cache.py", "put"): "fleet.cache.put_s",
}


def owners(module: str) -> list[str]:
    """Every layer with an entry that owns ``module`` (exactly one if the
    table is sound)."""
    found = []
    for layer, entries in MODULE_LAYERS.items():
        for entry in entries:
            if entry.endswith(".*"):
                package = entry[:-2]
                if module == package or module.startswith(package + "."):
                    found.append(layer)
            elif module == entry:
                found.append(layer)
    return found


def module_name(path: Path, src: Path) -> Optional[str]:
    """Dotted module name of a file under ``src`` (``None`` outside it)."""
    try:
        rel = path.relative_to(src)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src: Path) -> Iterable[str]:
    for path in sorted((src / "repro").rglob("*.py")):
        yield module_name(path, src)


class Attribution:
    """Maps profiled code locations to layers, memoised per file."""

    def __init__(self, src: Path) -> None:
        self.src = src.resolve()
        self._pkg = self.src / "repro"
        self._cache: dict[str, tuple[str, Optional[str]]] = {}

    def locate(self, filename: str) -> tuple[str, Optional[str]]:
        """(layer, path relative to src/repro or None) for a code file."""
        hit = self._cache.get(filename)
        if hit is None:
            path = Path(filename)
            module = module_name(path, self.src) if path.is_absolute() else None
            if module is None or not module.startswith("repro"):
                hit = ("other", None)
            else:
                layer = owners(module)
                hit = (layer[0] if len(layer) == 1 else "other",
                       path.relative_to(self._pkg).as_posix())
            self._cache[filename] = hit
        return hit


def ledger(stats: pstats.Stats, src: Path) -> tuple[dict[str, float], dict[str, float]]:
    """Self seconds per layer, and the ``COUNTED``/``CUMULATIVE`` values."""
    where = Attribution(src)
    self_s = dict.fromkeys(LAYERS, 0.0)
    values = dict.fromkeys(list(COUNTED.values()) + list(CUMULATIVE.values()), 0.0)
    for (filename, _line, func), (_cc, nc, tt, ct, callers) in stats.stats.items():
        if filename == "~":
            # a built-in: charge each caller's share to the caller's layer,
            # and what the profiler left unsplit to ``other``
            for (cfile, _cline, _cfunc), caller_stats in callers.items():
                layer = where.locate(cfile)[0] if cfile != "~" else "other"
                self_s[layer] += caller_stats[2]
                tt -= caller_stats[2]
            self_s["other"] += tt
            continue
        layer, rel = where.locate(filename)
        self_s[layer] += tt
        if rel is not None:
            if (rel, func) in COUNTED:
                values[COUNTED[rel, func]] += nc
            if (rel, func) in CUMULATIVE:
                values[CUMULATIVE[rel, func]] += ct
    return self_s, values
