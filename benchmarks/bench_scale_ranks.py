"""Rank-count scaling benchmark: thousands of ranks per simulated run.

Five communication shapes -- a barrier storm (pure collective
synchronization), the same barrier built from explicit point-to-point
two ways (``barrier_linear``: everyone reports to rank 0; and
``barrier_tree``: a binary gather/release tree -- the classic flat vs
logarithmic comparison), a fence storm (active-target RMA epochs with
neighbour puts), and an sstwod-style ghost exchange (the ``exchng2``
Sendrecv ring from "Using MPI") -- are swept over rank counts
{64, 256, 1024[, 4096]} under the sanitizer (vector clocks, strict RMA
epochs, the trace digest).  This is the end-to-end workout for the
kernel's per-waiter wakeups (a barrier release queues one zero-lane entry
per rank), the sanitizer's copy-on-write/interned vector clocks, and the
engine's O(1) group lookups: exactly the pieces that make ``ranks`` a
scaling axis instead of a wall.

A fourth shape, ``tool``, scales the *tool* instead of the sanitizer:
the full Paradyn stack with the Performance Consultant searching a
skewed-barrier program at {64, 1024} ranks.  Its digest hashes the
Consultant's search history (every experiment, verdict, and rounded
value) plus the virtual end time, so the whole
instrument-sample-decide-refine loop is pinned byte-for-byte at a
thousand ranks; its ``events`` column counts instrumentation snippets
executed (the tool-side work the cell is timing).

Determinism: every (shape, ranks) cell records a deterministic digest
(sanitizer trace digest, or the Consultant search-history digest for
``tool``) and the final virtual time.  Both are asserted stable across
repeat runs in the same process, and the digests at pre-existing rank
counts double as the byte-identity regression oracle for the sparse
vector-clock refactor (see tests/test_scale_ranks.py).

Outputs:

* ``benchmarks/reports/scale_ranks.txt`` -- rendered scaling table;
* ``BENCH_kernel.json`` (repo root) -- a ``scale_ranks`` key *merged*
  into the kernel perf trajectory (the kernel-throughput bench owns the
  ``scenarios`` key; each bench preserves the other's); only the command
  line (``--out``) writes it, so a fleet render of this bench leaves it
  alone;
* ``python benchmarks/bench_scale_ranks.py --check <baseline>`` -- the
  CI perf-smoke gate: calibration-normalized events/sec per cell vs the
  checked-in baseline, >30% drops fail (same contract as
  bench_kernel_throughput).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import time

if __name__ == "__main__":  # script mode: make src/repro importable
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from common import emit, once

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_OUT = REPO_ROOT / "BENCH_kernel.json"
BASELINE = pathlib.Path(__file__).resolve().parent / "baselines" / "scale_ranks_baseline.json"
REGRESSION_TOLERANCE = 0.30  # CI fails below baseline * (1 - this)

#: the sweep's rank axis; 4096 rides behind --full (several minutes of
#: simulated cluster, out of the CI budget)
DEFAULT_RANKS = (64, 256, 1024)
FULL_RANKS = (64, 256, 1024, 4096)
#: the tool shape's own axis: a full Consultant run costs ~10s of wall at
#: 1024 ranks, so it skips the intermediate counts
TOOL_RANKS = (64, 1024)
#: refmpi: the internal-RPI personality (no visible collective p2p), the
#: cheapest launch cost model -- the personality built for scale runs
IMPL = "refmpi"
SEED = 0


# -- shapes ------------------------------------------------------------------
# Each is an MpiProgram whose communication volume is O(ranks) per round,
# so ideal wall-clock scaling is linear in the rank count.


def _programs():
    from repro.mpi.world import MpiProgram

    class BarrierStorm(MpiProgram):
        """Back-to-back MPI_Barrier rounds with a tiny deterministic
        per-rank compute skew (so arrivals are staggered, not degenerate)."""

        name = "scale_barrier"
        module = "scale_barrier.c"

        def __init__(self, rounds: int = 8) -> None:
            self.rounds = rounds

        def main(self, mpi):
            yield from mpi.init()
            for r in range(self.rounds):
                skew = ((mpi.rank * 31 + r * 17) % 64) * 1e-7
                yield from mpi.compute(1e-6 + skew)
                yield from mpi.barrier()
            yield from mpi.finalize()

    class FenceStorm(MpiProgram):
        """Active-target RMA epochs: every rank puts one element to its
        right neighbour inside each fence epoch."""

        name = "scale_fence"
        module = "scale_fence.c"

        def __init__(self, epochs: int = 6) -> None:
            self.epochs = epochs

        def main(self, mpi):
            import numpy as np

            from repro.mpi.datatypes import INT

            yield from mpi.init()
            win = yield from mpi.win_create(4, datatype=INT)
            data = np.full(1, mpi.rank, dtype="i4")
            yield from mpi.win_fence(win)
            for e in range(self.epochs):
                skew = ((mpi.rank * 13 + e * 7) % 32) * 1e-7
                yield from mpi.compute(1e-6 + skew)
                target = (mpi.rank + 1) % mpi.size
                yield from mpi.put(win, target, data)
                yield from mpi.win_fence(win)
            yield from mpi.win_free(win)
            yield from mpi.finalize()

    class GhostExchange(MpiProgram):
        """sstwod-shaped ghost-cell exchange: each iteration every rank
        Sendrecvs with its left and right ring neighbours (the exchng2
        pattern), then a barrier stands in for the residual Allreduce."""

        name = "scale_sstwod"
        module = "scale_sstwod.c"

        def __init__(self, iterations: int = 4, row_bytes: int = 256) -> None:
            self.iterations = iterations
            self.row_bytes = row_bytes

        def main(self, mpi):
            yield from mpi.init()
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            for i in range(self.iterations):
                skew = ((mpi.rank * 7 + i * 3) % 16) * 1e-7
                yield from mpi.compute(2e-6 + skew)
                yield from mpi.sendrecv(
                    right, left, send_nbytes=self.row_bytes,
                    recv_nbytes=self.row_bytes, sendtag=21,
                )
                yield from mpi.sendrecv(
                    left, right, send_nbytes=self.row_bytes,
                    recv_nbytes=self.row_bytes, sendtag=22,
                )
                yield from mpi.barrier()
            yield from mpi.finalize()

    class LinearBarrier(MpiProgram):
        """A user-level barrier built from explicit point-to-point: every
        rank reports to rank 0, which then releases everyone -- O(ranks)
        messages serialized through the root.  The flat half of the
        tree-vs-linear comparison."""

        name = "scale_barrier_linear"
        module = "scale_barrier_linear.c"

        def __init__(self, rounds: int = 3) -> None:
            self.rounds = rounds

        def main(self, mpi):
            yield from mpi.init()
            for r in range(self.rounds):
                skew = ((mpi.rank * 29 + r * 11) % 64) * 1e-7
                yield from mpi.compute(1e-6 + skew)
                if mpi.rank == 0:
                    for src in range(1, mpi.size):
                        yield from mpi.recv(source=src, tag=31)
                    for dst in range(1, mpi.size):
                        yield from mpi.send(dst, nbytes=4, tag=32)
                else:
                    yield from mpi.send(0, nbytes=4, tag=31)
                    yield from mpi.recv(source=0, tag=32)
            yield from mpi.finalize()

    class TreeBarrier(MpiProgram):
        """The same user-level barrier over a binary tree: gather up
        (children -> parent), release down -- O(log ranks) rounds of
        concurrent messages instead of a root-serialized scan."""

        name = "scale_barrier_tree"
        module = "scale_barrier_tree.c"

        def __init__(self, rounds: int = 3) -> None:
            self.rounds = rounds

        def main(self, mpi):
            yield from mpi.init()
            rank, size = mpi.rank, mpi.size
            parent = (rank - 1) // 2
            children = [c for c in (2 * rank + 1, 2 * rank + 2) if c < size]
            for r in range(self.rounds):
                skew = ((rank * 23 + r * 13) % 64) * 1e-7
                yield from mpi.compute(1e-6 + skew)
                for child in children:
                    yield from mpi.recv(source=child, tag=41)
                if rank > 0:
                    yield from mpi.send(parent, nbytes=4, tag=41)
                    yield from mpi.recv(source=parent, tag=42)
                for child in children:
                    yield from mpi.send(child, nbytes=4, tag=42)
            yield from mpi.finalize()

    return {
        "barrier": BarrierStorm,
        "barrier_linear": LinearBarrier,
        "barrier_tree": TreeBarrier,
        "fence": FenceStorm,
        "sstwod": GhostExchange,
    }


def _tool_program():
    from repro.mpi.world import MpiProgram

    class ToolBarrier(MpiProgram):
        """The tool shape's workload: a barrier loop where rank 0 computes
        ~6x longer than everyone else, so the Performance Consultant has an
        unambiguous sync bottleneck to find at any rank count."""

        name = "tool_barrier"
        module = "tool_barrier.c"
        default_nprocs = 64
        procs_per_node = 2

        def __init__(self, rounds: int = 6) -> None:
            self.rounds = rounds

        def main(self, mpi):
            yield from mpi.init()
            for r in range(self.rounds):
                if mpi.rank == 0:
                    work = 0.30
                else:
                    work = 0.05 + ((mpi.rank * 31 + r * 17) % 64) * 1e-4
                yield from mpi.compute(work)
                yield from mpi.barrier()
            yield from mpi.finalize()

    return ToolBarrier


# -- harness -----------------------------------------------------------------


def run_tool_cell(ranks: int) -> dict:
    """One tool-mode cell: the full Paradyn stack (daemons, snippets,
    Performance Consultant) over the skewed-barrier program.

    The digest hashes the Consultant's complete search history -- every
    experiment's description, verdict, and rounded value -- plus the
    outcome counts and the virtual end time: the deterministic record of
    what the tool *concluded*.  ``events`` counts instrumentation
    snippets executed across all ranks (the tool-side work driving the
    throughput gate; the kernel keeps no event counter of its own).
    """
    import hashlib

    from repro.analysis.runner import run_program

    t0 = time.perf_counter()
    result = run_program(
        _tool_program()(), impl=IMPL, nprocs=ranks, consultant=True, seed=SEED
    )
    wall = time.perf_counter() - t0
    pc = result.consultant
    if not pc.found("ExcessiveSyncWaitingTime"):
        raise AssertionError(
            f"tool@{ranks}: the Consultant missed the barrier bottleneck:\n"
            + pc.render_search_history()
        )
    observables = {
        "elapsed": round(result.elapsed, 9),
        "history": [
            {
                "node": node.describe(),
                "state": node.state.name,
                "value": round(node.value, 6) if node.value is not None else None,
            }
            for node in pc.search_history()
        ],
        "summary": pc.summary(),
    }
    snippets = sum(ep.proc.snippets_executed for ep in result.world.endpoints)
    digest = hashlib.sha256(
        json.dumps(observables, sort_keys=True).encode()
    ).hexdigest()
    return {
        "ranks": ranks,
        "wall": round(wall, 6),
        "virtual_time": observables["elapsed"],
        "digest": digest,
        "events": snippets,
        "events_per_sec": round(snippets / wall) if wall > 0 else 0,
        "experiments": observables["summary"]["total"],
    }


def run_cell(shape: str, ranks: int) -> dict:
    """One (shape, ranks) cell: a sanitized run; returns the observables."""
    from repro.sanitizer.run import sanitize_program

    if shape == "tool":
        return run_tool_cell(ranks)
    program = _programs()[shape]()
    t0 = time.perf_counter()
    report = sanitize_program(program, impl=IMPL, nprocs=ranks, seed=SEED)
    wall = time.perf_counter() - t0
    if report.status != "clean":
        raise AssertionError(
            f"{shape}@{ranks}: expected a clean run, got {report.status}: "
            f"{[f.detail for f in report.findings][:3]}"
        )
    return {
        "ranks": ranks,
        "wall": round(wall, 6),
        "virtual_time": round(report.elapsed, 9),
        "digest": report.trace_digest,
        "events": report.events,
        "events_per_sec": round(report.events / wall) if wall > 0 else 0,
    }


def run_sweep(rank_counts=DEFAULT_RANKS) -> dict:
    from repro.observe.recorder import suspended

    with suspended():
        return _run_sweep_untraced(rank_counts)


def _run_sweep_untraced(rank_counts) -> dict:
    # each cell is normalized by a host-speed sample taken right before it,
    # the same yardstick bench_kernel_throughput uses
    from bench_kernel_throughput import calibrate

    # the tool shape keeps its own (shorter) axis; a --ranks override
    # still reaches it via the smallest requested count
    tool_ranks = tuple(r for r in rank_counts if r in TOOL_RANKS) or (
        min(rank_counts),
    )
    summary: dict = {
        "schema": 1,
        "impl": IMPL,
        "seed": SEED,
        "ranks": list(rank_counts),
        "tool_ranks": list(tool_ranks),
        "shapes": {},
    }
    axes = {shape: rank_counts for shape in _programs()}
    axes["tool"] = tool_ranks
    samples = []
    for shape, axis in axes.items():
        cells = []
        for ranks in axis:
            calibration = calibrate()
            cell = run_cell(shape, ranks)
            cell["calibration_events_per_sec"] = calibration
            cell["normalized"] = (
                round(cell["events_per_sec"] / calibration, 4) if calibration else None
            )
            samples.append(calibration)
            cells.append(cell)
        base = cells[0]
        entry = {"cells": cells}
        top = cells[-1]
        entry["wall_ratio"] = (
            round(top["wall"] / base["wall"], 3) if base["wall"] > 0 else None
        )
        entry["rank_ratio"] = round(top["ranks"] / base["ranks"], 3)
        summary["shapes"][shape] = entry
    summary["calibration_events_per_sec"] = round(statistics.median(samples))
    return summary


def render(summary: dict) -> str:
    lines = [
        f"Rank-count scaling sweep ({summary['impl']}, seed {summary['seed']}; "
        "sanitizer attached, `tool` shape runs the full Consultant)",
        "",
        f"{'shape':<10} {'ranks':>6} {'events':>10} {'ev/s':>10} "
        f"{'normalized':>11}  digest",
    ]
    for shape, entry in summary["shapes"].items():
        for cell in entry["cells"]:
            lines.append(
                f"{shape:<10} {cell['ranks']:>6} {cell['events']:>10} "
                f"{cell['events_per_sec']:>10} {cell['normalized'] or 0:>11.4f}  "
                f"{cell['digest'][:12]}"
            )
        lines.append(
            f"{'':<10} wall x{entry['wall_ratio']} over ranks "
            f"x{entry['rank_ratio']:g}"
        )
    lines.append("")
    lines.append(
        "digests and virtual times are deterministic observables; walls are "
        "measured on this host"
    )
    return "\n".join(lines)


def merge_bench_json(summary: dict, path: pathlib.Path = BENCH_OUT) -> None:
    """Merge the ``scale_ranks`` key into BENCH_kernel.json, preserving the
    kernel-throughput bench's keys (and vice versa over there)."""
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = {}
    existing["scale_ranks"] = summary
    path.write_text(json.dumps(existing, indent=2) + "\n")


def check_against_baseline(summary: dict, baseline: dict) -> list[str]:
    """Regression messages (empty = pass): calibration-normalized
    events/sec per (shape, ranks) cell, 30% tolerance."""
    problems = []
    for shape, base_entry in baseline.get("shapes", {}).items():
        entry = summary["shapes"].get(shape)
        if entry is None:
            problems.append(f"{shape}: shape disappeared from the sweep")
            continue
        cells = {c["ranks"]: c for c in entry["cells"]}
        for base_cell in base_entry["cells"]:
            ranks = base_cell["ranks"]
            cell = cells.get(ranks)
            base_norm = base_cell.get("normalized")
            if cell is None or base_norm is None or cell["normalized"] is None:
                continue
            floor = base_norm * (1.0 - REGRESSION_TOLERANCE)
            if cell["normalized"] < floor:
                problems.append(
                    f"{shape}@{ranks}: normalized throughput "
                    f"{cell['normalized']:.4f} fell >{REGRESSION_TOLERANCE:.0%} "
                    f"below baseline {base_norm:.4f} (floor {floor:.4f})"
                )
    return problems


# -- bench entry point (tier-1 smoke, fleet render, pytest benchmarks/) ------


def test_scale_ranks(benchmark):
    summary = once(benchmark, run_sweep)
    emit("scale_ranks", render(summary))
    for shape, entry in summary["shapes"].items():
        assert entry["cells"][-1]["ranks"] >= 1024, (shape, entry["cells"])


# -- CI / command line -------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=BENCH_OUT,
                        help="BENCH json to merge the scale_ranks key into")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline JSON to gate against (CI perf-smoke)")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"refresh {BASELINE} from this run")
    parser.add_argument("--full", action="store_true",
                        help=f"sweep the full rank axis {FULL_RANKS}")
    parser.add_argument("--ranks", type=int, nargs="+", default=None,
                        help="override the rank axis (e.g. --ranks 16 64)")
    args = parser.parse_args(argv)

    rank_counts = args.ranks or (FULL_RANKS if args.full else DEFAULT_RANKS)
    summary = run_sweep(rank_counts)
    print(render(summary))
    merge_bench_json(summary, args.out)
    print(f"[merged scale_ranks into {args.out}]")

    if args.write_baseline:
        BASELINE.parent.mkdir(parents=True, exist_ok=True)
        BASELINE.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"[baseline refreshed at {BASELINE}]")

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        problems = check_against_baseline(summary, baseline)
        if problems:
            print("PERF REGRESSION:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"perf-smoke OK (within {REGRESSION_TOLERANCE:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
