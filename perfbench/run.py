"""Benchmark command: one workload, timed, checked, optionally traced.

    python3 perfbench/run.py --workload pc_session --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's items back to back until ``--seconds``
have passed (finishing the round in flight), checks every item's output, and
prints the metrics; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the command first times untraced rounds for a quarter of the time, then
runs the rest under :mod:`cProfile` and reports the per-layer ledger.

Set-up time is measured in fresh interpreters: after the timed phase the
command starts itself ``SETUP_PROBES`` times with ``--setup-probe``, which
imports the workload's modules, builds its inputs and reports when it is
ready.  Each run works in its own scratch directory under
``perfbench/.work`` (also its current directory and ``TMPDIR``), removed
at exit, so no run touches ``.repro-cache/``, ``BENCH_*.json`` or
``benchmarks/reports/``.  The command exits 1 when an output check fails
and 2 when the repository's ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
SETUP_PROBES = 3

sys.path.insert(0, str(ROOT))
from perfbench import layers  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, SCALES, WORKLOADS, watch_universes  # noqa: E402

#: end-to-end metrics: name -> unit
END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> unit
PER_LAYER = {
    "sim.kernel.self_s": "s", "sim.kernel.events": "count", "sim.kernel.ns_per_event": "ns/event",
    "sim.process.self_s": "s", "sim.process.calls": "count", "sim.process.ns_per_call": "ns/call",
    "dyninst.self_s": "s", "dyninst.snippets": "count", "dyninst.ns_per_snippet": "ns/snippet",
    "dyninst.inserts": "count",
    "mpi.self_s": "s", "mpi.matches": "count", "mpi.us_per_match": "us/match",
    "core.daemon.self_s": "s", "core.daemon.samples": "count",
    "core.consultant.self_s": "s", "core.consultant.experiments": "count",
    "core.consultant.true_ratio": "ratio",
    "core.metrics.self_s": "s", "core.metrics.enables": "count",
    "sanitizer.self_s": "s", "sanitizer.hook_calls": "count", "sanitizer.findings": "count",
    "pperfmark.self_s": "s", "other.self_s": "s",
    "fleet.jobs": "count", "fleet.failed": "count", "fleet.retries": "count",
    "fleet.scheduler.self_s": "s", "fleet.self_s": "s", "fleet.execute_s": "s",
    "fleet.pool_overhead_s": "s", "fleet.packing_efficiency": "ratio",
    "fleet.worker_idle_fraction": "ratio", "fleet.cache.put_s": "s",
    "fleet.cache.get_s": "s", "fleet.cache.hit_ratio": "ratio", "fleet.resweep_s": "s",
    "setup.import_s": "s", "setup.inputs_s": "s",
    "trace.overhead": "ratio",
}

#: ledger rows: layer -> (count metric, unit-cost metric, seconds -> its unit)
LEDGER_COUNTS = {
    "sim.kernel": ("sim.kernel.events", "sim.kernel.ns_per_event", 1e9),
    "sim.process": ("sim.process.calls", "sim.process.ns_per_call", 1e9),
    "dyninst": ("dyninst.snippets", "dyninst.ns_per_snippet", 1e9),
    "mpi": ("mpi.matches", "mpi.us_per_match", 1e6),
    "core.daemon": ("core.daemon.samples", None, None),
    "core.consultant": ("core.consultant.experiments", None, None),
    "core.metrics": ("core.metrics.enables", None, None),
    "sanitizer": ("sanitizer.hook_calls", None, None),
    "fleet.scheduler": ("fleet.jobs", None, None),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="bench",
                        help="item sizes; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--pin-goldens", action="store_true",
                        help="write this run's digests as the goldens (default seed only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args: argparse.Namespace, work: Path) -> None:
    """Child side of a set-up measurement: import, build, report readiness."""
    cls = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    cls.import_modules()
    t1 = time.perf_counter()
    workload = cls(args.seed, args.scale, work)
    workload.build_inputs()
    t2 = time.perf_counter()
    print(json.dumps({"ready": time.monotonic(), "import_s": t1 - t0, "inputs_s": t2 - t1}))


def measure_setup(args: argparse.Namespace) -> dict[str, float]:
    """Median over fresh interpreters of launch-to-ready, import and input time."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale],
            capture_output=True, text=True, timeout=150, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        probe["setup_s"] = probe.pop("ready") - started
        samples.append(probe)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


class Tally:
    """Items attempted and failed, digests per item, and what went wrong."""

    def __init__(self, goldens: dict[str, str], check_goldens: bool) -> None:
        self.goldens = goldens
        self.check_goldens = check_goldens
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def record(self, results) -> None:
        for item in results:
            problems = list(item.problems)
            first = self.digests.setdefault(item.key, item.digest)
            if item.digest != first:
                problems.append(f"digest {item.digest} differs from the first round's {first}")
            if self.check_goldens and item.digest != self.goldens.get(item.key):
                problems.append(
                    f"digest {item.digest} != pinned golden {self.goldens.get(item.key)}"
                )
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{item.key}: {p}" for p in problems)


def timed_call(call, profile=None) -> tuple[object, float]:
    """(output, wall) of one item's call, under ``profile`` if given; an
    exception raised is returned as the output, for the workload's check."""
    t0 = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        output = call()
    except Exception as exc:  # noqa: BLE001 - checked, and counted, by the workload
        output = exc
    finally:
        if profile is not None:
            profile.disable()
    return output, time.perf_counter() - t0


def run_rounds(workload, seconds: float, tally: Tally, counts=None, profile=None):
    """Whole rounds back to back until ``seconds`` have passed; the round in
    flight finishes.  Only the item calls are timed and profiled: each
    output check follows its call, outside the round's wall.  Returns
    (round walls, each item's walls by key)."""
    round_walls: list[float] = []
    item_walls: dict[str, list[float]] = defaultdict(list)
    started = time.perf_counter()
    while True:
        spent = 0.0
        watch = counts is not None and workload.in_process
        with watch_universes(counts) if watch else contextlib.nullcontext():
            for key, call in workload.items(traced=counts is not None):
                output, wall = timed_call(call, profile)
                spent += wall
                results = workload.check(key, wall, output, counts)
                del output  # so the next call's peak RSS holds no earlier output
                for item in results:
                    item_walls[item.key].append(item.wall)
                tally.record(results)
        round_walls.append(spent)
        if time.perf_counter() - started >= seconds:
            return round_walls, item_walls


def peak_rss_mb(workload) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not workload.in_process:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def end_to_end(round_walls, item_walls, rss_mb: float, setup) -> dict[str, float]:
    """The job percentiles are over items, each item's wall being its mean
    over the rounds: a fleet job's wall is quantised by the scheduler's
    20 ms reap polling, so a percentile over single walls jumps a whole
    polling step when the median job crosses one."""
    walls = [statistics.mean(w) for w in item_walls.values()]
    deciles = statistics.quantiles(walls, n=10, method="inclusive")
    return {
        "wall_s": statistics.mean(round_walls),
        "job_p50_s": statistics.median(walls),
        "job_p90_s": deciles[8],
        "setup_s": setup["setup_s"],
        "peak_rss_mb": rss_mb,
    }


def per_layer(profile, rounds: int, traced_wall: float, untraced_wall: float,
              counts: Counter, setup) -> dict[str, float]:
    """Per-round layer metrics from the profile and the gathered counts."""
    self_s, profiled = layers.ledger(pstats.Stats(profile), SRC)
    totals = Counter(profiled)
    totals.update(counts)
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({name: value / rounds for name, value in totals.items() if name in out})
    for layer in layers.LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / rounds
    for layer, (count, cost, scale) in LEDGER_COUNTS.items():
        if cost is not None and out[count]:
            out[cost] = out[f"{layer}.self_s"] / out[count] * scale
    if totals["core.consultant.experiments"]:
        out["core.consultant.true_ratio"] = (
            totals["core.consultant.true"] / totals["core.consultant.experiments"]
        )
    if totals["fleet.cache.lookups"]:
        out["fleet.cache.hit_ratio"] = totals["fleet.cache.hits"] / totals["fleet.cache.lookups"]
    out["setup.import_s"] = setup["import_s"]
    out["setup.inputs_s"] = setup["inputs_s"]
    out["trace.overhead"] = traced_wall / untraced_wall
    print_ledger(out, traced_wall)
    return out


def print_ledger(out: dict[str, float], traced_wall: float) -> None:
    total = sum(out[f"{layer}.self_s"] for layer in layers.LAYERS)
    print(f"# layer ledger, per traced round (traced wall {traced_wall:.4f} s, "
          f"self times sum to {total:.4f} s)")
    print(f"# {'layer':<16} {'self_s':>10} {'share':>7} {'count':>12}  unit cost")
    for layer in layers.LAYERS:
        spent = out[f"{layer}.self_s"]
        count, cost, _scale = LEDGER_COUNTS.get(layer, (None, None, None))
        n = f"{out[count]:.0f}" if count else "-"
        unit = f"{out[cost]:.1f} {PER_LAYER[cost]}" if cost else "-"
        print(f"# {layer:<16} {spent:>10.4f} {spent / total:>7.1%} {n:>12}  {unit}")


def load_goldens(scale: str, workload: str) -> dict[str, str]:
    try:
        return json.loads(GOLDENS.read_text()).get(scale, {}).get(workload, {})
    except FileNotFoundError:
        return {}


def pin_goldens(scale: str, workload: str, digests: dict[str, str]) -> None:
    data = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    data.setdefault(scale, {})[workload] = dict(sorted(digests.items()))
    GOLDENS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    # isolation: scratch current directory and temp files, no stray caches
    os.chdir(work)
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    os.environ.pop("REPRO_CACHE_DIR", None)
    try:
        if args.setup_probe:
            setup_probe(args, work)
            return 0
        return measure(args, work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a parent run
            work.parent.rmdir()


def measure(args: argparse.Namespace, work: Path) -> int:
    if args.pin_goldens and args.seed != DEFAULT_SEED:
        print(f"perfbench: goldens are pinned at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    cls.import_modules()
    workload = cls(args.seed, args.scale, work)
    workload.build_inputs()
    goldens = load_goldens(args.scale, args.workload)
    tally = Tally(goldens, workload.golden_applies and not args.pin_goldens)

    if args.trace:
        profile, counts = cProfile.Profile(), Counter()
        if not workload.in_process:
            # fleet workers are forked: keep the parent's profiler out of them
            os.register_at_fork(after_in_child=profile.disable)
        untraced, _ = run_rounds(workload, args.seconds / 4, tally)
        traced, _ = run_rounds(workload, args.seconds * 3 / 4, tally, counts, profile)
        metrics = per_layer(profile, len(traced), statistics.mean(traced),
                            statistics.mean(untraced), counts, measure_setup(args))
        units = PER_LAYER
    else:
        round_walls, item_walls = run_rounds(workload, args.seconds, tally)
        rss = peak_rss_mb(workload)  # before the set-up probes add children
        metrics = end_to_end(round_walls, item_walls, rss, measure_setup(args))
        units = END_TO_END
        print(f"# {args.workload}: {len(round_walls)} rounds, job percentiles over "
              f"{len(item_walls)} items' mean walls")
        print("# round walls: " + " ".join(f"{w:.3f}" for w in round_walls))
    print(f"# error_rate {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} items)")
    for name in units:
        print(f"# {name} {metrics[name]:.6g} {units[name]}")
    for problem in tally.problems[:50]:
        print(f"# FAILED {problem}")

    if args.pin_goldens and not tally.problems:
        pin_goldens(args.scale, args.workload, tally.digests)
        print(f"# pinned {len(tally.digests)} goldens into {GOLDENS}")
    correct = not tally.problems and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
