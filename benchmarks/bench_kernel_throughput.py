"""Kernel-throughput microbenchmarks: the perf-regression harness.

Four scenario families exercise the simulation hot paths end to end --
pure timer churn, zero-delay event ping-pong (the FIFO fast lane),
instrumented vs uninstrumented simulated calls, and periodic sampling into
folding histograms.  Every scenario runs twice: once on the optimized
:class:`repro.sim.Kernel` ("after") and once on the seed implementation
:class:`repro.sim.reference.ReferenceKernel` ("before"), giving real
before/after events-per-second numbers plus a machine-independent speedup
ratio.

Each scenario also returns deterministic observables (event count, final
virtual time, an order-sensitive checksum over the executed callbacks).
These must be *identical* across both kernels and across repeated runs --
that equality is asserted on every execution, so the perf harness doubles
as a determinism regression test.

Outputs:

* ``benchmarks/reports/kernel_throughput.txt`` -- rendered table;
* ``BENCH_kernel.json`` (repo root) -- machine-readable trajectory,
  tracked PR-over-PR like ``BENCH_fleet.json``; only the command line
  (``--out``) writes it, so a fleet render of this bench leaves it alone;
* ``python benchmarks/bench_kernel_throughput.py --check <baseline>`` --
  the CI perf-smoke gate: compares calibration-normalized events/sec
  against the checked-in baseline and fails on >30% regression.
  Normalizing by the reference kernel's timer-churn throughput divides out
  machine speed, so one baseline works on any host; it is sampled right
  before each scenario's fast-kernel run (:func:`calibrate`), so host load
  that shifts during the run moves a scenario and its yardstick together.
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
BASELINE = pathlib.Path(__file__).resolve().parent / "baselines" / "kernel_baseline.json"
REGRESSION_TOLERANCE = 0.30  # CI fails below baseline * (1 - this)
_MASK = (1 << 61) - 1


def _mix(h: int, now: float, tag: int) -> int:
    """Order-sensitive running checksum over (time, tag) pairs."""
    return (h * 1000003 + (int(now * 1e9) & 0xFFFFFFFFFFFF) + tag) & _MASK


def _kernels():
    from repro.sim.kernel import Kernel
    from repro.sim.reference import ReferenceKernel

    return {"after": Kernel, "before": ReferenceKernel}


# -- scenarios ---------------------------------------------------------------
# Each takes a kernel factory and a size, and returns
# (events, virtual_time, checksum) -- all fully deterministic.


def timer_churn(make_kernel, timers: int = 250, fires: int = 60):
    """Pure heap traffic: staggered timers that keep rescheduling."""
    kernel = make_kernel()
    state = {"events": 0, "checksum": 0}

    def make_cb(idx):
        remaining = [fires]

        def cb():
            state["events"] += 1
            state["checksum"] = _mix(state["checksum"], kernel.now, idx)
            remaining[0] -= 1
            if remaining[0] > 0:
                delay = ((idx * 37 + remaining[0] * 13) % 89 + 1) / 500.0
                kernel.schedule(delay, cb)

        return cb

    for i in range(timers):
        kernel.schedule(((i * 37) % 97 + 1) / 1000.0, make_cb(i))
    kernel.run()
    return state["events"], kernel.now, state["checksum"]


def timer_churn_traced(make_kernel, timers: int = 250, fires: int = 60):
    """``timer_churn`` with the flight recorder *enabled*: bounds the cost
    of the kernel's observe hooks when someone is actually listening (the
    disabled cost is bounded by plain ``timer_churn`` vs its baseline)."""
    from repro.observe.recorder import recording

    with recording(capacity=4096):
        return timer_churn(make_kernel, timers, fires)


def zero_delay_pingpong(make_kernel, rounds: int = 6000):
    """Task/event churn through the zero-delay lane: two coroutines hand a
    token back and forth; every wake-up is a ``schedule(0.0, ...)``."""
    from repro.sim.kernel import Delay, WaitEvent

    kernel = make_kernel()
    state = {"events": 0, "checksum": 0}
    mailboxes = {"ping": kernel.event("m0"), "pong": kernel.event("m1")}

    def player(me, other):
        for i in range(rounds):
            value = yield WaitEvent(mailboxes[me])
            state["events"] += 1
            state["checksum"] = _mix(state["checksum"], kernel.now, value)
            mailboxes[me] = kernel.event(me)
            mailboxes[other].trigger(value + 1)
            if i % 64 == 0:  # keep some heap traffic interleaved
                yield Delay(0.001)

    t1 = kernel.spawn(player("ping", "pong"), name="ping")
    kernel.spawn(player("pong", "ping"), name="pong")
    mailboxes["ping"].trigger(0)

    def closer():
        yield WaitEvent(t1.done_event)
        if not mailboxes["pong"].triggered:
            mailboxes["pong"].trigger(-1)

    kernel.spawn(closer(), name="closer")
    kernel.run()
    return state["events"], kernel.now, state["checksum"]


def _make_proc(kernel):
    from repro.dyninst.image import Image
    from repro.sim.node import Cluster
    from repro.sim.process import SimProcess

    cluster = Cluster(num_nodes=1, cpus_per_node=1)
    node = cluster.nodes[0]
    return SimProcess(
        kernel, Image(), pid=cluster.allocate_pid(), node=node, cpu=node.cpus[0]
    )


def _call_scenario(make_kernel, calls: int, instrumented: bool):
    """The instrumented-call boundary: outer -> mid -> leaf nesting, with
    counter snippets and per-snippet perturbation when ``instrumented``."""
    kernel = make_kernel()
    proc = _make_proc(kernel)
    state = {"events": 0, "checksum": 0}

    def leaf(p, i):
        if i % 7 == 0:
            yield from p.compute(1e-6)
        else:
            yield from p.compute(0.0)
        return i

    def mid(p, i):
        value = yield from p.call("leaf", i)
        yield from p.syscall(0.0 if i % 5 else 1e-6)
        return value

    def outer(p, i):
        return (yield from p.call("mid", i))

    proc.image.add_function("leaf", leaf, module="app.c")
    proc.image.add_function("mid", mid, module="app.c")
    proc.image.add_function("outer", outer, module="app.c")

    if instrumented:
        from repro.dyninst.snippets import AddCounter, Const, CounterVar, Snippet

        counter = CounterVar("bench_count")
        for name in ("leaf", "mid"):
            fdef = proc.image.resolve(name)
            fdef.insert(Snippet([AddCounter(counter, Const(1))]), where="entry")
            fdef.insert(Snippet([AddCounter(counter, Const(1))]), where="return")
        proc.snippet_cost = 1e-7

    def body():
        for i in range(calls):
            value = yield from proc.call("outer", i)
            state["events"] += 3  # outer + mid + leaf frames
            state["checksum"] = _mix(state["checksum"], kernel.now, value)

    kernel.spawn(proc.run_main(body()), name="bench")
    kernel.run()
    state["checksum"] = _mix(state["checksum"], proc.cpu_time(), proc.snippets_executed)
    return state["events"], kernel.now, state["checksum"]


def calls_uninstrumented(make_kernel, calls: int = 4000):
    return _call_scenario(make_kernel, calls, instrumented=False)


def calls_instrumented(make_kernel, calls: int = 4000):
    return _call_scenario(make_kernel, calls, instrumented=True)


def _sampling_scenario(make_kernel, samples: int, sampling: bool):
    """A computing process sampled periodically into a folding histogram --
    the daemon/histogram hot path without the full tool stack."""
    from repro.core.histogram import FoldingHistogram

    kernel = make_kernel()
    proc = _make_proc(kernel)
    interval = 0.001
    hist = FoldingHistogram(num_bins=100, bin_width=0.005)
    state = {"events": 0, "checksum": 0, "last": 0.0}

    def body():
        for i in range(samples):
            yield from proc.compute(interval if i % 3 else interval / 2)

    task = kernel.spawn(proc.run_main(body()), name="worker")

    if sampling:
        def tick():
            value = proc.cpu_user_time()
            hist.add(kernel.now, value - state["last"])
            state["last"] = value
            state["events"] += 1
            state["checksum"] = _mix(state["checksum"], kernel.now, int(value * 1e9))
            if not task.finished:
                kernel.schedule(interval, tick)

        kernel.schedule(interval, tick)

    kernel.run()
    state["events"] += samples
    state["checksum"] = _mix(state["checksum"], hist.total(), hist.folds)
    state["checksum"] = _mix(state["checksum"], proc.cpu_time(), samples)
    return state["events"], kernel.now, state["checksum"]


def sampling_on(make_kernel, samples: int = 4000):
    return _sampling_scenario(make_kernel, samples, sampling=True)


def sampling_off(make_kernel, samples: int = 4000):
    return _sampling_scenario(make_kernel, samples, sampling=False)


def sampling_batched(make_kernel, ranks: int = 8, rounds: int = 60):
    """Full tool-stack sampling through the daemon's proc-major read plan.
    The checksum covers every per-process histogram bin, and
    ``tests/test_kernel_fastpath.py`` pins it at test size on both kernels,
    so a change to what the daemon records shows up as a checksum change."""
    from repro.core import Focus, Paradyn
    from repro.mpi import MpiProgram, MpiUniverse
    from repro.sim import Cluster

    class BenchProgram(MpiProgram):
        name = "bench_sampling"
        module = "bench.c"

        def main(self, mpi):
            yield from mpi.init()
            for r in range(rounds):
                yield from mpi.compute(((mpi.rank * 13 + r * 7) % 5 + 1) / 2000.0)
                peer = mpi.rank ^ 1
                if peer < mpi.size:
                    if mpi.rank < peer:
                        yield from mpi.send(peer, nbytes=64 + (r % 7) * 16, tag=1)
                        yield from mpi.recv(source=peer, tag=2)
                    else:
                        yield from mpi.recv(source=peer, tag=1)
                        yield from mpi.send(peer, nbytes=32, tag=2)
                if r % 8 == 0:
                    yield from mpi.barrier()
            yield from mpi.finalize()

    metrics = ("msgs_sent", "msg_bytes_sent", "msg_sync_wait")

    universe = MpiUniverse(
        kernel=make_kernel(),
        cluster=Cluster(num_nodes=2, cpus_per_node=4),
    )
    tool = Paradyn(universe, bin_width=0.01)
    for metric in metrics:
        tool.enable(metric, Focus.whole_program())
    universe.launch(BenchProgram(), ranks)
    universe.run()
    shots = []
    for metric in metrics:
        data = tool.data(metric, Focus.whole_program())
        for pid in sorted(data.per_process):
            hist = data.per_process[pid]
            shots.append([
                metric, pid, hist.folds, round(hist.start_time, 9),
                [round(v, 9) for v in hist.filled_bins()],
            ])
    vtime = round(universe.kernel.now, 9)
    events = 0
    checksum = 0
    for metric, pid, folds, start, bins in shots:
        checksum = _mix(checksum, start, pid * 1009 + folds)
        for i, value in enumerate(bins):
            if value:
                events += 1
                checksum = _mix(checksum, float(value), i)
    return events, vtime, checksum


SCENARIOS = {
    "timer_churn": timer_churn,
    "timer_churn_traced": timer_churn_traced,
    "zero_delay_pingpong": zero_delay_pingpong,
    "calls_uninstrumented": calls_uninstrumented,
    "calls_instrumented": calls_instrumented,
    "sampling_on": sampling_on,
    "sampling_off": sampling_off,
    "sampling_batched": sampling_batched,
}

#: the calibration scenario: its *reference-kernel* events/sec measures the
#: host's speed, and normalized = events_per_sec / calibration is what the
#: CI gate compares (machine-independent up to interpreter/load noise)
CALIBRATION_SCENARIO = "timer_churn"


def calibrate(**sizes) -> int:
    """One host-speed sample: the reference kernel's events/sec on
    ``timer_churn``.  Both perf-smoke gates take one right before each
    measurement they normalize, since host load can shift between a
    calibration taken once and a later scenario."""
    from repro.sim.reference import ReferenceKernel

    t0 = time.perf_counter()
    events, _, _ = timer_churn(ReferenceKernel, **sizes)
    wall = time.perf_counter() - t0
    return round(events / wall) if wall > 0 else 0


# -- harness -----------------------------------------------------------------


def run_scenarios(sizes: dict | None = None) -> dict:
    """Run every scenario on both kernels; assert deterministic equality."""
    from repro.observe.recorder import suspended

    # the disabled-overhead numbers (every scenario but *_traced, which
    # installs its own scoped recorder) are only honest with no recorder
    # listening -- detach any caller's (fleet render workers record
    # always-on) for the measurement section
    with suspended():
        return _run_scenarios_untraced(sizes)


def _run_scenarios_untraced(sizes: dict | None = None) -> dict:
    kernels = _kernels()
    sizes = sizes or {}
    summary: dict = {"schema": 1, "scenarios": {}}
    for name, fn in SCENARIOS.items():
        entry: dict = {}
        for side, factory in kernels.items():
            kwargs = sizes.get(name, {})
            if side == "after":
                entry["calibration_events_per_sec"] = calibrate(
                    **sizes.get(CALIBRATION_SCENARIO, {}))
            t0 = time.perf_counter()
            events, vtime, checksum = fn(factory, **kwargs)
            wall = time.perf_counter() - t0
            entry[side] = {
                "events": events,
                "virtual_time": round(vtime, 9),
                "checksum": checksum,
                "wall": round(wall, 6),
                "events_per_sec": round(events / wall) if wall > 0 else 0,
            }
        if (entry["after"]["events"], entry["after"]["virtual_time"], entry["after"]["checksum"]) != (
            entry["before"]["events"], entry["before"]["virtual_time"], entry["before"]["checksum"]
        ):
            raise AssertionError(
                f"scenario {name!r}: fast-path kernel diverged from the "
                f"reference implementation: {entry['after']} vs {entry['before']}"
            )
        before_eps = entry["before"]["events_per_sec"]
        entry["speedup"] = (
            round(entry["after"]["events_per_sec"] / before_eps, 3) if before_eps else None
        )
        calibration = entry["calibration_events_per_sec"]
        entry["normalized"] = (
            round(entry["after"]["events_per_sec"] / calibration, 4) if calibration else None
        )
        summary["scenarios"][name] = entry
    summary["calibration_events_per_sec"] = round(statistics.median(
        entry["calibration_events_per_sec"] for entry in summary["scenarios"].values()
    ))
    return summary


def render(summary: dict) -> str:
    lines = [
        "Kernel throughput microbenchmarks (before = seed ReferenceKernel, "
        "after = fast-path Kernel)",
        "",
        f"{'scenario':<22} {'events':>8} {'before ev/s':>12} {'after ev/s':>12} "
        f"{'speedup':>8} {'normalized':>11}",
    ]
    for name, entry in summary["scenarios"].items():
        lines.append(
            f"{name:<22} {entry['after']['events']:>8} "
            f"{entry['before']['events_per_sec']:>12} "
            f"{entry['after']['events_per_sec']:>12} "
            f"{entry['speedup'] or 0:>8.2f} {entry['normalized'] or 0:>11.4f}"
        )
    lines.append("")
    lines.append(
        f"calibration (reference {CALIBRATION_SCENARIO}, median of one sample "
        f"before each scenario): {summary['calibration_events_per_sec']} "
        "events/sec; deterministic "
        "observables (events, virtual time, checksum) verified identical "
        "across both kernels"
    )
    return "\n".join(lines)


def write_bench_json(summary: dict, path: pathlib.Path = BENCH_OUT) -> None:
    """Write the summary, preserving any ``scale_ranks`` trajectory that
    ``bench_scale_ranks`` merged into the same file."""
    out = dict(summary)
    if "scale_ranks" not in out and path.exists():
        try:
            prior = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            prior = {}
        if isinstance(prior, dict) and "scale_ranks" in prior:
            out["scale_ranks"] = prior["scale_ranks"]
    path.write_text(json.dumps(out, indent=2) + "\n")


def check_against_baseline(summary: dict, baseline: dict) -> list[str]:
    """Return regression messages (empty = pass).  Compares calibration-
    normalized throughput per scenario with 30% tolerance."""
    problems = []
    for name, base_entry in baseline.get("scenarios", {}).items():
        base_norm = base_entry.get("normalized")
        entry = summary["scenarios"].get(name)
        if entry is None:
            problems.append(f"{name}: scenario disappeared from the bench suite")
            continue
        if base_norm is None or entry["normalized"] is None:
            continue
        floor = base_norm * (1.0 - REGRESSION_TOLERANCE)
        if entry["normalized"] < floor:
            problems.append(
                f"{name}: normalized throughput {entry['normalized']:.4f} fell "
                f">{REGRESSION_TOLERANCE:.0%} below baseline {base_norm:.4f} "
                f"(floor {floor:.4f})"
            )
    return problems


# -- bench entry point (tier-1 smoke, fleet render, pytest benchmarks/) ------


def test_kernel_throughput(benchmark):
    summary = once(benchmark, run_scenarios)
    emit("kernel_throughput", render(summary))
    slowest = min(e["speedup"] or 0 for e in summary["scenarios"].values())
    assert slowest is not None


# -- CI / command line -------------------------------------------------------


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=BENCH_OUT,
                        help="where to write the JSON summary")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline JSON to gate against (CI perf-smoke)")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"refresh {BASELINE} from this run")
    args = parser.parse_args(argv)

    summary = run_scenarios()
    print(render(summary))
    write_bench_json(summary, args.out)
    print(f"[written {args.out}]")

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
