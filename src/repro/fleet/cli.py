"""``python -m repro fleet`` -- sweep / status / clean / store / serve / worker.

Wired into the main CLI by :func:`add_fleet_parser`; kept here so the core
CLI module stays free of fleet imports until a fleet command actually runs.

The three service commands make up the distributed topology::

    machine A$ repro fleet store --root /srv/repro-cache --port 8750
    machine A$ repro fleet serve --store http://A:8750 --port 8751
    machine B$ repro fleet worker A:8751
    machine C$ repro fleet worker A:8751
    anywhere$  repro fleet sweep --workers A:8751 --store http://A:8750
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from ..observe.cli import DEFAULT_TRACE_DIR  # mode-salt: none
from ..observe.critical_path import render_critical_path  # mode-salt: none
from .cache import ResultCache
from .events import read_events
from .scheduler import FleetScheduler
from .sweeps import (
    BENCH_OUT,
    DEFAULT_SANITIZE_IMPLS,
    SWEEP_SUITES,
    run_sweep,
    sweep_specs,
)

__all__ = ["add_fleet_parser", "cmd_fleet"]


def _resolve_store(arg: Optional[str]):
    """A cache/store argument (or the environment default) as a backend:
    a path gives the local directory, an ``http(s)://`` URL the remote
    store client."""
    if arg:
        if arg.startswith(("http://", "https://")):
            from .remote.store import HTTPStore

            return HTTPStore(arg)
        return ResultCache(arg)
    from .execute import default_cache

    return default_cache()


def _endpoint(value: str) -> str:
    """``--workers``: exactly one coordinator ``HOST:PORT``, checked while
    parsing (the wire module loads only when the option is given)."""
    from .remote.wire import parse_endpoint

    try:
        parse_endpoint(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_token_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--token", default=os.environ.get("REPRO_FLEET_TOKEN"),
                        metavar="SECRET",
                        help="shared secret for the fleet wire (default: "
                        "$REPRO_FLEET_TOKEN); services started with one "
                        "reject unauthenticated requests with 401")


def _export_token(token: Optional[str]) -> None:
    """Make ``--token`` ambient so every wire client in this process (and
    its forked children) attaches it automatically."""
    if token:
        os.environ["REPRO_FLEET_TOKEN"] = token


def add_fleet_parser(sub: argparse._SubParsersAction) -> None:
    fleet = sub.add_parser(
        "fleet",
        help="parallel cached experiment execution (sweep / status / clean)",
    )
    fsub = fleet.add_subparsers(dest="fleet_command", required=True)

    sweep = fsub.add_parser(
        "sweep",
        help="regenerate the paper's tables/figures and sanitizer sweeps "
        "in parallel, through the result cache",
    )
    sweep.add_argument("--suite", choices=SWEEP_SUITES, default="all")
    sweep.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all cores)")
    sweep.add_argument("--timeout", type=float, default=600.0,
                       help="per-job wall-clock limit in seconds")
    sweep.add_argument("--retries", type=int, default=1,
                       help="extra attempts after a failure/timeout")
    sweep.add_argument("--chaos", type=int, default=0,
                       help="inject N always-crashing jobs (containment "
                       "drill); with --workers, additionally SIGKILL N live "
                       "workers mid-lease (steal/retry drill)")
    sweep.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the deterministic chaos kill schedule")
    sweep.add_argument("--workers", type=_endpoint, metavar="HOST:PORT",
                       help="run the sweep over the remote workers attached "
                       "to this coordinator (repro fleet serve) instead of "
                       "local forks")
    sweep.add_argument("--store", default=None, metavar="URL",
                       help="shared artifact-store URL (repro fleet store); "
                       "overrides --cache")
    sweep.add_argument("--cache", default=None, metavar="DIR",
                       help="cache directory (default .repro-cache)")
    sweep.add_argument("--bench-out", default=BENCH_OUT, metavar="PATH",
                       help="perf-trajectory JSON output (- to skip)")
    sweep.add_argument("--impls", default=",".join(DEFAULT_SANITIZE_IMPLS),
                       help="comma-separated impls for the sanitizer sweep")
    sweep.add_argument("--trace", action="store_true",
                       help="flight-record the scheduler and every worker; "
                       "merge into a Perfetto-loadable Chrome trace")
    sweep.add_argument("--trace-dir", default=DEFAULT_TRACE_DIR, metavar="DIR",
                       help="trace output directory (default %(default)s)")
    sweep.add_argument("--live", action="store_true",
                       help="serve the growing trace to live viewers "
                       "(repro observe watch) for the sweep's duration; "
                       "implies --trace")
    sweep.add_argument("--live-port", type=int, default=0, metavar="PORT",
                       help="live observatory port (default: auto-assign)")
    _add_token_flag(sweep)

    run = fsub.add_parser(
        "run",
        help="execute one spec through the cache -- locally, or on remote "
        "workers where --interactive leases ahead of any running sweep",
    )
    run.add_argument("program", help="program name (e.g. oned, small_messages)")
    run.add_argument("--mode", choices=("tool", "sanitize", "chaos"),
                     default="tool")
    run.add_argument("--impl", default="lam")
    run.add_argument("--nprocs", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--quick", action="store_true",
                     help="scaled-down program parameters")
    run.add_argument("--interactive", action="store_true",
                     help="submit at interactive priority: remote workers "
                     "lease it before any queued sweep job")
    run.add_argument("--workers", type=_endpoint, metavar="HOST:PORT",
                     help="run on this coordinator's workers instead of a "
                     "local fork")
    run.add_argument("--store", default=None, metavar="URL",
                     help="shared artifact-store URL; overrides --cache")
    run.add_argument("--cache", default=None, metavar="DIR",
                     help="cache directory (default .repro-cache)")
    run.add_argument("--timeout", type=float, default=600.0)
    run.add_argument("--retries", type=int, default=1)
    _add_token_flag(run)

    status = fsub.add_parser("status", help="cache and last-sweep statistics")
    status.add_argument("--cache", default=None, metavar="DIR")
    status.add_argument("--events", type=int, default=8, metavar="N",
                        help="show the last N logged events (0: none)")

    clean = fsub.add_parser("clean", help="drop cached artifacts")
    clean.add_argument("--cache", default=None, metavar="DIR")
    clean.add_argument("--gc", action="store_true",
                       help="keep artifacts the current sweep would reuse; "
                       "drop only orphans from older code versions")

    store = fsub.add_parser(
        "store",
        help="serve a cache directory as a shared artifact store over HTTP",
    )
    store.add_argument("--root", default=None, metavar="DIR",
                       help="cache directory to serve (default .repro-cache)")
    store.add_argument("--host", default="127.0.0.1")
    store.add_argument("--port", type=int, default=8750,
                       help="listen port (0 = auto-assign)")
    _add_token_flag(store)

    serve = fsub.add_parser(
        "serve",
        help="run the sweep coordinator (job lease/heartbeat/result queue)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8751,
                       help="listen port (0 = auto-assign)")
    serve.add_argument("--store", default=None, metavar="URL",
                       help="artifact-store URL handed to workers at lease "
                       "time")
    serve.add_argument("--lease-timeout", type=float, default=15.0,
                       help="seconds without a heartbeat before a worker is "
                       "presumed dead and its job is re-queued")
    serve.add_argument("--retries", type=int, default=1,
                       help="extra attempts after a reported job failure")
    _add_token_flag(serve)

    worker = fsub.add_parser(
        "worker",
        help="run a stateless worker pulling jobs from a coordinator",
    )
    worker.add_argument("coordinator", metavar="HOST:PORT",
                        help="coordinator endpoint (repro fleet serve)")
    worker.add_argument("--id", default=None, metavar="NAME",
                        help="worker id (default: hostname-pid)")
    worker.add_argument("--store", default=None, metavar="URL",
                        help="artifact-store URL (default: whatever the "
                        "coordinator hands out)")
    worker.add_argument("--max-idle", type=float, default=None, metavar="SECS",
                        help="exit after this long with no work (default: "
                        "poll until the coordinator drains)")
    _add_token_flag(worker)


def _speedup(phase: Optional[dict], label: str) -> str:
    """``; LABEL ~Nx``: a critical-path phase's busy worker-seconds over
    its wall clock, or nothing when the phase executed no job."""
    if not phase or not phase["busy"] or phase["wall"] <= 0:
        return ""
    return f"; {label} ~{round(phase['busy'] / phase['wall'], 2)}x"


def _cmd_sweep(args: argparse.Namespace) -> int:
    _export_token(args.token)
    cache = _resolve_store(args.store or args.cache)
    bench_out = None if args.bench_out == "-" else Path(args.bench_out)
    summary = run_sweep(
        suite=args.suite,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        workers=args.workers,
        cache=cache,
        bench_out=bench_out,
        sanitize_impls=tuple(args.impls.split(",")),
        trace_dir=Path(args.trace_dir) if args.trace or args.live else None,
        live=args.live,
        live_port=args.live_port,
        live_token=args.token,
    )
    counts = summary["counts"]
    cache_stats = summary["cache"]
    render_info = summary["render"]
    collect_info = summary["collect"]
    phases = summary["critical_path"]["phases"]
    print(
        f"# fleet sweep [{summary['suite']}] on {summary['workers']} worker(s): "
        f"{counts['specs']} jobs -> {counts['completed']} completed, "
        f"{counts['cached']} cache hits, {counts['failed']} failed"
    )
    print(
        f"# render: {render_info['skipped']} skipped + "
        f"{render_info['rendered']} rendered of {render_info['benches']} "
        f"bench(es), {render_info['failed']} failed"
        + _speedup(phases.get("render"), "speedup vs serial")
    )
    print(
        f"# wall: collect {summary['wall']['collect']}s + warm "
        f"{summary['wall']['warm']}s + render "
        f"{summary['wall']['render']}s; cache hit rate "
        f"{cache_stats['hit_rate']:.0%}"
        + _speedup(phases.get("warm"), "warm speedup vs serial")
    )
    remote = summary.get("remote")
    if remote:
        per_worker = ", ".join(
            f"{worker}={row['jobs']}" for worker, row in
            sorted(remote.get("workers", {}).items())
        )
        print(
            f"# remote: {len(remote.get('workers', {}))} worker(s) "
            f"[{per_worker}], {remote.get('steals', 0)} steal(s), "
            f"{remote.get('retries', 0)} retrie(s), "
            f"{remote.get('worker_losses', 0)} lease expirie(s), "
            f"{remote.get('chaos_kills', 0)} chaos kill(s)"
        )
    for job in summary["per_job"]:
        if job["status"] == "failed":
            print(f"#   FAILED {job['job']} after {job['attempts']} attempt(s): "
                  f"{job['error']}")
    for bench, error in collect_info["failures"]:
        print(f"#   COLLECT FAILED {bench}: {error}")
    for bench, error in render_info["failures"]:
        print(f"#   RENDER FAILED {bench}: {error}")
    # run_sweep lifts the scheduling block out of the critical path; the
    # renderer prints both
    cpath = dict(summary.get("critical_path") or {},
                 scheduling=summary.get("scheduling"))
    if cpath.get("chain"):
        for line in render_critical_path(cpath).splitlines():
            print(f"# {line}")
    trace = summary.get("trace")
    if trace:
        print(f"# trace: {trace['events']} event(s) from "
              f"{trace['processes']} process(es) -> {trace['chrome']} "
              "(load in Perfetto / chrome://tracing)")
    if bench_out is not None:
        print(f"# perf trajectory written to {bench_out}")
    chaos_failures = sum(
        1 for job in summary["per_job"]
        if job["status"] == "failed" and job["job"].startswith("chaos:")
    )
    real_failures = counts["failed"] - chaos_failures
    return 1 if (
        real_failures
        or render_info["failures"]
        or collect_info["failed"]
    ) else 0


def _cmd_run(args: argparse.Namespace) -> int:
    _export_token(args.token)
    import time as _time

    from .spec import RunSpec

    spec = RunSpec.make(
        args.program, mode=args.mode, impl=args.impl,
        nprocs=args.nprocs, seed=args.seed, quick=args.quick,
    )
    cache = _resolve_store(args.store or args.cache)
    if args.workers:
        from .remote.pool import RemotePool

        pool = RemotePool(args.workers, store=cache, timeout=args.timeout,
                          retries=args.retries)
    else:
        pool = FleetScheduler(jobs=1, timeout=args.timeout,
                              retries=args.retries, cache=cache)
    started = _time.monotonic()
    # priority -1 leases ahead of both sweep classes (0 and 1)
    pool.submit(spec, priority=-1 if args.interactive else 0)
    pool.run()
    wall = _time.monotonic() - started
    outcome = pool.outcomes[spec.digest]
    status = "failed" if outcome.status == "failed" else "ok"
    print(f"# fleet run {spec.label} "
          f"[{'interactive' if args.interactive else 'sweep'}]"
          + (f" on {args.workers}" if args.workers else "")
          + f": {status}" + (" (cache hit)" if outcome.cached else "")
          + f" in {wall:.2f}s")
    print(f"# digest: {spec.digest}")
    if outcome.error:
        print(f"#   ERROR {outcome.error}")
    return 0 if status == "ok" else 1


def _last_sweep(records: list[dict]) -> Optional[str]:
    """The last sweep in an event log, from its ``sweep-start`` record and
    the pool's ``sweep-summary`` after it; ``None`` if none ever started."""
    starts = [i for i, r in enumerate(records) if r["event"] == "sweep-start"]
    if not starts:
        return None
    sweep = records[starts[-1]:]
    start = sweep[0]
    when = datetime.fromtimestamp(start["t"], timezone.utc)
    line = (f"# last sweep [{start.get('suite')}] at "
            f"{when.isoformat(timespec='seconds')}: ")
    done = next((r for r in sweep if r["event"] == "sweep-summary"), None)
    if done is None:
        return line + "no sweep-summary (still running, or interrupted)"
    return line + (
        f"{done['specs']} jobs, {done['completed']} completed, "
        f"{done['cached']} cached, {done['failed']} failed, "
        f"wall {done['t'] - start['t']:.3f}s"
    )


def _cmd_status(args: argparse.Namespace) -> int:
    if args.events < 0:
        print(f"fleet status: --events must be >= 0, got {args.events}",
              file=sys.stderr)
        return 2
    cache = _resolve_store(args.cache)
    info = cache.describe()
    print(f"# fleet cache at {info['root']}: {info['objects']} artifact(s), "
          f"{info['size_bytes'] / 1024:.1f} KiB")
    # a remote store keeps no event log, so it has no last-sweep line
    events_path = getattr(cache, "events_path", None)
    if events_path is not None:
        try:
            records = list(read_events(events_path))
        except ValueError as exc:
            print(f"fleet status: event log {events_path} is corrupt or "
                  f"truncated mid-record ({exc}); re-run the sweep or repair "
                  "the log", file=sys.stderr)
            return 1
        last = _last_sweep(records)
        if last is not None:
            print(last)
        for record in records[-args.events:] if args.events else ():
            extras = {k: v for k, v in record.items() if k not in ("t", "event")}
            print(f"  {record['t']:.3f} {record['event']:<12} "
                  + " ".join(f"{k}={v}" for k, v in sorted(extras.items())))
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    cache = _resolve_store(args.cache)
    if not isinstance(cache, ResultCache):
        print(f"fleet clean: {cache.root} is a remote store; run clean/gc "
              "on the machine serving it (its --root directory)",
              file=sys.stderr)
        return 2
    if args.gc:
        live = {spec.digest for spec in sweep_specs("all")}
        removed = cache.gc(live)
        print(f"# gc: removed {removed} orphaned artifact(s), "
              f"kept {len(cache)} live")
    else:
        removed = cache.clean()
        print(f"# clean: removed {removed} artifact(s) from {cache.root}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .remote.store import ArtifactStoreServer

    server = ArtifactStoreServer(args.root, host=args.host, port=args.port,
                                 token=args.token)
    server.start()
    print(f"# artifact store serving {server.cache.root} on {server.url} "
          f"({len(server.cache)} object(s))"
          + ("; token auth on" if args.token else "")
          + "; Ctrl-C to stop", flush=True)
    server.serve_forever()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .remote.coordinator import FleetCoordinator

    coordinator = FleetCoordinator(
        host=args.host, port=args.port, store_url=args.store,
        lease_timeout=args.lease_timeout, retries=args.retries,
        token=args.token,
    )
    coordinator.start()
    print(f"# fleet coordinator on {coordinator.url}"
          + (f" (store {args.store})" if args.store else "")
          + ("; token auth on" if args.token else "")
          + f"; lease timeout {args.lease_timeout}s; point workers here "
          "with: repro fleet worker " + coordinator.address, flush=True)
    coordinator.serve_forever()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    _export_token(args.token)
    from .remote.store import HTTPStore
    from .remote.worker import FleetWorker

    worker = FleetWorker(
        args.coordinator,
        worker_id=args.id,
        store=HTTPStore(args.store) if args.store else None,
        max_idle=args.max_idle,
    )
    completed = worker.run()
    print(f"# worker {worker.worker_id}: {completed} job(s) "
          f"({worker.store_hits} store hit(s))")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "sweep":
        return _cmd_sweep(args)
    if args.fleet_command == "run":
        return _cmd_run(args)
    if args.fleet_command == "status":
        return _cmd_status(args)
    if args.fleet_command == "clean":
        return _cmd_clean(args)
    if args.fleet_command == "store":
        return _cmd_store(args)
    if args.fleet_command == "serve":
        return _cmd_serve(args)
    if args.fleet_command == "worker":
        return _cmd_worker(args)
    print(f"fleet: unknown command {args.fleet_command!r}", file=sys.stderr)
    return 2  # pragma: no cover - argparse enforces choices
