"""``python -m repro observe`` -- trace / summary / critical-path.

Post-hoc analysis of what a sweep (or any traced run) left behind:

* ``observe trace``         -- merge the per-process JSONL mirrors in a
  trace directory into ``trace.jsonl`` (ordered by wall, seq) and a
  Perfetto-loadable ``trace.json``;
* ``observe summary``       -- per-event-name counts and span statistics;
* ``observe critical-path`` -- the blocking job chain / idle fraction of
  the last fleet sweep, recomputed from the fleet event log;
* ``observe serve``         -- the live observatory: tail a growing trace
  directory and serve the merged feed to concurrent viewers;
* ``observe watch``         -- stream a live observatory's event feed.

Wired into the main CLI by :func:`add_observe_parser` (lazily, mirroring
``fleet.cli``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path

from .critical_path import critical_path, render_critical_path
from .export import MERGED_CHROME, merge_events, mirror_files, write_trace

__all__ = ["add_observe_parser", "cmd_observe", "DEFAULT_TRACE_DIR"]

#: where ``repro fleet sweep --trace`` drops per-process mirrors and where
#: the observe commands look by default (gitignored with the reports)
DEFAULT_TRACE_DIR = "benchmarks/reports/trace"


def add_observe_parser(sub: argparse._SubParsersAction) -> None:
    observe = sub.add_parser(
        "observe",
        help="flight-recorder traces: merge/export, summarize, critical path",
    )
    osub = observe.add_subparsers(dest="observe_command", required=True)

    trace = osub.add_parser(
        "trace", help="merge per-process trace mirrors into Chrome trace JSON"
    )
    trace.add_argument("--dir", default=DEFAULT_TRACE_DIR, metavar="DIR",
                       help="trace directory (default %(default)s)")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help=f"Chrome trace output (default DIR/{MERGED_CHROME})")

    summary = osub.add_parser("summary", help="event counts and span stats")
    summary.add_argument("--dir", default=DEFAULT_TRACE_DIR, metavar="DIR")

    cpath = osub.add_parser(
        "critical-path",
        help="blocking job chain and worker-idle fraction of the last sweep",
    )
    cpath.add_argument("--events", default=None, metavar="PATH",
                       help="fleet event log (default <cache>/events.jsonl)")
    cpath.add_argument("--json", action="store_true",
                       help="emit the machine-readable summary")

    serve = osub.add_parser(
        "serve",
        help="live observatory: serve a growing trace directory to viewers",
    )
    serve.add_argument("--dir", default=DEFAULT_TRACE_DIR, metavar="DIR",
                       help="trace directory to tail (default %(default)s)")
    serve.add_argument("--events", default=None, metavar="PATH",
                       help="fleet event log to tail for swimlanes/"
                       "critical-path (default <cache>/events.jsonl)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8752,
                       help="listen port (0 = auto-assign)")
    serve.add_argument("--token", default=os.environ.get("REPRO_FLEET_TOKEN"),
                       metavar="SECRET",
                       help="shared secret (default: $REPRO_FLEET_TOKEN); "
                       "rejects unauthenticated requests when set")

    watch = osub.add_parser(
        "watch", help="stream a live observatory's merged event feed"
    )
    watch.add_argument("endpoint", metavar="HOST:PORT",
                       help="a live observatory (observe serve / sweep --live)")
    watch.add_argument("--raw", action="store_true",
                       help="print each event as canonical sorted-key JSON "
                       "(byte-comparable with trace.jsonl)")
    watch.add_argument("--once", action="store_true",
                       help="drain what is sealed now and exit instead of "
                       "waiting for the feed to finalize")
    watch.add_argument("--cursor", type=int, default=0,
                       help="start position in the sealed feed (default 0)")
    watch.add_argument("--filter", default=None, metavar="PREFIX",
                       help="only stream events whose name starts with this "
                       "prefix (filtered server-side; the cursor still "
                       "tracks the full feed)")
    watch.add_argument("--token", default=os.environ.get("REPRO_FLEET_TOKEN"),
                       metavar="SECRET",
                       help="shared secret (default: $REPRO_FLEET_TOKEN)")


def _cmd_trace(args: argparse.Namespace) -> int:
    files = mirror_files(args.dir)
    if not files:
        print(f"observe: no trace mirrors under {args.dir} "
              "(run `repro fleet sweep --trace` first)", file=sys.stderr)
        return 2
    trace = write_trace(args.dir, chrome=args.out)
    print(f"# merged {trace['events']} event(s) from {len(files)} mirror(s) "
          f"({trace['processes']} process(es))")
    print(f"# jsonl:  {trace['jsonl']}")
    print(f"# chrome: {trace['chrome']}  (load in Perfetto / chrome://tracing)")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    trace_dir = Path(args.dir)
    files = mirror_files(trace_dir)
    events = merge_events(files)
    if not events:
        print(f"observe: no events under {trace_dir}", file=sys.stderr)
        return 2
    kinds = Counter(e["kind"] for e in events)
    names = Counter(e["name"] for e in events)
    spans: dict[str, list[float]] = defaultdict(list)
    open_spans: dict[tuple, list] = defaultdict(list)
    for event in events:
        key = (event.get("pid"), event["name"])
        if event["kind"] == "B":
            open_spans[key].append(event["wall"])
        elif event["kind"] == "E" and open_spans[key]:
            spans[event["name"]].append(event["wall"] - open_spans[key].pop())
        elif event["kind"] == "X":
            spans[event["name"]].append(event.get("dur", 0.0))
    print(f"# {len(events)} event(s) from {len(files)} mirror(s); kinds: "
          + " ".join(f"{k}={kinds[k]}" for k in sorted(kinds)))
    for name, count in names.most_common():
        line = f"  {name:<28} x{count}"
        if spans.get(name):
            durations = spans[name]
            line += (f"  span total {sum(durations):.3f}s "
                     f"max {max(durations):.3f}s")
        print(line)
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    from ..fleet.cache import ResultCache  # mode-salt: none
    from ..fleet.events import read_events  # mode-salt: none

    events_path = (
        Path(args.events) if args.events else ResultCache().events_path
    )
    try:
        records = list(read_events(events_path))
    except ValueError as exc:
        print(f"observe: event log {events_path} is corrupt or truncated "
              f"mid-record ({exc}); re-run the sweep or repair the log",
              file=sys.stderr)
        return 1
    if not records:
        print(f"observe: no fleet events at {events_path} "
              "(run `repro fleet sweep` first)", file=sys.stderr)
        return 1
    # the analysis resets at every sweep-start: this is the last sweep
    summary = critical_path(records)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(render_critical_path(summary))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..fleet.cache import ResultCache  # mode-salt: none
    from .live import LiveObservatory

    events_path = (
        Path(args.events) if args.events else ResultCache().events_path
    )
    service = LiveObservatory(
        Path(args.dir), events_path,
        host=args.host, port=args.port, token=args.token or None,
    )
    service.start()
    print(f"# live observatory on {service.url} tailing {args.dir}"
          + (" (token auth on)" if args.token else "")
          + "; attach with: repro observe watch " + service.address,
          flush=True)
    service.serve_forever()
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .live.client import watch

    return watch(
        args.endpoint, raw=args.raw, once=args.once,
        cursor=args.cursor, token=args.token or None,
        name=getattr(args, "filter", None),
    )


def cmd_observe(args: argparse.Namespace) -> int:
    if args.observe_command == "trace":
        return _cmd_trace(args)
    if args.observe_command == "summary":
        return _cmd_summary(args)
    if args.observe_command == "critical-path":
        return _cmd_critical_path(args)
    if args.observe_command == "serve":
        return _cmd_serve(args)
    if args.observe_command == "watch":
        return _cmd_watch(args)
    print(f"observe: unknown command {args.observe_command!r}", file=sys.stderr)
    return 2  # pragma: no cover - argparse enforces choices
