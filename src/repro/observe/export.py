"""Merging and exporting flight-recorder streams.

This module owns the trace-directory layout: every ``*.jsonl`` file in a
trace directory is one process's mirror, except the merged outputs
:data:`MERGED_JSONL` and :data:`MERGED_CHROME` that :func:`write_trace`
writes beside them.  Two output forms:

* **merged JSONL** -- the union of every per-process mirror file, ordered
  by ``(wall, seq)`` (wall clock is the only timeline all processes
  share; seq breaks ties deterministically within one process);
* **Chrome trace-event JSON** -- a ``{"traceEvents": [...]}`` document
  loadable in Perfetto / ``chrome://tracing``.  Host events become B/E/X/C/i
  events on their process's row; simulated-virtual-time events get their
  own named thread row (``tid`` :data:`SIM_TID`) so the two clock domains
  never share an axis.

:func:`deterministic_projection` strips the nondeterministic fields
(wall timestamps, pids, durations) from an event stream; what remains is
byte-stable across runs of a deterministic workload and is what the
golden trace tests compare.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

__all__ = [
    "read_jsonl",
    "merge_events",
    "write_jsonl",
    "to_chrome",
    "write_chrome",
    "mirror_files",
    "write_trace",
    "deterministic_projection",
    "SIM_TID",
    "MERGED_JSONL",
    "MERGED_CHROME",
]

#: Chrome-trace thread id carrying a process's simulated-virtual-time events
SIM_TID = 1000

#: the merged outputs in a trace directory; never read back as mirrors
MERGED_JSONL = "trace.jsonl"
MERGED_CHROME = "trace.json"


def read_jsonl(path: Union[str, Path]) -> Iterator[dict]:
    """Load one mirror file; tolerates a truncated final line (the writer
    may have been SIGKILLed mid-record).  Non-dict JSON lines are dropped
    with the undecodable ones: every consumer (the merge sort key, the
    live tailer) needs mapping events, and a corrupt line must not be
    able to crash the merge."""
    path = Path(path)
    if not path.exists():
        return
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn tail write from a killed process
            if isinstance(event, dict):
                yield event


def merge_events(sources: Iterable[Union[str, Path, Iterable[dict]]]) -> list[dict]:
    """Merge event streams (paths or iterables) ordered by ``(wall, seq)``."""
    events: list[dict] = []
    for source in sources:
        if isinstance(source, (str, Path)):
            events.extend(read_jsonl(source))
        else:
            events.extend(source)
    events.sort(key=lambda e: (e.get("wall", 0.0), e.get("pid", 0), e.get("seq", 0)))
    return events


def write_jsonl(path: Union[str, Path], events: Iterable[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return path


# -- Chrome trace-event format ------------------------------------------------

_PH = {"B": "B", "E": "E", "X": "X", "I": "i"}


def to_chrome(events: Sequence[dict]) -> dict:
    """Render merged events as a Chrome trace-event document.

    Timestamps are microseconds.  Host (wall-clock) events are made
    relative to the earliest wall timestamp in the stream; sim-clock
    events use virtual seconds directly (their own time base) on the
    :data:`SIM_TID` thread row, labelled via thread_name metadata.
    """
    walls = [e["wall"] for e in events if "wall" in e]
    t0 = min(walls) if walls else 0.0
    trace: list[dict] = []
    named_pids: set[int] = set()
    sim_pids: set[int] = set()
    for event in events:
        pid = event.get("pid", 0)
        kind = event["kind"]
        sim = event.get("clock") == "sim"
        ts = event["t"] * 1e6 if sim else (event["t"] - t0) * 1e6
        # scheduler job events carry their worker slot; use it as the thread
        # row so each worker slot gets its own swimlane in the parent process
        tid = SIM_TID if sim else event.get("args", {}).get("slot", 0)
        if sim:
            sim_pids.add(pid)
        # first job/span name seen for a pid becomes its process label
        if pid not in named_pids and kind in ("B", "X") and event.get("args"):
            label = event["args"].get("job") or event["args"].get("label")
            if label:
                named_pids.add(pid)
                trace.append({
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f"{label} (pid {pid})"},
                })
        if kind == "C":
            args = dict(event.get("args", {}))
            value = args.pop("value", 0)
            record = {
                "ph": "C", "name": event["name"], "pid": pid, "tid": tid,
                "ts": round(ts, 3), "args": {event["name"]: value},
            }
        else:
            record = {
                "ph": _PH[kind], "name": event["name"], "pid": pid,
                "tid": tid, "ts": round(ts, 3),
                "cat": "sim" if sim else "host",
                "args": event.get("args", {}),
            }
            if kind == "X":
                record["dur"] = round(event.get("dur", 0.0) * 1e6, 3)
            if kind == "I":
                record["s"] = "t"
        trace.append(record)
    for pid in sorted(sim_pids):
        trace.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": SIM_TID,
            "args": {"name": "simulated virtual time"},
        })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome(path: Union[str, Path], events: Sequence[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_chrome(events), sort_keys=True) + "\n")
    return path


# -- the trace directory ------------------------------------------------------


def mirror_files(trace_dir: Union[str, Path]) -> list[Path]:
    """The per-process mirrors in a trace directory, in name order."""
    return sorted(
        p for p in Path(trace_dir).glob("*.jsonl") if p.name != MERGED_JSONL
    )


def write_trace(trace_dir: Union[str, Path],
                chrome: Union[str, Path, None] = None) -> dict:
    """Merge a trace directory's mirrors into :data:`MERGED_JSONL` and a
    Chrome trace (``chrome``, default :data:`MERGED_CHROME` beside it);
    returns the summary a sweep reports under ``trace``."""
    trace_dir = Path(trace_dir)
    events = merge_events(mirror_files(trace_dir))
    jsonl = write_jsonl(trace_dir / MERGED_JSONL, events)
    chrome = write_chrome(chrome or trace_dir / MERGED_CHROME, events)
    return {
        "dir": str(trace_dir),
        "events": len(events),
        "processes": len({e.get("pid") for e in events}),
        "jsonl": str(jsonl),
        "chrome": str(chrome),
    }


# -- determinism --------------------------------------------------------------


def deterministic_projection(events: Iterable[dict]) -> list[tuple]:
    """The byte-stable view of an event stream.

    Keeps ``(seq, kind, clock, name, t-if-sim, canonical args)`` and drops
    wall timestamps, pids, and wall durations -- per the recorder's
    determinism contract, two runs of the same deterministic workload
    produce identical projections.
    """
    projected = []
    for event in events:
        projected.append((
            event.get("seq"),
            event["kind"],
            event.get("clock", "wall"),
            event["name"],
            event["t"] if event.get("clock") == "sim" else None,
            json.dumps(event.get("args", {}), sort_keys=True,
                       separators=(",", ":")),
        ))
    return projected
