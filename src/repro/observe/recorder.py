"""Per-process ring-buffer flight recorder.

A :class:`Recorder` keeps the last ``capacity`` events of this process in a
bounded deque of event dicts, so memory is strictly bounded no matter how
long the process runs -- the flight-recorder property: when something
dies, the tail of what it was doing is still there.  Optionally every
event is also *mirrored* to an append-only JSONL file (flushed per event),
which is what lets the fleet scheduler salvage a SIGKILLed worker's trace.

Event schema (one dict per event)::

    {"seq":  int,      # per-recorder emission counter (1-based)
     "pid":  int,      # recording process
     "kind": str,      # "B" span begin | "E" span end | "X" complete span
                       # | "C" counter | "I" instant
     "clock": str,     # "wall" (host time.time) | "sim" (virtual seconds)
     "t":    float,    # timestamp in the event's clock domain
     "wall": float,    # wall clock at emission (merge key across processes)
     "dur":  float,    # wall duration ("X" events only, else 0.0)
     "name": str,
     "args": dict}     # small JSON payload; deterministic values only

Determinism contract: ``name``, ``kind``, ``clock``, ``args``, ``seq`` and
sim-clock ``t`` values must be byte-stable across runs of the same
deterministic workload; ``wall``, ``dur``, wall-clock ``t`` and ``pid``
are the only nondeterministic fields (see
:func:`repro.observe.export.deterministic_projection`).

Cost model: the module-level :func:`active` recorder is ``None`` unless
explicitly enabled, and every instrumentation hook in the stack guards on
that -- a single identity check, so disabled tracing adds no measurable
cost to the kernel hot loop (gated by the perf-smoke baseline).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

__all__ = [
    "Recorder",
    "active",
    "enable",
    "disable",
    "recording",
    "suspended",
]


class Recorder:
    """Bounded ring of structured events, optionally JSONL-mirrored."""

    def __init__(
        self,
        capacity: int = 8192,
        *,
        mirror: Union[str, Path, None] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.pid = os.getpid()
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self.mirror_path = Path(mirror) if mirror is not None else None
        self._mirror_fh = None
        if self.mirror_path is not None:
            self.mirror_path.parent.mkdir(parents=True, exist_ok=True)
            self._mirror_fh = self.mirror_path.open("a", encoding="utf-8")

    def now(self) -> float:
        """The recorder's wall clock (for callers timing their own spans)."""
        return time.time()

    # -- emission ------------------------------------------------------------

    def _emit(self, kind: str, clock: str, t: Optional[float], name: str,
              args: dict, dur: float = 0.0) -> None:
        wall = time.time()
        self._seq += 1
        event = {
            "seq": self._seq, "pid": self.pid, "kind": kind, "clock": clock,
            "t": wall if t is None else float(t), "wall": wall,
            "dur": float(dur), "name": name, "args": args,
        }
        self._ring.append(event)
        if self._mirror_fh is not None:
            self._mirror_fh.write(json.dumps(event, sort_keys=True) + "\n")
            self._mirror_fh.flush()

    def begin(self, name: str, **args: Any) -> None:
        """Open a span on the host wall clock."""
        self._emit("B", "wall", None, name, args)

    def end(self, name: str, **args: Any) -> None:
        """Close the innermost open span named ``name``."""
        self._emit("E", "wall", None, name, args)

    def complete(self, name: str, dur: float, **args: Any) -> None:
        """One whole span as a single event (begin time = now - dur)."""
        self._emit("X", "wall", time.time() - dur, name, args, dur=dur)

    def counter(self, name: str, value: Union[int, float], *,
                clock: str = "wall", t: Optional[float] = None,
                **args: Any) -> None:
        """A sampled numeric series (worker occupancy, kernel event count)."""
        args["value"] = value
        self._emit("C", clock, t, name, args)

    def instant(self, name: str, *, clock: str = "wall",
                t: Optional[float] = None, **args: Any) -> None:
        """A point marker (cache hit, retry, heap compaction)."""
        self._emit("I", clock, t, name, args)

    @contextmanager
    def span(self, name: str, **args: Any):
        self.begin(name, **args)
        try:
            yield self
        finally:
            self.end(name)

    # -- readback ------------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events overwritten because the ring wrapped."""
        return max(0, self._seq - self.capacity)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> Iterator[dict]:
        """The ring oldest-to-newest (sequence order)."""
        return iter(self._ring)

    def dump(self) -> dict:
        """The flight-recorder dump embedded in fleet failure artifacts."""
        return {
            "schema": 1,
            "pid": self.pid,
            "capacity": self.capacity,
            "emitted": self._seq,
            "dropped": self.dropped,
            "events": list(self.events()),
        }

    def close(self) -> None:
        if self._mirror_fh is not None:
            self._mirror_fh.close()
            self._mirror_fh = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Recorder pid={self.pid} {len(self)}/{self.capacity} events"
                f" (+{self.dropped} dropped)>")


# -- process-global recorder --------------------------------------------------
#
# Instrumentation hooks across the stack read this single slot; ``None``
# (the default) means every hook reduces to one failed identity check.

_ACTIVE: Optional[Recorder] = None


def active() -> Optional[Recorder]:
    """The process-global recorder, or ``None`` when tracing is disabled."""
    return _ACTIVE


def enable(
    capacity: int = 8192,
    *,
    mirror: Union[str, Path, None] = None,
) -> Recorder:
    """Install (replacing any previous) the process-global recorder.

    Fork-safety: a worker forked while the parent records inherits the
    parent's recorder object; calling ``enable`` in the child installs a
    fresh one (own pid, own seq counter) and closes the inherited mirror
    handle in the child only.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = Recorder(capacity, mirror=mirror)
    return _ACTIVE


def disable() -> Optional[Recorder]:
    """Remove and return the process-global recorder (closing its mirror)."""
    global _ACTIVE
    rec, _ACTIVE = _ACTIVE, None
    if rec is not None:
        rec.close()
    return rec


@contextmanager
def recording(capacity: int = 8192, *, mirror: Union[str, Path, None] = None):
    """Scoped tracing: enable for the block, restore the prior state after."""
    global _ACTIVE
    previous = _ACTIVE
    rec = Recorder(capacity, mirror=mirror)
    _ACTIVE = rec
    try:
        yield rec
    finally:
        _ACTIVE = previous
        rec.close()


@contextmanager
def suspended():
    """Scoped *un*-tracing: detach the process-global recorder for the block
    (without closing it), restore it after.  For measurement sections whose
    numbers must reflect disabled-hook cost -- e.g. the kernel-throughput
    bench running inside an always-recording fleet worker."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    try:
        yield
    finally:
        _ACTIVE = previous
