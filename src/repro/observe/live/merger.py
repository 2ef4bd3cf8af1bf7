"""Watermark-sealed streaming merge of tailed mirror events.

The post-hoc merge (:func:`repro.observe.export.merge_events`) stable-
sorts the concatenation of name-sorted mirror files on
``(wall, pid, seq)``.  The live feed must serve *the same sequence* while
the mirrors are still growing, to many viewers at different positions, so
:class:`LiveMerger` splits the stream in two:

* a **sealed** prefix -- append-only, totally ordered on the full merge
  key ``(wall, pid, seq, filename, generation, line_index)``; viewers
  address it with a plain integer cursor and every viewer at the same
  cursor sees identical events, forever;
* a **pending** set -- events already tailed whose wall stamp is newer
  than the current watermark, still reorderable as slower mirrors catch
  up.

The watermark is ``scan_start - DEFAULT_HOLDBACK``: any event older than
that on a mirror we tail would have been flushed (mirrors flush per event)
before the scan started, so nothing older can still appear -- except via
the remote relay, which ships a worker's whole mirror tail only when its
job finishes.  While remote jobs are open the watermark is therefore
clamped below the oldest open job's start time (minus
:data:`REMOTE_MARGIN` for clock skew between machines), so a relay
arriving seconds later still lands in the pending set, never behind the
seal.

``late`` counts events that arrive below the seal anyway (extreme clock
skew, a mirror replayed from the past); they are served -- losing events
is worse than a blip in ordering -- and the counter surfaces on
``/status`` so the contract violation is visible.
"""

from __future__ import annotations

import heapq
import threading
from typing import Iterable, Optional

from .tailer import TailedEvent

__all__ = ["LiveMerger", "DEFAULT_HOLDBACK", "REMOTE_MARGIN"]

#: seconds behind "now" the seal trails: a local mirror's flush plus the
#: scheduler's poll granularity fit comfortably inside this
DEFAULT_HOLDBACK = 0.5

#: extra slack under an open remote job's start time (cross-machine wall
#: clocks are close, not equal)
REMOTE_MARGIN = 1.0


class LiveMerger:
    """Merge tailed events into an append-only, cursor-addressable feed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: list[tuple[tuple, dict]] = []
        self.sealed: list[dict] = []
        self.late = 0
        self.done = False
        self._last_key: Optional[tuple] = None
        self._remote = False
        self._open_remote: dict[tuple, float] = {}

    # -- ingestion (the poller thread) ---------------------------------------

    def add(self, tailed: TailedEvent) -> None:
        with self._lock:
            heapq.heappush(self._pending, (tailed.sort_key, tailed.event))

    def add_all(self, events: Iterable[TailedEvent]) -> None:
        for tailed in events:
            self.add(tailed)

    def note_fleet_record(self, record: dict) -> None:
        """Track open remote jobs from the fleet lifecycle log so the
        watermark never outruns a relay still in flight."""
        event = record.get("event")
        with self._lock:
            if event == "sweep-start":
                self._remote = False
                self._open_remote.clear()
            elif event == "pool-start":
                self._remote = bool(record.get("remote"))
            elif self._remote and record.get("digest") is not None:
                key = (record["digest"], record.get("attempt", 1))
                if event == "started":
                    self._open_remote[key] = record.get("t", 0.0)
                elif event in ("completed", "failed", "retry",
                               "lease-expired"):
                    # lease-expired closes a presumed-dead worker's job so
                    # one lost machine cannot stall the seal forever
                    self._open_remote.pop(key, None)

    # -- sealing -------------------------------------------------------------

    def watermark(self, scan_wall: float) -> float:
        """The seal frontier for a scan that *started* at ``scan_wall``."""
        with self._lock:
            mark = scan_wall - DEFAULT_HOLDBACK
            if self._open_remote:
                mark = min(mark, min(self._open_remote.values()) - REMOTE_MARGIN)
            return mark

    def seal(self, watermark: float) -> int:
        """Move pending events at or below ``watermark`` into the sealed
        feed, in full merge-key order; returns how many were sealed."""
        sealed = 0
        with self._lock:
            while self._pending and self._pending[0][0][0] <= watermark:
                key, event = heapq.heappop(self._pending)
                if self._last_key is not None and key < self._last_key:
                    self.late += 1
                else:
                    self._last_key = key
                self.sealed.append(event)
                sealed += 1
        return sealed

    def finalize(self) -> None:
        """Seal everything (the writers are gone) and mark the feed done."""
        with self._lock:
            while self._pending:
                key, event = heapq.heappop(self._pending)
                if self._last_key is not None and key < self._last_key:
                    self.late += 1
                else:
                    self._last_key = key
                self.sealed.append(event)
            self.done = True

    # -- the viewer feed (handler threads) -----------------------------------

    def events_since(
        self, cursor: int, limit: int = 1000, name: Optional[str] = None
    ) -> dict:
        """The viewer feed from ``cursor``.  ``name`` filters the returned
        events to those whose name starts with it -- applied *after* the
        cursor/limit slice, so the cursor remains a plain index into the
        global sealed sequence: a filtered viewer and an unfiltered one at
        the same cursor always advance identically, and a viewer can
        change (or drop) its filter mid-stream without losing position."""
        with self._lock:
            cursor = max(0, min(int(cursor), len(self.sealed)))
            window = self.sealed[cursor:cursor + max(1, int(limit))]
            new_cursor = cursor + len(window)
            if name:
                events = [
                    e for e in window
                    if str(e.get("name", "")).startswith(name)
                ]
            else:
                events = window
            return {
                "events": events,
                "cursor": new_cursor,
                "done": self.done and new_cursor >= len(self.sealed),
            }

    def stats(self) -> dict:
        with self._lock:
            return {
                "sealed": len(self.sealed),
                "pending": len(self._pending),
                "late": self.late,
                "open_remote_jobs": len(self._open_remote),
                "done": self.done,
            }
