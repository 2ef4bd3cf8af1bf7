"""``repro observe serve`` -- the live observatory service.

One :class:`LiveObservatory` serves many concurrent viewers from the
artifacts a sweep is writing *anyway*: the per-process flight-recorder
mirrors in the trace directory and the fleet lifecycle log.  Nothing in
the execution path blocks on a viewer -- the service is a read-only
tailer with its own poller thread -- so live viewing perturbs neither
timings nor cached artifacts.

    =============================  =========================================
    ``GET /health``                liveness (credential-free)
    ``GET /status``                tailer/merger/feed counters
    ``GET /events?cursor=N``       sealed event feed from ``N`` (see below)
    ``GET /swimlanes``             per-slot/worker activity
    ``GET /critical-path``         rolling critical-path summary
    ``GET /consultant``            live Performance Consultant search state
    =============================  =========================================

Cursor semantics: the feed is an append-only sealed prefix of the merged
event stream; ``cursor`` is a plain index into it.  Every viewer at the
same cursor receives identical events in identical order, and the full
replay from cursor 0 equals the post-hoc ``export.py`` merge of the same
mirrors.  ``done: true`` means the feed is finalized *and* the response
reached its end -- a client drains by looping until both.

Poll order matters: the fleet log is tailed *before* the mirror scan in
every cycle, because the remote pool writes a relayed mirror file before
re-emitting the attempt's terminal record -- so by the time a terminal
record advances any derived view, the mirror behind it is already being
tailed, and the watermark clamp (see :mod:`.merger`) has already seen
the job open.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs, urlparse

from ...fleet.remote.wire import (
    BackgroundServer,
    JsonRequestHandler,
)
from ..critical_path import IncrementalCriticalPath
from .merger import LiveMerger
from .tailer import DirectoryTailer, MirrorTail
from .views import ConsultantState, SwimlaneState

__all__ = ["LiveObservatory"]


class LiveObservatory(BackgroundServer):
    """Tail a trace directory (and optionally the fleet event log) and
    serve the merged live feed plus derived views.

    ``trace_dir`` holds the flight-recorder mirrors; ``events_path`` is
    the fleet lifecycle log (swimlanes, critical path, and the remote
    watermark clamp all come from it -- without one the event feed still
    works, the derived views stay empty).
    """

    def __init__(
        self,
        trace_dir: Union[str, Path],
        events_path: Union[str, Path, None] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        poll_interval: float = 0.15,
    ) -> None:
        super().__init__(host, port, token=token)
        self.trace_dir = Path(trace_dir)
        self.events_path = Path(events_path) if events_path else None
        self.poll_interval = poll_interval
        self.tailer = DirectoryTailer(self.trace_dir)
        self.merger = LiveMerger()
        self.swimlanes = SwimlaneState()
        self.consultant = ConsultantState()
        self.cpath = IncrementalCriticalPath()
        self._fleet_tail = (
            MirrorTail(self.events_path) if self.events_path else None
        )
        self._view_cursor = 0
        self.fleet_records = 0
        self.poll_errors = 0
        # one lock serializes the poller against view snapshots; the feed
        # itself has its own lock inside the merger
        self._poll_lock = threading.Lock()
        self._stop = threading.Event()
        self._poller: Optional[threading.Thread] = None

    def _handler_class(self):
        return _LiveHandler

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "LiveObservatory":
        super().start()
        if self._poller is None:
            self._stop.clear()
            self._poller = threading.Thread(
                target=self._poll_loop, daemon=True,
                name=f"LiveObservatory-poller:{self.port}",
            )
            self._poller.start()
        return self

    def shutdown(self) -> None:
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=5.0)
            self._poller = None
        super().shutdown()

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.poll_once()
            except Exception:  # pragma: no cover - keep the service alive
                self.poll_errors += 1

    # -- one poll cycle ------------------------------------------------------

    def poll_once(self) -> int:
        """Tail the fleet log, then the mirrors, then advance the seal;
        returns how many events were sealed this cycle."""
        with self._poll_lock:
            if self._fleet_tail is not None:
                for tailed in self._fleet_tail.poll():
                    record = tailed.event
                    self.fleet_records += 1
                    self.merger.note_fleet_record(record)
                    self.cpath.consume(record)
                    self.swimlanes.consume(record)
            # the watermark is anchored at the moment the mirror scan
            # *starts*: anything flushed before this instant is either in
            # this scan or in an earlier one
            scan_wall = time.time()
            self.merger.add_all(self.tailer.poll())
            sealed = self.merger.seal(self.merger.watermark(scan_wall))
            self._advance_views()
            return sealed

    def _advance_views(self) -> None:
        sealed = self.merger.sealed
        while self._view_cursor < len(sealed):
            self.consultant.consume(sealed[self._view_cursor])
            self._view_cursor += 1

    def finalize(self) -> None:
        """The writers are done (pool drained, mirrors closed): drain one
        last poll, seal everything, mark the feed done."""
        self.poll_once()
        with self._poll_lock:
            self.merger.finalize()
            self._advance_views()

    # -- view snapshots (handler threads) ------------------------------------

    def health(self) -> dict:
        stats = self.merger.stats()
        return {
            "status": "ok",
            "service": "repro-live-observatory",
            "sealed": stats["sealed"],
            "done": stats["done"],
        }

    def status(self) -> dict:
        with self._poll_lock:
            return {
                "trace_dir": str(self.trace_dir),
                "events_path": (
                    str(self.events_path) if self.events_path else None
                ),
                "fleet_records": self.fleet_records,
                "poll_errors": self.poll_errors,
                "tailer": self.tailer.stats(),
                **self.merger.stats(),
            }

    def swimlanes_snapshot(self) -> dict:
        with self._poll_lock:
            return self.swimlanes.snapshot()

    def critical_path_snapshot(self) -> dict:
        with self._poll_lock:
            return self.cpath.summary()

    def consultant_snapshot(self) -> dict:
        with self._poll_lock:
            return self.consultant.snapshot()


class _LiveHandler(JsonRequestHandler):
    @property
    def live(self) -> LiveObservatory:
        return self.server.service

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/health":
            # liveness stays open (probes, `observe watch` discovery)
            self.send_json(200, self.live.health())
            return
        if not self._authorized():
            return
        if parsed.path == "/status":
            self.send_json(200, self.live.status())
        elif parsed.path == "/events":
            query = parse_qs(parsed.query)
            try:
                cursor = int(query.get("cursor", ["0"])[0])
            except ValueError:
                cursor = 0
            try:
                limit = int(query.get("limit", ["1000"])[0])
            except ValueError:
                limit = 1000
            name = query.get("name", [""])[0] or None
            self.send_json(
                200, self.live.merger.events_since(cursor, limit, name=name)
            )
        elif parsed.path == "/swimlanes":
            self.send_json(200, self.live.swimlanes_snapshot())
        elif parsed.path == "/critical-path":
            self.send_json(200, self.live.critical_path_snapshot())
        elif parsed.path == "/consultant":
            self.send_json(200, self.live.consultant_snapshot())
        else:
            self.send_json(404, {"error": "unknown endpoint"})
