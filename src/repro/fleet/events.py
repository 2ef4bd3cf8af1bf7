"""JSONL lifecycle log for fleet sweeps.

Every job transition is one appended line -- ``queued`` -> ``started`` ->
``cached-hit`` | ``completed`` | ``retry``* | ``failed`` -- plus one
``sweep-summary`` record at the end, so an interrupted sweep still leaves a
complete forensic trail.  The log is wall-clock-stamped (artifacts are not:
they must stay byte-identical across reruns, timestamps live here instead).
Readers load it with :func:`repro.observe.export.read_jsonl`, which skips a
line torn by a crash mid-append; the next :class:`EventLog` on the file
starts a fresh line after it, so the tear costs that one record.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional, Union

__all__ = ["EventLog"]


class EventLog:
    """Append-only event recorder; optionally mirrored to a JSONL file."""

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        *,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.records: list[dict] = []
        self._clock = clock
        self._fh = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("ab+")
            if self._fh.tell():  # append mode opens at the end
                self._fh.seek(-1, os.SEEK_END)
                if self._fh.read(1) != b"\n":
                    self._fh.write(b"\n")  # end a line torn mid-append

    def emit(self, event: str, *, t: Optional[float] = None, **fields: Any) -> dict:
        """Append one record.  ``t`` overrides the clock stamp -- the remote
        pool re-emits coordinator events with the *coordinator's* timestamps
        preserved, so cross-process event ordering survives the relay."""
        record = {"t": round(self._clock() if t is None else t, 6),
                  "event": event, **fields}
        self.records.append(record)
        if self._fh is not None:
            self._fh.write((json.dumps(record, sort_keys=True) + "\n").encode())
            self._fh.flush()
        return record

    def counts(self) -> dict[str, int]:
        return dict(Counter(r["event"] for r in self.records))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

