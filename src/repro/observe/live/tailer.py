"""Incremental JSONL mirror tailing: per-file byte cursors, no re-reads.

The flight recorder (:mod:`repro.observe.recorder`) mirrors each event as
one flushed JSONL line, so a mirror is an append-only stream with at most
one torn line at the end (a writer caught mid-``write``).  A
:class:`MirrorTail` remembers its byte offset between polls and only ever
reads the suffix; the torn tail is buffered and completed by the next
poll, never skipped and never double-delivered.

Rotation/truncation (a re-run re-opening the same mirror name, or a
crashed writer replaced by its retry attempt) is detected by inode change
or by the file shrinking below the cursor; the tail restarts from offset
zero under a bumped ``generation`` so downstream consumers can tell the
new stream's line numbers from the old one's.

:class:`DirectoryTailer` scans a trace directory for mirrors the way the
post-hoc merge does (:func:`repro.observe.export.mirror_files`) and keeps
one :class:`MirrorTail` per file, picking up mirrors that appear mid-run --
local workers fork lazily and remote relays land whole files at once.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator, Optional, Union

from ..export import mirror_files

__all__ = ["MirrorTail", "DirectoryTailer", "TailedEvent"]


class TailedEvent:
    """One decoded mirror line plus where it came from.

    ``(filename, generation, line_index)`` is the tie-break tail of the
    merge key: events equal on ``(wall, pid, seq)`` must replay in the
    same order the post-hoc stable sort puts them -- file-name order,
    then line order within the file.
    """

    __slots__ = ("event", "filename", "generation", "line_index")

    def __init__(self, event: dict, filename: str, generation: int,
                 line_index: int) -> None:
        self.event = event
        self.filename = filename
        self.generation = generation
        self.line_index = line_index

    @property
    def sort_key(self) -> tuple:
        e = self.event
        return (
            e.get("wall", 0.0), e.get("pid", 0), e.get("seq", 0),
            self.filename, self.generation, self.line_index,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TailedEvent {self.filename}:{self.line_index} "
                f"gen={self.generation}>")


class MirrorTail:
    """Tail one JSONL mirror incrementally.

    ``poll()`` reads everything appended since the last poll and yields
    :class:`TailedEvent` per complete, decodable line.  State:

    * ``pos`` -- byte offset of the next unread byte;
    * ``buffer`` -- a trailing partial line awaiting its newline;
    * ``lines`` -- complete lines consumed (the next ``line_index``);
    * ``generation`` -- bumped on rotation/truncation;
    * ``skipped`` -- complete lines that failed to decode (same lines the
      post-hoc :func:`repro.observe.export.read_jsonl` drops).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.pos = 0
        self.buffer = b""
        self.lines = 0
        self.generation = 0
        self.rotations = 0
        self.skipped = 0
        self._inode: Optional[int] = None

    def _detect_rotation(self) -> bool:
        try:
            stat = os.stat(self.path)
        except OSError:
            # vanished: treat as truncated-to-zero; if it reappears the
            # next poll restarts it under the next generation
            if self.pos or self.buffer:
                self._rotate()
            return False
        if self._inode is None:
            self._inode = stat.st_ino
            return True
        if stat.st_ino != self._inode or stat.st_size < self.pos:
            self._inode = stat.st_ino
            self._rotate()
        return True

    def _rotate(self) -> None:
        self.generation += 1
        self.rotations += 1
        self.pos = 0
        self.buffer = b""
        self.lines = 0

    def poll(self) -> Iterator[TailedEvent]:
        """Yield events appended since the last poll (possibly none)."""
        if not self._detect_rotation():
            return
        try:
            with self.path.open("rb") as fh:
                fh.seek(self.pos)
                chunk = fh.read()
        except OSError:  # pragma: no cover - raced a concurrent rotation
            return
        if not chunk:
            return
        self.pos += len(chunk)
        data = self.buffer + chunk
        pieces = data.split(b"\n")
        self.buffer = pieces.pop()  # b"" when the chunk ended on a newline
        for piece in pieces:
            line = piece.strip()
            index = self.lines
            self.lines += 1
            if not line:
                continue
            try:
                event = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.skipped += 1
                continue
            if not isinstance(event, dict):
                self.skipped += 1
                continue
            yield TailedEvent(event, self.path.name, self.generation, index)


class DirectoryTailer:
    """Tail every mirror in a trace directory, discovering new ones."""

    def __init__(self, trace_dir: Union[str, Path]) -> None:
        self.trace_dir = Path(trace_dir)
        self.tails: dict[str, MirrorTail] = {}

    def poll(self) -> list[TailedEvent]:
        """One scan: pick up new mirrors, drain every tail."""
        for path in mirror_files(self.trace_dir):
            if path.name not in self.tails:
                self.tails[path.name] = MirrorTail(path)
        out: list[TailedEvent] = []
        for name in sorted(self.tails):
            out.extend(self.tails[name].poll())
        return out

    def stats(self) -> dict:
        return {
            "mirrors": len(self.tails),
            "lines": sum(t.lines for t in self.tails.values()),
            "rotations": sum(t.rotations for t in self.tails.values()),
            "skipped": sum(t.skipped for t in self.tails.values()),
        }
