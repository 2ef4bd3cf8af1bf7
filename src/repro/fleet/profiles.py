"""Job walls for the sweep's longest-predicted-first schedule: a sweep
records each executed job's wall as a ``per_job`` row of its summary
(``BENCH_fleet.json``) and as a ``completed`` record of the cache's
``events.jsonl``, and :func:`learned_walls` reads both back."""

from __future__ import annotations

import json
from pathlib import Path

from ..observe.export import read_jsonl

__all__ = ["learned_walls"]


def learned_walls(summary: Path | None, events: Path | None) -> dict[str, float]:
    """Each job label's latest executed wall: the summary's ``per_job`` rows
    (cached rows skipped), then the log's ``completed`` records (store hits
    skipped); a later row wins.  The walls are advisory, so an unreadable
    file or row contributes nothing."""
    rows: list = []
    if summary is not None:
        try:
            rows += json.loads(Path(summary).read_text())["per_job"]
        except (OSError, ValueError, TypeError, KeyError):
            pass  # no summary yet, or one without a per_job table
    if events is not None:
        try:
            rows += [r for r in read_jsonl(events) if r.get("event") == "completed"]
        except (OSError, ValueError):
            pass  # a directory squatting on the name, or undecodable bytes
    walls: dict[str, float] = {}
    for row in rows:
        try:
            if not (row.get("cached") or row.get("store_hit")):
                walls[str(row["job"])] = float(row["wall"])
        except (AttributeError, KeyError, TypeError, ValueError):
            pass
    return walls
