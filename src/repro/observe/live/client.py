"""``repro observe watch`` -- the first live-feed consumer.

A plain-text streaming client: poll ``/events?cursor=`` until the feed
finalizes, printing one line per event.  ``--raw`` prints each event as
canonical sorted-key JSON -- exactly the line format of the merged
``trace.jsonl`` -- so a full watch from cursor 0, redirected to a file,
is byte-comparable with the post-hoc merge (CI does precisely that).
The human format is one aligned line per event with a closing swimlane /
critical-path summary.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Optional
from urllib.parse import quote

from ...fleet.remote.wire import (
    TOKEN_HEADER,
    Endpoint,
    WireError,
    parse_endpoint,
    request,
)

__all__ = ["watch", "format_event"]


def format_event(event: dict) -> str:
    wall = event.get("wall", 0.0)
    args = event.get("args") or {}
    rendered = " ".join(f"{k}={args[k]}" for k in sorted(args))
    return (
        f"{wall:17.6f} pid={event.get('pid', '?'):<8} "
        f"{event.get('kind', '?')} {event.get('name', '?')}"
        + (f"  {rendered}" if rendered else "")
    )


def _get(endpoint: Endpoint, path: str, token: Optional[str]) -> dict:
    headers = {TOKEN_HEADER: token} if token else None
    status, _, body = request(endpoint, "GET", path, None, headers,
                              timeout=30.0, retries=2)
    if status == 401:
        raise WireError("observatory refused the request (401): "
                        "pass --token / set REPRO_FLEET_TOKEN")
    if status != 200:
        raise WireError(f"GET {path} -> HTTP {status}")
    try:
        return json.loads(body.decode())
    except (ValueError, UnicodeDecodeError):
        raise WireError(f"GET {path} -> undecodable body")


def watch(
    endpoint,
    *,
    raw: bool = False,
    once: bool = False,
    cursor: int = 0,
    poll: float = 0.3,
    token: Optional[str] = None,
    name: Optional[str] = None,
    out=None,
) -> int:
    """Stream the live feed to ``out`` (stdout); returns an exit code.

    ``once`` drains whatever is sealed right now and returns instead of
    waiting for the feed to finalize.  ``name`` asks the observatory to
    return only events whose name starts with that prefix (server-side,
    so a narrow watch of a chatty sweep stays cheap on the wire); the
    cursor still tracks the full feed, so dropping the filter mid-watch
    resumes the complete stream without replays or gaps.
    """
    out = out if out is not None else sys.stdout
    target = parse_endpoint(endpoint)
    suffix = f"&name={quote(name)}" if name else ""
    try:
        while True:
            payload = _get(target,
                           f"/events?cursor={cursor}&limit=1000{suffix}",
                           token)
            events = payload.get("events") or []
            for event in events:
                if raw:
                    out.write(json.dumps(event, sort_keys=True) + "\n")
                else:
                    out.write(format_event(event) + "\n")
            out.flush()
            cursor = payload.get("cursor", cursor)
            if payload.get("done") and not events:
                break
            if not events:
                if once:
                    break
                time.sleep(poll)
    except WireError as exc:
        print(f"observe watch: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    if not raw:
        _print_summary(target, token, out)
    return 0


def _print_summary(target: Endpoint, token: Optional[str], out) -> None:
    try:
        lanes = _get(target, "/swimlanes", token)
        cpath = _get(target, "/critical-path", token)
    except WireError:
        return  # the sweep shut the service down right after done
    for name, info in (lanes.get("lanes") or {}).items():
        out.write(
            f"# lane {name}: {info.get('jobs', 0)} job(s), "
            f"last {info.get('last_job') or info.get('job') or '-'} "
            f"({info.get('last_status') or info.get('state')})\n"
        )
    bounding = cpath.get("bounding_phase")
    out.write(
        f"# critical path: {cpath.get('executed', 0)} executed, "
        f"{cpath.get('cached', 0)} cached, makespan "
        f"{cpath.get('makespan', 0.0)}s"
        + (f", {bounding}-bound\n" if bounding else "\n")
    )
    out.flush()
