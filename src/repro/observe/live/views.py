"""Derived live views: per-worker swimlanes and Consultant search state.

Both are record-at-a-time consumers in the style of
:class:`repro.observe.critical_path.IncrementalCriticalPath`, fed by the
service's poller thread and snapshotted (under the caller's
synchronization -- the server serializes through its poll lock) by the
``/swimlanes`` and ``/consultant`` handlers.

Swimlanes read the *fleet lifecycle log*: a lane is one execution slot --
a local fork-pool slot (``slot-N``, opened idle for every slot by the
pool's ``pool-start`` and named by the ``slot`` field on ``started``
records) or a remote worker id.  These are the lanes
(:func:`~repro.observe.critical_path.pool_lanes`,
:func:`~repro.observe.critical_path.lane_of`) the critical path counts
as workers, so ``workers`` is the number of lanes.  Consultant state
reads the *merged event feed*: the Performance Consultant emits
``pc.decide`` / ``pc.refine`` instants into the flight recorder as it
evaluates hypotheses, so a live viewer watches the search narrow while
the run is still going -- the paper's online-analysis loop,
reconstructed from the stream.
"""

from __future__ import annotations

from collections import Counter

from ..critical_path import lane_of, pool_lanes

__all__ = ["SwimlaneState", "ConsultantState"]


class SwimlaneState:
    """Per-slot/worker activity, derived from fleet lifecycle records."""

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self.remote = False
        self.lanes: dict[str, dict] = {}
        self._by_key: dict[tuple, str] = {}
        self.counts: Counter = Counter()

    def consume(self, record: dict) -> None:
        event = record.get("event")
        if event == "sweep-start":
            self._reset()
            return
        if event == "pool-start":
            self.remote = bool(record.get("remote"))
            for lane in pool_lanes(record):
                self.lanes.setdefault(lane, {"jobs": 0, "state": "idle"})
            return
        if event in ("queued", "cached-hit", "completed", "failed",
                     "retry", "started"):
            self.counts[event] += 1
        digest = record.get("digest")
        if digest is None:
            return
        key = (digest, record.get("attempt", 1))
        if event == "started":
            lane = lane_of(record)
            self._by_key[key] = lane
            entry = self.lanes.setdefault(lane, {"jobs": 0})
            entry.update(
                state="running",
                job=record.get("job", digest[:12]),
                digest=digest[:12],
                attempt=record.get("attempt", 1),
                since=record.get("t"),
            )
        elif event in ("completed", "failed", "retry", "lease-expired"):
            lane = self._by_key.pop(key, None)
            if lane is None or lane not in self.lanes:
                return
            entry = self.lanes[lane]
            entry["jobs"] += 1
            entry.update(
                state="idle",
                last_job=entry.pop("job", None),
                last_status=event,
                since=record.get("t"),
            )
            entry.pop("digest", None)
            entry.pop("attempt", None)

    def snapshot(self) -> dict:
        return {
            "workers": len(self.lanes),
            "remote": self.remote,
            "lanes": {name: dict(info) for name, info in
                      sorted(self.lanes.items())},
            "counts": dict(self.counts),
        }


class ConsultantState:
    """Live Performance Consultant search state, from ``pc.*`` instants."""

    def __init__(self) -> None:
        self.nodes: dict[str, dict] = {}
        self.decisions = 0
        self.refinements = 0

    def consume(self, event: dict) -> None:
        name = event.get("name")
        if name not in ("pc.decide", "pc.refine"):
            return
        args = event.get("args") or {}
        node = args.get("node")
        if node is None:
            return
        if name == "pc.decide":
            self.decisions += 1
            self.nodes[node] = {
                "state": args.get("state"),
                "value": args.get("value"),
                "metric": args.get("metric"),
                "depth": args.get("depth"),
                "wall": event.get("wall"),
            }
        else:
            self.refinements += 1
            entry = self.nodes.setdefault(node, {})
            entry["refined"] = True

    def snapshot(self) -> dict:
        by_state = Counter(
            str(info.get("state")) for info in self.nodes.values()
            if info.get("state") is not None
        )
        true_nodes = sorted(
            node for node, info in self.nodes.items()
            if info.get("state") == "TRUE"
        )
        return {
            "decisions": self.decisions,
            "refinements": self.refinements,
            "nodes": {node: dict(info) for node, info in
                      sorted(self.nodes.items())},
            "by_state": dict(by_state),
            "true_nodes": true_nodes,
        }
