"""Critical-path analysis of a fleet sweep.

Input is the fleet's JSONL lifecycle log (:mod:`repro.fleet.events`):
``started`` / ``completed`` / ``retry`` / ``failed`` / ``cached-hit``
records, each wall-stamped.  From the per-attempt execution intervals we
derive what actually bounded the sweep's wall clock:

* the **blocking chain** -- walked backwards from the last-finishing
  attempt: each link is the attempt whose completion (most recently before
  the current link started) freed the worker slot the current link ran on.
  The chain is the sweep's critical path under greedy scheduling: shorten
  any link and the makespan moves.
* the **worker-idle fraction** -- ``1 - busy / (workers * makespan)``,
  the headroom a better schedule (or more cache hits) could reclaim.
  ``workers`` counts the sweep's lanes: every slot of a local fork pool
  (:func:`pool_lanes`, from its ``pool-start``), whether or not a job
  reached it, plus each executor a ``started`` record names
  (:func:`lane_of`) -- on a remote sweep, the workers that served it, 0
  when nothing ran;
* the **speedup-vs-serial decomposition** -- executed worker-seconds over
  makespan, next to the job/cache-hit counts that explain it;
* the **phase decomposition** -- *warm* and *render* are windows over the
  job events themselves (a ``render:`` job label is render, anything else
  warm; the sweep runs both in one pool, so they overlap), plus any
  ``phase-start`` / ``phase-end`` marker pair the sweep logs (*collect*).

All inputs are wall timestamps, so the numbers are not byte-stable -- only
the *structure* (job names, counts) is; ``repro fleet sweep`` appends the
summary to ``BENCH_fleet.json`` and ``repro observe critical-path``
renders it after the fact.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "sweep_intervals",
    "phase_of",
    "lane_of",
    "pool_lanes",
    "critical_path",
    "render_critical_path",
    "IncrementalCriticalPath",
]

#: slack allowed between one attempt's finish and its successor's launch
#: (scheduler poll granularity + fork cost) when linking the blocking chain
CHAIN_TOLERANCE = 0.5


def phase_of(job: str) -> str:
    """The sweep phase a job belongs to, by its label."""
    return "render" if job.startswith("render:") else "warm"


def lane_of(record: dict) -> str:
    """The executor a ``started`` record names: the ``worker`` of a remote
    record, else ``slot-N`` for a local fork-pool slot."""
    return record.get("worker") or f"slot-{record.get('slot', '?')}"


def pool_lanes(record: dict) -> list[str]:
    """The lanes a ``pool-start`` record opens: ``slot-0`` .. ``slot-N-1``
    for a local fork pool of ``workers`` slots.  A remote pool opens none;
    its workers become lanes as they start this sweep's jobs."""
    return [f"slot-{n}" for n in range(record.get("workers") or 0)]


class IncrementalCriticalPath:
    """Record-at-a-time consumer behind both analysis paths.

    The post-hoc :func:`critical_path` feeds it a whole log at once; the
    live service (:mod:`repro.observe.live`) feeds it fleet records as
    they are tailed and calls :meth:`summary` per ``/critical-path``
    request.  State is the running interval/phase/cache bookkeeping --
    O(records) memory, O(1) per record -- with the chain walk deferred
    to :meth:`summary` (it needs the full interval set anyway).  A
    ``sweep-start`` record resets it, so a long-lived consumer of an
    appended-forever log tracks the most recent sweep.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        #: the pool's slots and the executors ``started`` records name
        self.lanes: set[str] = set()
        self._starts: dict[tuple, float] = {}
        self.intervals: list[dict] = []
        self.cached: list[dict] = []
        self._phase_open: dict[str, float] = {}
        self.windows: dict[str, tuple[float, float]] = {}
        self.predicted: dict[str, float] = {}

    def consume(self, record: dict) -> None:
        event = record.get("event")
        if event == "sweep-start":
            self._reset()
        if event == "pool-start":
            self.lanes.update(pool_lanes(record))
            return
        digest = record.get("digest")
        if event == "queued":
            if record.get("predicted") is not None:
                self.predicted[digest] = float(record["predicted"])
        elif event == "started":
            self._starts[(digest, record.get("attempt", 1))] = record["t"]
            self.lanes.add(lane_of(record))
        elif event in ("completed", "failed", "retry"):
            key = (digest, record.get("attempt", 1))
            t0 = self._starts.pop(key, None)
            if t0 is None:
                return
            self.intervals.append({
                "job": record.get("job", digest),
                "digest": digest,
                "attempt": record.get("attempt", 1),
                "start": t0,
                "end": record["t"],
                "status": "completed" if event == "completed" else "failed",
            })
        elif event == "cached-hit":
            self.cached.append({
                "job": record.get("job", digest),
                "digest": digest,
                "t": record["t"],
            })
        elif event == "phase-start" and record.get("phase") is not None:
            self._phase_open[record["phase"]] = record["t"]
        elif event == "phase-end" and record.get("phase") in self._phase_open:
            phase = record["phase"]
            self.windows[phase] = (self._phase_open.pop(phase), record["t"])

    def consume_all(self, records: Iterable[dict]) -> "IncrementalCriticalPath":
        for record in records:
            self.consume(record)
        return self

    def summary(self) -> dict:
        """The critical-path summary over everything consumed so far."""
        intervals, cached = self.intervals, self.cached
        # per-phase wall, job counts and busy time: marker windows
        # (collect), then the job-event windows of warm and render
        phases = {name: {"wall": round(p1 - p0, 3), "executed": 0, "cached": 0,
                         "busy": 0.0}
                  for name, (p0, p1) in self.windows.items()}
        for name in ("warm", "render"):
            runs = [i for i in intervals if phase_of(i["job"]) == name]
            hits = [c["t"] for c in cached if phase_of(c["job"]) == name]
            edges = [t for i in runs for t in (i["start"], i["end"])] + hits
            if not edges:
                continue
            phases[name] = {
                "wall": round(max(edges) - min(edges), 3),
                "executed": len(runs),
                "cached": len(hits),
                "busy": round(sum(i["end"] - i["start"] for i in runs), 3),
            }
        bounding = (
            max(phases, key=lambda name: phases[name]["wall"]) if phases else None
        )
        workers = len(self.lanes)
        if not intervals:
            return {
                "workers": workers,
                "executed": 0,
                "cached": len(cached),
                "makespan": 0.0,
                "busy": 0.0,
                "worker_idle_fraction": None,
                "speedup_vs_serial": None,
                "phases": phases,
                "bounding_phase": bounding,
                "chain": [],
                "chain_wall": 0.0,
                "chain_coverage": None,
                "scheduling": self.scheduling(),
            }
        t_start = min(i["start"] for i in intervals)
        t_end = max(i["end"] for i in intervals)
        makespan = t_end - t_start
        busy = sum(i["end"] - i["start"] for i in intervals)
        idle = (
            max(0.0, 1.0 - busy / (workers * makespan))
            if workers and makespan > 0
            else None
        )
        chain = _chain(intervals, t_start)
        chain_wall = sum(i["end"] - i["start"] for i in chain)
        return {
            "workers": workers,
            "executed": len(intervals),
            "cached": len(cached),
            "makespan": round(makespan, 3),
            "busy": round(busy, 3),
            "worker_idle_fraction": round(idle, 4) if idle is not None else None,
            "speedup_vs_serial": round(busy / makespan, 2) if makespan > 0 else None,
            # per-phase decomposition of the sweep (collect / warm / render):
            # which phase bounds the wall clock, and what each one did
            "phases": phases,
            "bounding_phase": bounding,
            "chain": [
                {
                    "job": i["job"],
                    "digest": (i["digest"] or "")[:12],
                    "attempt": i["attempt"],
                    "status": i["status"],
                    "start": round(i["start"] - t_start, 3),
                    "wall": round(i["end"] - i["start"], 3),
                }
                for i in chain
            ],
            "chain_wall": round(chain_wall, 3),
            "chain_coverage": round(chain_wall / makespan, 4) if makespan > 0 else None,
            "scheduling": self.scheduling(),
        }

    def scheduling(self) -> dict:
        """Scheduling-efficiency metrics (the BENCH_fleet ``scheduling``
        block): how good were the profile predictions, how tight is the
        packing against the LPT lower bound, and how long before the last
        warm job ended the first render started.
        """
        intervals = self.intervals
        out: dict = {
            "predicted_jobs": len(self.predicted),
            "prediction": None,
            "packing": None,
            "render_admission": None,
        }
        if not intervals:
            return out
        errors = []
        for i in intervals:
            pred = self.predicted.get(i["digest"])
            if pred is None or i["attempt"] != 1 or i["status"] != "completed":
                continue
            actual = i["end"] - i["start"]
            errors.append((actual - pred) / max(actual, 1e-9))
        if errors:
            out["prediction"] = {
                "jobs": len(errors),
                "mean_abs_error": round(sum(abs(e) for e in errors) / len(errors), 4),
                "mean_error": round(sum(errors) / len(errors), 4),
            }
        t_start = min(i["start"] for i in intervals)
        t_end = max(i["end"] for i in intervals)
        makespan = t_end - t_start
        busy = sum(i["end"] - i["start"] for i in intervals)
        longest = max(i["end"] - i["start"] for i in intervals)
        workers = len(self.lanes)
        # the LPT lower bound: no schedule beats the longest single job, nor
        # the perfectly level-packed busy time across all workers
        lower = max(longest, busy / workers) if workers else longest
        out["packing"] = {
            "makespan": round(makespan, 3),
            "lower_bound": round(lower, 3),
            "longest_job": round(longest, 3),
            "efficiency": round(lower / makespan, 4) if makespan > 0 else None,
        }
        renders = [i for i in intervals if phase_of(i["job"]) == "render"]
        others = [i for i in intervals if phase_of(i["job"]) == "warm"]
        if renders and others:
            warm_end = max(i["end"] for i in others)
            first_render = min(i["start"] for i in renders)
            out["render_admission"] = {
                "renders_executed": len(renders),
                # positive = renders started before the last warm job ended,
                # i.e. pipelining beat a warm/render barrier by this much
                "lead": round(warm_end - first_render, 3),
                "early_admissions": sum(
                    1 for i in renders if i["start"] < warm_end
                ),
            }
        return out


def sweep_intervals(records: Iterable[dict]) -> tuple[list[dict], list[dict]]:
    """Per-attempt execution intervals (and cache hits) from a sweep's log.

    Returns ``(intervals, cached)``: each interval is one worker-process
    execution ``{job, digest, attempt, start, end, status}``; retries
    produce one interval per attempt.
    """
    state = IncrementalCriticalPath().consume_all(records)
    return state.intervals, state.cached


def _chain(intervals: list[dict], t_start: float) -> list[dict]:
    """Walk the blocking chain back from the last finisher."""
    if not intervals:
        return []
    current = max(intervals, key=lambda i: i["end"])
    chain = [current]
    while current["start"] - t_start > CHAIN_TOLERANCE:
        blockers = [
            i for i in intervals
            if i is not current
            and i["end"] <= current["start"] + CHAIN_TOLERANCE
            and i["start"] < current["start"]
        ]
        if not blockers:
            break
        current = max(blockers, key=lambda i: i["end"])
        chain.append(current)
    chain.reverse()
    return chain


def critical_path(records: Iterable[dict]) -> dict:
    """Summarize what bounded a sweep's wall clock (see module docstring)."""
    return IncrementalCriticalPath().consume_all(records).summary()


def render_critical_path(summary: dict) -> str:
    """Human-readable rendering (``repro observe critical-path``)."""
    lines = []
    lines.append(
        f"sweep: {summary['executed']} executed + {summary['cached']} cached "
        f"job(s) on {summary['workers']} worker(s); "
        f"makespan {summary['makespan']}s, busy {summary['busy']}s"
    )
    idle = summary.get("worker_idle_fraction")
    speedup = summary.get("speedup_vs_serial")
    lines.append(
        f"worker idle fraction: "
        f"{f'{idle:.1%}' if idle is not None else 'n/a'}; "
        f"speedup vs serial: {speedup if speedup is not None else 'n/a'}x"
    )
    phases = summary.get("phases") or {}
    if phases:
        parts = [
            f"{name} {info['wall']}s ({info['executed']} executed, "
            f"{info['cached']} cached)"
            for name, info in phases.items()
        ]
        bounding = summary.get("bounding_phase")
        lines.append(
            "phases: " + " | ".join(parts)
            + (f"; sweep is {bounding}-bound" if bounding else "")
        )
    sched = summary.get("scheduling") or {}
    packing = sched.get("packing")
    if packing:
        eff = packing.get("efficiency")
        line = (
            f"packing: makespan {packing['makespan']}s vs LPT lower bound "
            f"{packing['lower_bound']}s"
            + (f" ({eff:.0%} efficient)" if eff is not None else "")
        )
        prediction = sched.get("prediction")
        if prediction:
            line += (
                f"; prediction |err| {prediction['mean_abs_error']:.0%} "
                f"over {prediction['jobs']} job(s)"
            )
        lines.append(line)
    admission = sched.get("render_admission")
    if admission:
        lines.append(
            f"render admission: {admission['early_admissions']} of "
            f"{admission['renders_executed']} render(s) admitted before the "
            f"last warm job ended (lead {admission['lead']}s)"
        )
    chain = summary.get("chain", [])
    if not chain:
        lines.append("blocking chain: none (nothing executed -- warm cache?)")
    else:
        coverage = summary.get("chain_coverage")
        lines.append(
            f"blocking chain ({len(chain)} link(s), {summary['chain_wall']}s, "
            f"{f'{coverage:.0%}' if coverage is not None else '?'} of makespan):"
        )
        for link in chain:
            lines.append(
                f"  t+{link['start']:>8.3f}s  {link['wall']:>8.3f}s  "
                f"{link['job']} (attempt {link['attempt']}, {link['status']})"
            )
    return "\n".join(lines)
