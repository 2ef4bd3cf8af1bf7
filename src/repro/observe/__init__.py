"""``repro.observe`` -- self-observability for the reproduction stack.

The rest of the repo is built to *measure a simulated MPI program*; this
package exists to measure **us**: the fleet scheduler, its worker
processes, the simulation kernel, and the sanitizer.  Three pieces:

* :mod:`~repro.observe.recorder` -- a per-process **flight recorder**: a
  bounded ring of sequence-numbered structured events (span begin/end,
  counters, instant markers), near-zero cost when disabled.
  Fleet workers run one always-on; its dump lands in the failure artifact
  whenever a job crashes, times out, or exhausts its retries.
* :mod:`~repro.observe.export` -- owns the trace-directory layout: merges
  per-process JSONL mirrors by ``(wall, seq)`` and emits Chrome
  trace-event JSON (Perfetto-loadable).
* :mod:`~repro.observe.critical_path` -- post-hoc analysis of a sweep's
  fleet event log: the blocking job chain that bounds wall time, the
  worker-idle fraction, and the speedup-vs-serial decomposition
  (appended to ``BENCH_fleet.json`` by ``repro fleet sweep``).

Clock domains are explicit in the schema: host events carry wall time,
simulated events carry virtual time (``clock: "sim"``), and every event
also carries the wall clock at emission so streams merge across workers.
Everything except wall timestamps (and pids/durations derived from them)
is byte-stable across runs -- that is what the golden trace tests pin.

Trace output never reaches a *cached* fleet artifact (failure artifacts
are never cached), but the cache salt hashes the whole source tree, so an
observe edit still re-runs every job.  Its own imports from the fleet sit
at the edges only: the ``observe`` CLI finds a cache's event log through
:class:`~repro.fleet.cache.ResultCache`, and the live service and its
client speak the fleet's wire module (:mod:`repro.fleet.remote.wire`).
"""

from .critical_path import critical_path, render_critical_path, sweep_intervals
from .export import (
    deterministic_projection,
    merge_events,
    read_jsonl,
    to_chrome,
    write_chrome,
    write_jsonl,
)
from .recorder import (
    Recorder,
    active,
    disable,
    enable,
    recording,
    suspended,
)

__all__ = [
    "Recorder",
    "active",
    "enable",
    "disable",
    "recording",
    "suspended",
    "merge_events",
    "read_jsonl",
    "write_jsonl",
    "to_chrome",
    "write_chrome",
    "deterministic_projection",
    "critical_path",
    "sweep_intervals",
    "render_critical_path",
]
