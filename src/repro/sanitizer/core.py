"""The sanitizer proper: event collection and the four detector families.

The :class:`Sanitizer` attaches to an :class:`~repro.mpi.world.MpiUniverse`
*before* launch and observes the run through four hook families:

* per-process **call hooks** (one entry and one exit hook around every
  simulated call, both feeding :meth:`Sanitizer._on_trace`) -- MPI
  synchronization tracking, vector clocks, request bookkeeping, message
  counters, and the determinism digest;
* the universe's **window hooks** plus per-window **observers** -- strict
  epoch checking and happens-before race detection for every recorded
  put/get/accumulate;
* the universe's **event hooks** (``recv_matched``) -- truncation and
  datatype-mismatch checks at match time;
* the kernel's **deadlock hooks** -- wait-for-graph analysis while the
  blocked stacks are still frozen.

A call pays only for the bytes it adds to the digest and the handler it
runs: each hook memoizes, per called function, its digest-line suffix and
its handler; the line's time stamp is formatted once per instant; and the
lines are hashed one block at a time.  The digest is sha256 over the same
``{now!r}|{idx}|{name}|{event}`` lines as when each event was hashed alone.

The engine itself is deliberately permissive about access epochs (windows
open a fence epoch at creation, matching the real implementations' laziness)
so the sanitizer keeps its own *strict* MPI-standard epoch state machine:
NONE until the first ``MPI_Win_fence``, START restricted to the start group,
LOCK restricted to the locked target, FREED after ``MPI_Win_free``.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Any

from ..mpi.impls.base import COLL_TAG_BASE
from ..mpi.rma import RmaOpKind
from ..mpi.status import Request
from .deadlock import analyze_deadlock
from .findings import Finding, FindingKind
from .vclock import CowClock, vc_concurrent, vc_join, vc_leq, vc_round_join

__all__ = ["Sanitizer", "normalize_mpi_name"]


def normalize_mpi_name(name: str) -> str:
    """Fold profiling-interface names (``PMPI_Send``) onto ``MPI_Send``."""
    if name.startswith("PMPI_"):
        return "MPI_" + name[5:]
    return name


# access-epoch states of the strict tracker
_NONE, _FENCE, _START, _LOCK, _FREED = "none", "fence", "start", "lock", "freed"

# RMA op kinds that conflict when overlapping and concurrent: everything
# except GET/GET (both read) and ACC/ACC (the standard makes same-op
# accumulates to the same location well-defined).
def _kinds_conflict(a: str, b: str) -> bool:
    return not ((a == "G" and b == "G") or (a == "A" and b == "A"))


_KIND_CHAR = {RmaOpKind.PUT: "P", RmaOpKind.GET: "G", RmaOpKind.ACCUMULATE: "A"}

#: digest bytes buffered before one ``sha256.update`` over them, about two
#: thousand lines (hashing the concatenation gives the digest per-line
#: updates give)
_DIGEST_BLOCK = 1 << 16


class _EpCounters:
    __slots__ = ("sent_msgs", "sent_bytes", "recv_msgs", "recv_bytes",
                 "puts", "gets", "accs", "rma_bytes")

    def __init__(self) -> None:
        self.sent_msgs = 0
        self.sent_bytes = 0
        self.recv_msgs = 0
        self.recv_bytes = 0
        self.puts = 0
        self.gets = 0
        self.accs = 0
        self.rma_bytes = 0


class Sanitizer:
    """One universe's correctness monitor.  Attach before ``launch``."""

    def __init__(self, universe) -> None:
        self.universe = universe
        self.findings: list[Finding] = []
        self.deadlock_reported = False

        self._eps: list[Any] = []
        self._ep_index: dict[int, int] = {}  # id(ep) -> stable index
        # every rank starts from ONE shared empty base, so pre-first-sync
        # stamps already share a base and race checks take the O(delta)
        # fast path (bases are never mutated; ticks go to the delta)
        self._clock_genesis: dict[int, int] = {}
        self._clocks: list[CowClock] = []
        self._counters: list[_EpCounters] = []
        self._requests: list[dict[int, tuple[str, int]]] = []
        # ep indexes that entered MPI_Finalize -- tracked at *entry*, not via
        # proc.exited: a rank blocked inside the collective finalize has
        # committed to never completing its requests, so its leaks are real
        # even when a deadlock elsewhere keeps it from exiting
        self._in_finalize: set[int] = set()

        #: connected (spawn) intercommunicators, for finalize leak checks
        self._intercomms: list[Any] = []

        self._windows: list[Any] = []
        # strict epoch state, keyed by window *object* (ids may be reused)
        self._wstate: dict[int, dict[int, str]] = {}
        self._fence_open: dict[int, set[int]] = {}
        self._start_group: dict[int, dict[int, tuple[int, ...]]] = {}
        self._lock_target: dict[int, dict[int, int]] = {}
        # race-candidate buffers, per window then per *target rank* (ops on
        # different targets never conflict, so each op only scans its own
        # target's list): (origin_idx, origin_rank, target, lo, hi,
        # kind_char, stamp, fence_epoch).  fence_epoch is the origin's
        # fence-round counter at op time -- fence completion prunes by
        # integer compare instead of a vector-clock comparison per op.
        self._ops: dict[int, dict[int, list[tuple]]] = {}
        self._race_seen: set[tuple] = set()
        self._uaf_seen: set[tuple] = set()
        self._freed_swept: set[int] = set()

        # fence / barrier vector-clock rounds.  The *_joined caches hold
        # each round's interned join, computed once at the first exit and
        # shared (by reference) across every exiting rank
        self._fence_round: dict[int, dict[int, int]] = {}
        self._fence_entry: dict[tuple[int, int], dict[int, CowClock]] = {}
        self._fence_exits: dict[tuple[int, int], int] = {}
        self._fence_joined: dict[tuple[int, int], dict] = {}
        self._barrier_round: dict[tuple[int, int], int] = {}
        self._barrier_entry: dict[tuple[int, int], dict[int, CowClock]] = {}
        self._barrier_exits: dict[tuple[int, int], int] = {}
        self._barrier_joined: dict[tuple[int, int], dict] = {}
        # per-round memo of "does this (rebased) clock base already
        # dominate the round join?" -- id(base) -> (base ref, verdict);
        # the ref pins the dict so its id cannot be recycled mid-round
        self._round_dom: dict[tuple[int, int], dict[int, tuple[dict, bool]]] = {}
        # passive-target lock epochs are SHARED or EXCLUSIVE.  An exclusive
        # grant serializes against every earlier epoch on the target, so an
        # exclusive locker joins the accumulated clock of *all* prior
        # unlocks; a shared grant only serializes against exclusive holders,
        # so a shared locker joins prior *exclusive* unlocks only -- two
        # overlapping shared epochs stay concurrent and their conflicting
        # puts surface as RMA races.
        self._lock_mode: dict[tuple[int, int], str] = {}  # (win, rank) -> mode
        self._unlock_all: dict[tuple[int, int], dict] = {}  # (win, target)
        self._unlock_excl: dict[tuple[int, int], dict] = {}  # (win, target)
        self._wait_rec: dict[int, Any] = {}  # id(frame) -> PostEpochRecord

        self._digest = hashlib.sha256()
        self._pending = bytearray()  # digest lines not hashed yet
        # the last instant a line was stamped with, and its repr's bytes
        self._now: Any = None
        self._now_repr = b""

    # -- attachment ----------------------------------------------------------

    def attach(self) -> "Sanitizer":
        self.universe.process_hooks.append(self._on_process)
        self.universe.win_hooks.append(self._on_window)
        self.universe.comm_hooks.append(self._on_comm)
        self.universe.event_hooks.append(self._on_event)
        self.universe.kernel.deadlock_hooks.append(self.on_deadlock)
        return self

    def _on_process(self, proc, ep, world) -> None:
        idx = len(self._eps)
        self._ep_index[id(ep)] = idx
        self._eps.append(ep)
        self._clocks.append(CowClock(self._clock_genesis))
        self._counters.append(_EpCounters())
        self._requests.append({})
        # each hook memoizes, per called function, what its event needs
        proc.entry_hooks.append(partial(self._on_trace, ep, idx, {}, True))
        proc.exit_hooks.append(partial(self._on_trace, ep, idx, {}, False))

    def _on_comm(self, comm) -> None:
        # Record every communicator; the finalize check filters on the
        # ``connected`` flag, which the universe sets right *after* the
        # creation hook fires (spawn intercomms only).
        self._intercomms.append(comm)

    def _on_window(self, win) -> None:
        self._windows.append(win)
        w = id(win)
        self._wstate[w] = {r: _NONE for r in range(win.comm.size)}
        self._fence_open[w] = set()
        self._start_group[w] = {}
        self._lock_target[w] = {}
        self._ops[w] = {}
        self._fence_round[w] = {}
        win.observers.append(self._on_rma_op)

    # -- helpers -------------------------------------------------------------

    def _report(self, kind: FindingKind, rank: int, obj: str, detail: str) -> None:
        self.findings.append(Finding(kind=kind, rank=rank, obj=obj, detail=detail))

    def _tick(self, idx: int) -> CowClock:
        clock = self._clocks[idx]
        clock.tick(idx)
        return clock

    def _assign(self, idx: int, merged) -> None:
        """Install a joined clock, wrapping plain-dict joins copy-on-write."""
        self._clocks[idx] = merged if type(merged) is CowClock else CowClock(merged)

    def _adopt(self, idx: int, clock: CowClock, entry_stamp, joined: dict, rkey) -> None:
        """Install a synchronization round's joined clock for rank ``idx``.

        When the rank has not ticked since its entry snapshot (no traced
        MPI calls inside the collective -- the refmpi/LAM case), its clock
        is already <= the join and every exiting rank shares ONE interned
        dict: O(1) per rank, O(ranks) memory per round instead of
        O(ranks^2).  Otherwise (MPICH's dissemination ticks its clock
        mid-collective) fall back to a real join.
        """
        if entry_stamp is not None and entry_stamp.base is clock.base:
            if entry_stamp.delta is clock.delta:
                self._clocks[idx] = CowClock(joined)
                return
            # the rank ticked since entry (nested traced calls inside the
            # collective body, e.g. LAM's fence sends) -- but ticks only
            # advance the owner's own component, so as long as no nested
            # *synchronization* reassigned the clock, the join is just
            # ``joined`` with the own component overridden
            ed, cd = entry_stamp.delta, clock.delta
            if all(k == idx or ed.get(k, -1) == v for k, v in cd.items()):
                own = clock.get(idx)
                if own > joined.get(idx, 0):
                    self._clocks[idx] = CowClock(joined, {idx: own})
                else:
                    self._clocks[idx] = CowClock(joined)
                return
        # a nested synchronization rebased this rank mid-round (e.g. LAM's
        # fence runs a barrier on the window's hidden communicator, whose
        # join happens after every member entered the outer round and so
        # dominates the outer join).  All ranks exit on the same new base,
        # so test domination once per (round, base) instead of per rank.
        memo = self._round_dom.get(rkey)
        if memo is None:
            memo = self._round_dom[rkey] = {}
        base = clock.base
        hit = memo.get(id(base))
        if hit is None:
            verdict = all(v <= base.get(k, 0) for k, v in joined.items())
            memo[id(base)] = (base, verdict)
        else:
            verdict = hit[1]
        if verdict:
            return  # joined <= base <= clock: the join is clock itself
        self._assign(idx, vc_join(clock, joined))

    def _check_freed(self, win, ep, call: str) -> bool:
        """Flag (once per window+rank) any MPI call on a freed window."""
        state = self._wstate.get(id(win))
        rank = ep.world_rank
        if state is None or state.get(self._comm_rank(win, ep)) != _FREED:
            return False
        key = (id(win), rank)
        if key not in self._uaf_seen:
            self._uaf_seen.add(key)
            reused = any(
                w is not win and w.win_id == win.win_id and not w.freed
                for w in self._windows
            )
            note = (
                f" (window id {win.win_id} has since been reused by a new window -- "
                "the id-reuse hazard the paper's tool works around)"
                if reused
                else ""
            )
            self._report(
                FindingKind.WINDOW_USE_AFTER_FREE,
                rank,
                win.name,
                f"{call} on window {win.name!r} after MPI_Win_free{note}",
            )
        return True

    def _comm_rank(self, win, ep) -> int:
        try:
            return win.comm.rank_of(ep)
        except Exception:  # pragma: no cover - defensive
            return -1

    # -- RMA op observer (strict epochs + races) -----------------------------

    def _on_rma_op(self, win, ep, rank: int, op) -> None:
        w = id(win)
        idx = self._ep_index.get(id(ep))
        if idx is None or w not in self._wstate:  # pragma: no cover - defensive
            return
        counters = self._counters[idx]
        kind_char = _KIND_CHAR[op.kind]
        if kind_char == "P":
            counters.puts += 1
        elif kind_char == "G":
            counters.gets += 1
        else:
            counters.accs += 1
        counters.rma_bytes += op.nbytes

        state = self._wstate[w].get(rank, _NONE)
        call = f"MPI_{op.kind.value.capitalize()}"
        if state == _NONE:
            self._report(
                FindingKind.RMA_EPOCH_VIOLATION,
                ep.world_rank,
                win.name,
                f"{call} to rank {op.target_rank} outside any access epoch "
                "(no MPI_Win_fence / MPI_Win_start / MPI_Win_lock opened one)",
            )
            return
        if state == _START and op.target_rank not in self._start_group[w].get(rank, ()):
            self._report(
                FindingKind.RMA_EPOCH_VIOLATION,
                ep.world_rank,
                win.name,
                f"{call} to rank {op.target_rank}, which is not in the "
                "MPI_Win_start access group",
            )
            return
        if state == _LOCK and op.target_rank != self._lock_target[w].get(rank):
            self._report(
                FindingKind.RMA_EPOCH_VIOLATION,
                ep.world_rank,
                win.name,
                f"{call} to rank {op.target_rank} while holding the lock on "
                f"rank {self._lock_target[w].get(rank)}",
            )
            return

        stamp = self._clocks[idx].snapshot()
        if state == _START:
            record = ep.start_records.get(win.win_id, {}).get(op.target_rank)
            if record is not None:
                stamp = vc_join(stamp, getattr(record, "_san_post", {}))
        lo, hi = op.target_disp, op.target_disp + op.count
        buffer = self._ops[w].get(op.target_rank)
        if buffer:
            for oidx, orank, otarget, olo, ohi, okind, oclock, oepoch in buffer:
                if (
                    oidx != idx
                    and olo < hi
                    and lo < ohi
                    and _kinds_conflict(okind, kind_char)
                    and vc_concurrent(oclock, stamp)
                ):
                    key = (w, op.target_rank, min(oidx, idx), max(oidx, idx))
                    if key not in self._race_seen:
                        self._race_seen.add(key)
                        self._report(
                            FindingKind.RMA_RACE,
                            ep.world_rank,
                            win.name,
                            f"concurrent conflicting access to rank "
                            f"{op.target_rank} elements [{max(lo, olo)}, "
                            f"{min(hi, ohi)}) of window {win.name!r}: "
                            f"{call} by rank {ep.world_rank} races with a "
                            f"{'put' if okind == 'P' else 'get' if okind == 'G' else 'accumulate'} "
                            f"by rank {self._eps[oidx].world_rank} in the same "
                            "synchronization epoch",
                        )
        else:
            buffer = self._ops[w][op.target_rank] = []
        buffer.append(
            (idx, rank, op.target_rank, lo, hi, kind_char, stamp,
             self._fence_round[w].get(idx, 0))
        )

    # -- recv-side checks ----------------------------------------------------

    def _on_event(self, kind: str, data: dict) -> None:
        if kind != "recv_matched":
            return
        ep, env = data["ep"], data["env"]
        if env.tag >= COLL_TAG_BASE or getattr(env, "rma_sink", False):
            return
        idx = self._ep_index.get(id(ep))
        if idx is None:  # pragma: no cover - defensive
            return
        counters = self._counters[idx]
        counters.recv_msgs += 1
        counters.recv_bytes += env.nbytes
        count, datatype = data.get("count") or 0, data.get("datatype")
        if count and datatype is not None:
            capacity = datatype.extent(count)
            if env.nbytes > capacity:
                self._report(
                    FindingKind.RECV_TRUNCATION,
                    ep.world_rank,
                    f"tag {env.tag}",
                    f"receive buffer holds {capacity} bytes "
                    f"({count} x {datatype.name}) but the matched message "
                    f"from rank {env.src_rank} carries {env.nbytes} bytes: "
                    "data would be truncated",
                )
            elif env.datatype is not None and env.datatype.name != datatype.name:
                self._report(
                    FindingKind.DATATYPE_MISMATCH,
                    ep.world_rank,
                    f"tag {env.tag}",
                    f"receive posted as {count} x {datatype.name} but rank "
                    f"{env.src_rank} sent {env.datatype.name}: type signatures "
                    "do not match",
                )

    # -- call hooks ----------------------------------------------------------

    def _on_trace(self, ep, idx: int, memo: dict, entry: bool, proc, frame) -> None:
        """One call event of rank ``idx``: a digest line, then (for an MPI
        call) the vector-clock tick at entry and the event's handler.

        ``memo`` is the hook's own dict from the called function to its
        digest-line suffix, its MPI call name (``None`` outside MPI) and its
        handler, built at the function's first call.  The line's time stamp
        is formatted once per instant: again only when the clock's value or
        type changes (an ``until`` cut can leave an ``int`` clock)."""
        try:
            suffix, call, handler = memo[frame.function]
        except KeyError:
            fn = frame.function
            suffix, call, handler = memo[fn] = _memo_entry(idx, fn.name, entry)
        now = proc.kernel.now
        if now is not self._now:
            last = self._now
            if now != last or now.__class__ is not last.__class__:
                self._now_repr = repr(now).encode()
            self._now = now
        pending = self._pending
        pending += self._now_repr
        pending += suffix
        if len(pending) >= _DIGEST_BLOCK:
            self._hash_pending()
        if call is None:
            return
        clock = self._tick(idx) if entry else self._clocks[idx]
        if handler is not None:
            handler(self, ep, idx, clock, frame, call, frame.args)

    def _hash_pending(self) -> None:
        self._digest.update(self._pending)
        del self._pending[:]

    # entry/exit handlers (bound through the _ENTRY/_EXIT tables below)

    def _h_send_entry(self, ep, idx, clock, frame, call, args) -> None:
        tag = args[4]
        if tag >= COLL_TAG_BASE:
            return
        counters = self._counters[idx]
        counters.sent_msgs += 1
        count, dtype = args[1], args[2]
        try:
            counters.sent_bytes += dtype.extent(count) if count else 0
        except AttributeError:  # sendrecv passes raw byte counts
            counters.sent_bytes += int(count)

    def _h_isend_exit(self, ep, idx, clock, frame, call, args) -> None:
        self._h_send_entry(ep, idx, clock, frame, call, args)
        request = frame.return_value
        if isinstance(request, Request) and args[4] < COLL_TAG_BASE:
            self._requests[idx][id(request)] = ("MPI_Isend", args[4])

    def _h_irecv_exit(self, ep, idx, clock, frame, call, args) -> None:
        request = frame.return_value
        if isinstance(request, Request) and args[4] < COLL_TAG_BASE:
            self._requests[idx][id(request)] = ("MPI_Irecv", args[4])

    def _h_wait_entry(self, ep, idx, clock, frame, call, args) -> None:
        self._requests[idx].pop(id(args[0]), None)

    def _h_waitall_entry(self, ep, idx, clock, frame, call, args) -> None:
        for request in args[1]:
            self._requests[idx].pop(id(request), None)

    def _h_test_exit(self, ep, idx, clock, frame, call, args) -> None:
        if frame.return_value:
            self._requests[idx].pop(id(args[0]), None)

    def _h_finalize_entry(self, ep, idx, clock, frame, call, args) -> None:
        self._in_finalize.add(idx)

    def _h_barrier_entry(self, ep, idx, clock, frame, call, args) -> None:
        comm = args[0]
        if comm.remote_group is not None:
            return
        key = (comm.cid, idx)
        rnd = self._barrier_round.get(key, 0)
        self._barrier_round[key] = rnd + 1
        self._barrier_entry.setdefault((comm.cid, rnd), {})[idx] = clock.snapshot()

    def _h_barrier_exit(self, ep, idx, clock, frame, call, args) -> None:
        comm = args[0]
        if comm.remote_group is not None:
            return
        rnd = self._barrier_round.get((comm.cid, idx), 1) - 1
        key = (comm.cid, rnd)
        entries = self._barrier_entry.get(key, {})
        joined = self._barrier_joined.get(key)
        if joined is None:
            joined = vc_round_join(entries.values())
            self._barrier_joined[key] = joined
        self._adopt(idx, clock, entries.get(idx), joined, key)
        exits = self._barrier_exits.get(key, 0) + 1
        if exits >= comm.size:
            self._barrier_entry.pop(key, None)
            self._barrier_exits.pop(key, None)
            self._barrier_joined.pop(key, None)
            self._round_dom.pop(key, None)
        else:
            self._barrier_exits[key] = exits

    # .. RMA synchronization ..

    def _h_fence_entry(self, ep, idx, clock, frame, call, args) -> None:
        win = args[1]
        if self._check_freed(win, ep, "MPI_Win_fence"):
            return
        w = id(win)
        if w not in self._wstate:  # pragma: no cover - defensive
            return
        rnd = self._fence_round[w].get(idx, 0)
        self._fence_round[w][idx] = rnd + 1
        self._fence_entry.setdefault((w, rnd), {})[idx] = clock.snapshot()

    def _h_fence_exit(self, ep, idx, clock, frame, call, args) -> None:
        win = args[1]
        w = id(win)
        if w not in self._wstate or self._wstate[w].get(self._comm_rank(win, ep)) == _FREED:
            return
        rank = self._comm_rank(win, ep)
        self._wstate[w][rank] = _FENCE
        self._fence_open[w].add(rank)
        rnd = self._fence_round[w].get(idx, 1) - 1
        key = (w, rnd)
        entries = self._fence_entry.get(key, {})
        joined = self._fence_joined.get(key)
        if joined is None:
            joined = vc_round_join(entries.values())
            self._fence_joined[key] = joined
        self._adopt(idx, clock, entries.get(idx), joined, key)
        exits = self._fence_exits.get(key, 0) + 1
        if exits >= win.comm.size:
            # an op is ordered before this fence iff its origin issued it
            # before entering round ``rnd`` -- exactly when its recorded
            # fence epoch is <= rnd (every entry stamp flows into the
            # join, and post-round ops carry a fresh own-tick the join
            # cannot contain), so the old per-op vc_leq prune reduces to
            # an integer compare
            ops = self._ops[w]
            for target in list(ops):
                kept = [entry for entry in ops[target] if entry[7] > rnd]
                if kept:
                    ops[target] = kept
                else:
                    del ops[target]
            self._fence_entry.pop(key, None)
            self._fence_exits.pop(key, None)
            self._fence_joined.pop(key, None)
            self._round_dom.pop(key, None)
        else:
            self._fence_exits[key] = exits

    def _h_start_exit(self, ep, idx, clock, frame, call, args) -> None:
        win = args[2]
        w = id(win)
        if w not in self._wstate:
            return
        rank = self._comm_rank(win, ep)
        self._wstate[w][rank] = _START
        self._start_group[w][rank] = tuple(args[0])

    def _h_complete_entry(self, ep, idx, clock, frame, call, args) -> None:
        win = args[0]
        if self._check_freed(win, ep, "MPI_Win_complete"):
            return
        for record in ep.start_records.get(win.win_id, {}).values():
            record._san_complete = vc_join(
                getattr(record, "_san_complete", {}), clock.materialize()
            )

    def _h_complete_exit(self, ep, idx, clock, frame, call, args) -> None:
        win = args[0]
        w = id(win)
        if w not in self._wstate:
            return
        rank = self._comm_rank(win, ep)
        if self._wstate[w].get(rank) == _FREED:
            return
        self._wstate[w][rank] = _FENCE if rank in self._fence_open[w] else _NONE
        self._start_group[w].pop(rank, None)

    def _h_post_entry(self, ep, idx, clock, frame, call, args) -> None:
        self._check_freed(args[2], ep, "MPI_Win_post")

    def _h_post_exit(self, ep, idx, clock, frame, call, args) -> None:
        win = args[2]
        record = ep.post_record.get(win.win_id)
        if record is not None:
            record._san_post = clock.snapshot()

    def _h_wait_entry_win(self, ep, idx, clock, frame, call, args) -> None:
        win = args[0]
        if self._check_freed(win, ep, "MPI_Win_wait"):
            return
        record = ep.post_record.get(win.win_id)
        if record is not None:
            self._wait_rec[id(frame)] = record

    def _h_wait_exit_win(self, ep, idx, clock, frame, call, args) -> None:
        win = args[0]
        w = id(win)
        record = self._wait_rec.pop(id(frame), None)
        if record is None or w not in self._wstate:
            return
        merged = vc_join(clock, getattr(record, "_san_complete", {}))
        self._assign(idx, merged)
        rank = self._comm_rank(win, ep)
        lst = self._ops[w].get(rank)
        if lst:
            kept = [entry for entry in lst if not vc_leq(entry[6], merged)]
            if kept:
                self._ops[w][rank] = kept
            else:
                del self._ops[w][rank]

    def _h_lock_entry(self, ep, idx, clock, frame, call, args) -> None:
        self._check_freed(args[3], ep, "MPI_Win_lock")

    def _h_lock_exit(self, ep, idx, clock, frame, call, args) -> None:
        win = args[3]
        w = id(win)
        if w not in self._wstate:
            return
        mode = "shared" if args[0] == "shared" else "exclusive"
        target = args[1]
        # exclusive serializes with every earlier unlock; shared only with
        # earlier *exclusive* unlocks (shared holders run concurrently)
        prior = self._unlock_all if mode == "exclusive" else self._unlock_excl
        self._assign(idx, vc_join(clock, prior.get((w, target), {})))
        rank = self._comm_rank(win, ep)
        if self._wstate[w].get(rank) != _FREED:
            self._wstate[w][rank] = _LOCK
            self._lock_target[w][rank] = target
            self._lock_mode[(w, rank)] = mode

    def _h_unlock_entry(self, ep, idx, clock, frame, call, args) -> None:
        win = args[1]
        w = id(win)
        if self._check_freed(win, ep, "MPI_Win_unlock") or w not in self._wstate:
            return
        target = args[0]
        rank = self._comm_rank(win, ep)
        mode = self._lock_mode.get((w, rank), "exclusive")
        key = (w, target)
        mat = clock.materialize()
        self._unlock_all[key] = vc_join(self._unlock_all.get(key, {}), mat)
        if mode == "exclusive":
            self._unlock_excl[key] = vc_join(self._unlock_excl.get(key, {}), mat)
            # only an exclusive epoch's own ops are ordered against every
            # later epoch; shared-epoch ops must stay in the race buffer so
            # overlapping shared lockers can still collide
            lst = self._ops[w].get(target)
            if lst:
                kept = [
                    entry
                    for entry in lst
                    if not (entry[0] == idx and vc_leq(entry[6], clock))
                ]
                if kept:
                    self._ops[w][target] = kept
                else:
                    del self._ops[w][target]

    def _h_unlock_exit(self, ep, idx, clock, frame, call, args) -> None:
        win = args[1]
        w = id(win)
        if w not in self._wstate:
            return
        rank = self._comm_rank(win, ep)
        if self._wstate[w].get(rank) == _FREED:
            return
        self._wstate[w][rank] = _FENCE if rank in self._fence_open[w] else _NONE
        self._lock_target[w].pop(rank, None)
        self._lock_mode.pop((w, rank), None)

    def _h_free_entry(self, ep, idx, clock, frame, call, args) -> None:
        self._check_freed(args[0], ep, "MPI_Win_free")

    def _h_free_exit(self, ep, idx, clock, frame, call, args) -> None:
        win = args[0]
        w = id(win)
        # the collective free releases every rank at once, so the first
        # exit sweeps the whole state table and the rest skip it (at
        # thousands of ranks a sweep per rank is quadratic)
        if w in self._wstate and win.freed and w not in self._freed_swept:
            self._freed_swept.add(w)
            for rank in self._wstate[w]:
                self._wstate[w][rank] = _FREED

    def _h_start_entry(self, ep, idx, clock, frame, call, args) -> None:
        self._check_freed(args[2], ep, "MPI_Win_start")

    # -- end-of-run checks ---------------------------------------------------

    def on_deadlock(self) -> None:
        if self.deadlock_reported:
            return
        self.deadlock_reported = True
        self.findings.extend(analyze_deadlock(self.universe, normalize_mpi_name))

    def finalize_checks(self, *, finalized_only: bool = False) -> None:
        """Leak detection.  After a normal completion, check every rank.

        With ``finalized_only=True`` (the deadlock path), check only ranks
        that *entered* MPI_Finalize: those ranks will never complete their
        pending requests or receive their unexpected messages, so their
        leaks are real findings and not an artifact of the deadlock --
        while the still-blocked ranks' state is left alone (their pending
        operations are part of the deadlock diagnosis, not leaks).
        Window checks are skipped in that mode: ``MPI_Win_free`` is
        collective, so a blocked rank elsewhere is enough to keep a window
        allocated through no fault of the finalizing ranks.

        Connected (spawn) intercommunicators are checked in *both* modes.
        ``MPI_Comm_disconnect`` is collective too, but the moment any
        member -- parent or child -- enters MPI_Finalize (or exits) with
        the intercomm still connected, the collective disconnect has
        become permanently impossible: that member's commitment makes the
        leak real regardless of any concurrent deadlock, so a deadlock
        elsewhere must not mask it.
        """
        for idx, ep in enumerate(self._eps):
            if finalized_only and idx not in self._in_finalize:
                continue
            for env in ep.mailbox.unexpected_envelopes():
                if env.tag >= COLL_TAG_BASE or getattr(env, "rma_sink", False):
                    continue
                self._report(
                    FindingKind.UNMATCHED_SEND,
                    ep.world_rank,
                    f"tag {env.tag}",
                    f"message from rank {env.src_rank} (tag {env.tag}, "
                    f"{env.nbytes} bytes) was never received: the send has no "
                    "matching receive",
                )
            pending = self._requests[idx]
            if pending:
                kinds = ", ".join(sorted(kind for kind, _ in pending.values()))
                self._report(
                    FindingKind.REQUEST_LEAK,
                    ep.world_rank,
                    "requests",
                    f"{len(pending)} nonblocking request(s) ({kinds}) never "
                    "completed with MPI_Wait/MPI_Test before MPI_Finalize",
                )
        for comm in self._intercomms:
            if not getattr(comm, "connected", False) or comm.freed:
                continue
            members = list(comm.group) + list(comm.remote_group or [])
            committed = [
                ep
                for ep in members
                if self._ep_index.get(id(ep)) in self._in_finalize
                or ep.proc.exited
            ]
            if finalized_only and not committed:
                # every member is still blocked: the missing disconnect is
                # part of the deadlock diagnosis, not (yet) a leak
                continue
            ranks = ", ".join(
                f"{'child' if comm.remote_group and ep in list(comm.remote_group) else 'parent'} "
                f"rank {ep.world_rank}"
                for ep in committed
            ) or "no member"
            self._report(
                FindingKind.COMM_LEAK,
                -1,
                comm.name,
                f"spawn intercommunicator {comm.name!r} was never "
                f"disconnected: {ranks} reached MPI_Finalize without "
                "calling MPI_Comm_disconnect",
            )
        if finalized_only:
            return
        for win in self._windows:
            if not win.freed:
                self._report(
                    FindingKind.WINDOW_LEAK,
                    -1,
                    win.name,
                    f"window {win.name!r} (id {win.win_id}) was still allocated "
                    "at MPI_Finalize: missing MPI_Win_free",
                )

    # -- results -------------------------------------------------------------

    def trace_digest(self) -> str:
        self._hash_pending()
        return self._digest.hexdigest()

    def data_signature(self) -> tuple:
        rows = []
        for idx, ep in enumerate(self._eps):
            c = self._counters[idx]
            rows.append(
                (
                    ep.world.world_id,
                    ep.world_rank,
                    c.sent_msgs,
                    c.sent_bytes,
                    c.recv_msgs,
                    c.recv_bytes,
                    c.puts,
                    c.gets,
                    c.accs,
                    c.rma_bytes,
                )
            )
        return tuple(sorted(rows))


_ENTRY = {
    "Send": Sanitizer._h_send_entry,
    "Ssend": Sanitizer._h_send_entry,
    "Sendrecv": Sanitizer._h_send_entry,
    "Wait": Sanitizer._h_wait_entry,
    "Waitall": Sanitizer._h_waitall_entry,
    "Waitany": Sanitizer._h_waitall_entry,
    "Barrier": Sanitizer._h_barrier_entry,
    "Finalize": Sanitizer._h_finalize_entry,
    "Win_fence": Sanitizer._h_fence_entry,
    "Win_start": Sanitizer._h_start_entry,
    "Win_complete": Sanitizer._h_complete_entry,
    "Win_post": Sanitizer._h_post_entry,
    "Win_wait": Sanitizer._h_wait_entry_win,
    "Win_lock": Sanitizer._h_lock_entry,
    "Win_unlock": Sanitizer._h_unlock_entry,
    "Win_free": Sanitizer._h_free_entry,
}

_EXIT = {
    "Isend": Sanitizer._h_isend_exit,
    "Irecv": Sanitizer._h_irecv_exit,
    "Test": Sanitizer._h_test_exit,
    "Barrier": Sanitizer._h_barrier_exit,
    "Win_fence": Sanitizer._h_fence_exit,
    "Win_start": Sanitizer._h_start_exit,
    "Win_complete": Sanitizer._h_complete_exit,
    "Win_post": Sanitizer._h_post_exit,
    "Win_wait": Sanitizer._h_wait_exit_win,
    "Win_lock": Sanitizer._h_lock_exit,
    "Win_unlock": Sanitizer._h_unlock_exit,
    "Win_free": Sanitizer._h_free_exit,
}


def _memo_entry(idx: int, name: str, entry: bool) -> tuple:
    """What rank ``idx``'s hook for one event needs of function ``name``:
    its digest-line suffix (the line's format is ``{now!r}|{idx}|{name}|
    {event}``, PMPI names folded onto MPI ones), its MPI call name and the
    event's handler (both ``None`` outside MPI)."""
    name = normalize_mpi_name(name)
    suffix = f"|{idx}|{name}|{'entry' if entry else 'exit'}\n".encode()
    if not name.startswith("MPI_"):
        return suffix, None, None
    call = name[4:]
    return suffix, call, (_ENTRY if entry else _EXIT).get(call)
