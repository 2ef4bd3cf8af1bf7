"""Built-in metric definitions (MDL source) and the metric registry.

This module carries the tool's default metric set, written in MDL and
compiled by :mod:`repro.core.mdl`:

* the MPI-1 metrics (synchronization wait times, message/byte counters,
  I/O blocking time) with both ``MPI_*`` and ``PMPI_*`` function names --
  the paper's Section 4.1.1 fix for MPICH's weak-symbol profiling interface
  (the *legacy* variant below reproduces the Paradyn 4.0 bug for the
  ablation bench);
* **all twelve RMA metrics of Table 1** and the window resource constraint
  of Figure 2;
* a handful of *native* metrics (whole-process CPU, wall time) sampled
  directly from process clocks rather than via snippets.

Function sets deliberately include names for every supported MPI
implementation; the compiler skips names not present in a given image and
de-duplicates weak aliases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .mdl import MdlLibrary

__all__ = [
    "DEFAULT_MDL",
    "LEGACY_MDL_OVERRIDES",
    "NATIVE_METRICS",
    "RMA_METRIC_NAMES",
    "TABLE1_ROWS",
    "build_library",
]


def _both(*names: str) -> str:
    """A funcset body listing each name plus its PMPI twin."""
    out = []
    for name in names:
        out.append(name)
        out.append("P" + name)
    return ", ".join(out)


#: The names of the twelve RMA metrics introduced by the paper (Table 1).
RMA_METRIC_NAMES = (
    "rma_put_ops",
    "rma_get_ops",
    "rma_acc_ops",
    "rma_ops",
    "rma_put_bytes",
    "rma_get_bytes",
    "rma_acc_bytes",
    "rma_bytes",
    "at_rma_sync_wait",
    "pt_rma_sync_wait",
    "rma_sync_wait",
    "rma_sync_ops",
)

#: (metric, description, functions) rows regenerating Table 1 of the paper.
TABLE1_ROWS = (
    ("rma_put_ops", "A count of the number of Put operations per unit time.", "MPI_Put"),
    ("rma_get_ops", "A count of the number of Get operations per unit time.", "MPI_Get"),
    ("rma_acc_ops", "A count of the number of Accumulate operations per unit time.", "MPI_Accumulate"),
    ("rma_ops", "A count of the number of Put, Get, and Accumulate operations per unit time.",
     "MPI_Put MPI_Get MPI_Accumulate"),
    ("rma_put_bytes", "Number of bytes put per unit time.", "MPI_Put"),
    ("rma_get_bytes", "Number of bytes gotten per unit time.", "MPI_Get"),
    ("rma_acc_bytes", "Number of bytes accumulated in the target process.", "MPI_Accumulate"),
    ("rma_bytes", "Sum of RMA byte count metrics.", "MPI_Put MPI_Get MPI_Accumulate"),
    ("at_rma_sync_wait", "Wall clock time spent in active target RMA synchronization routines "
     "during time interval.", "MPI_Win_fence MPI_Win_start MPI_Win_complete MPI_Win_wait"),
    ("pt_rma_sync_wait", "Wall clock time spent in passive target RMA synchronization routines "
     "during time interval.", "MPI_Win_lock MPI_Win_unlock"),
    ("rma_sync_wait", "Wall clock time spent in RMA synchronization routines during time interval.",
     "MPI_Win_fence MPI_Win_create MPI_Win_free MPI_Win_start MPI_Win_complete MPI_Win_wait "
     "MPI_Win_lock MPI_Win_unlock MPI_Put MPI_Get MPI_Accumulate"),
    ("rma_sync_ops", "A count of the number of RMA synchronization operations per unit time.",
     "MPI_Win_fence MPI_Win_create MPI_Win_free MPI_Win_start MPI_Win_complete MPI_Win_wait "
     "MPI_Win_lock MPI_Win_unlock MPI_Put MPI_Get MPI_Accumulate"),
)


_FUNCSETS = f"""
// ---- function sets ---------------------------------------------------------
funcset mpi_put = {{ {_both("MPI_Put")} }};
funcset mpi_get = {{ {_both("MPI_Get")} }};
funcset mpi_acc = {{ {_both("MPI_Accumulate")} }};
funcset mpi_rma_data = {{ {_both("MPI_Put", "MPI_Get", "MPI_Accumulate")} }};
funcset mpi_at_rma_sync = {{ {_both("MPI_Win_fence", "MPI_Win_start", "MPI_Win_complete", "MPI_Win_wait")} }};
funcset mpi_pt_rma_sync = {{ {_both("MPI_Win_lock", "MPI_Win_unlock")} }};
funcset mpi_rma_sync_general = {{ {_both(
    "MPI_Win_fence", "MPI_Win_create", "MPI_Win_free",
    "MPI_Win_start", "MPI_Win_complete", "MPI_Win_wait",
    "MPI_Win_lock", "MPI_Win_unlock",
    "MPI_Put", "MPI_Get", "MPI_Accumulate")} }};
funcset mpi_win_arg0 = {{ {_both("MPI_Win_complete", "MPI_Win_wait", "MPI_Win_free")} }};
funcset mpi_win_arg1 = {{ {_both("MPI_Win_fence", "MPI_Win_unlock")} }};
funcset mpi_win_arg2 = {{ {_both("MPI_Win_start", "MPI_Win_post")} }};
funcset mpi_win_arg3 = {{ {_both("MPI_Win_lock")} }};
funcset mpi_win_arg7 = {{ {_both("MPI_Put", "MPI_Get")} }};
funcset mpi_win_arg8 = {{ {_both("MPI_Accumulate")} }};
funcset mpi_win_creators = {{ {_both("MPI_Win_create")} }};

funcset mpi_send_fns = {{ {_both("MPI_Send", "MPI_Isend", "MPI_Sendrecv", "MPI_Ssend")} }};
funcset mpi_recv_fns = {{ {_both("MPI_Recv", "MPI_Irecv")} }};
funcset mpi_p2p_sync = {{ {_both(
    "MPI_Send", "MPI_Recv", "MPI_Sendrecv", "MPI_Wait", "MPI_Waitall")} }};
funcset mpi_coll_sync = {{ {_both(
    "MPI_Barrier", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce")} }};
funcset mpi_barrier_fns = {{ {_both("MPI_Barrier")} }};
funcset mpi_msg_sync = {{ {_both(
    "MPI_Send", "MPI_Recv", "MPI_Sendrecv", "MPI_Ssend", "MPI_Wait", "MPI_Waitall",
    "MPI_Waitany", "MPI_Probe", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce",
    "MPI_Gather", "MPI_Scatter", "MPI_Allgather", "MPI_Alltoall")} }};
funcset mpi_all_sync = {{ {_both(
    "MPI_Send", "MPI_Recv", "MPI_Sendrecv", "MPI_Ssend", "MPI_Wait", "MPI_Waitall",
    "MPI_Waitany", "MPI_Probe", "MPI_Barrier", "MPI_Bcast", "MPI_Reduce", "MPI_Allreduce",
    "MPI_Gather", "MPI_Scatter", "MPI_Allgather", "MPI_Alltoall",
    "MPI_Win_fence", "MPI_Win_start", "MPI_Win_complete", "MPI_Win_wait",
    "MPI_Win_lock", "MPI_Win_unlock", "MPI_Win_create", "MPI_Win_free",
    "MPI_Comm_spawn", "MPI_Intercomm_merge")} }};
funcset mpi_spawn_fns = {{ {_both("MPI_Comm_spawn")} }};
funcset mpi_comm_arg5 = {{ {_both("MPI_Send", "MPI_Isend", "MPI_Recv", "MPI_Irecv", "MPI_Ssend")} }};
funcset mpi_comm_arg10 = {{ {_both("MPI_Sendrecv")} }};
funcset mpi_comm_arg0 = {{ {_both("MPI_Barrier")} }};
funcset mpi_comm_arg4 = {{ {_both("MPI_Bcast")} }};
funcset mpi_comm_arg6 = {{ {_both("MPI_Reduce")} }};
funcset mpi_comm_arg5r = {{ {_both("MPI_Allreduce")} }};
funcset mpi_tag_p2p = {{ {_both("MPI_Send", "MPI_Isend", "MPI_Recv", "MPI_Irecv", "MPI_Ssend")} }};
funcset mpi_tag_sendrecv = {{ {_both("MPI_Sendrecv")} }};
funcset io_fns = {{ read, write }};
funcset io_fns_extended = {{ read, write, readv, writev }};
funcset mpi_io_fns = {{ {_both(
    "MPI_File_open", "MPI_File_close", "MPI_File_write_at", "MPI_File_read_at")} }};
funcset mpi_io_write_fns = {{ {_both("MPI_File_write_at")} }};
funcset mpi_io_read_fns = {{ {_both("MPI_File_read_at")} }};
"""


_CONSTRAINTS = """
// ---- resource constraints --------------------------------------------------

// The RMA window constraint of Figure 2: flag while executing an MPI_Win
// routine whose window argument matches the focused window's unique id.
constraint mpi_windowConstraint /SyncObject/Window is counter {
    foreach func in mpi_win_arg7 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[7]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg8 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[8]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg0 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[0]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg1 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[1]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg2 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[2]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
    foreach func in mpi_win_arg3 {
        prepend preinsn func.entry (*
            if (DYNINSTWindow_FindUniqueId($arg[3]) == $constraint[0]) mpi_windowConstraint = 1;
        *)
        append preinsn func.return (* mpi_windowConstraint = 0; *)
    }
}

// Communicator constraint: flag while inside an MPI call on the focused
// communicator (argument position varies by routine).
constraint mpi_communicatorConstraint /SyncObject/Message is counter {
    foreach func in mpi_comm_arg5 {
        prepend preinsn func.entry (*
            if (DYNINSTCommId($arg[5]) == $constraint[0]) mpi_communicatorConstraint = 1;
        *)
        append preinsn func.return (* mpi_communicatorConstraint = 0; *)
    }
    foreach func in mpi_comm_arg10 {
        prepend preinsn func.entry (*
            if (DYNINSTCommId($arg[10]) == $constraint[0]) mpi_communicatorConstraint = 1;
        *)
        append preinsn func.return (* mpi_communicatorConstraint = 0; *)
    }
    foreach func in mpi_comm_arg0 {
        prepend preinsn func.entry (*
            if (DYNINSTCommId($arg[0]) == $constraint[0]) mpi_communicatorConstraint = 1;
        *)
        append preinsn func.return (* mpi_communicatorConstraint = 0; *)
    }
    foreach func in mpi_comm_arg4 {
        prepend preinsn func.entry (*
            if (DYNINSTCommId($arg[4]) == $constraint[0]) mpi_communicatorConstraint = 1;
        *)
        append preinsn func.return (* mpi_communicatorConstraint = 0; *)
    }
    foreach func in mpi_comm_arg6 {
        prepend preinsn func.entry (*
            if (DYNINSTCommId($arg[6]) == $constraint[0]) mpi_communicatorConstraint = 1;
        *)
        append preinsn func.return (* mpi_communicatorConstraint = 0; *)
    }
    foreach func in mpi_comm_arg5r {
        prepend preinsn func.entry (*
            if (DYNINSTCommId($arg[5]) == $constraint[0]) mpi_communicatorConstraint = 1;
        *)
        append preinsn func.return (* mpi_communicatorConstraint = 0; *)
    }
}

// Message-tag constraint (focus /SyncObject/Message/comm_N/tag_T).  The
// communicator argument position differs between plain point-to-point
// calls (arg 5) and MPI_Sendrecv (arg 11); the send tag is arg 4 in both.
constraint mpi_msgtagConstraint /SyncObject/Message is counter {
    foreach func in mpi_tag_p2p {
        prepend preinsn func.entry (*
            if ((DYNINSTCommId($arg[5]) == $constraint[0]) && ($arg[4] == $constraint[1]))
                mpi_msgtagConstraint = 1;
        *)
        append preinsn func.return (* mpi_msgtagConstraint = 0; *)
    }
    foreach func in mpi_tag_sendrecv {
        prepend preinsn func.entry (*
            if ((DYNINSTCommId($arg[10]) == $constraint[0]) && ($arg[4] == $constraint[1]))
                mpi_msgtagConstraint = 1;
        *)
        append preinsn func.return (* mpi_msgtagConstraint = 0; *)
    }
}

// Code-hierarchy constraints: flag while inside the focused function /
// module.  Depth-counted, not set/cleared: a module constraint covers
// several functions at once, and a helper's return must not clear the
// flag the still-live main() activation established.  The guard on the
// decrement tolerates instrumentation inserted mid-flight (a return
// without a counted entry).
constraint procedureConstraint /Code is counter {
    foreach func in constraint_target {
        prepend preinsn func.entry (* procedureConstraint = procedureConstraint + 1; *)
        append preinsn func.return (*
            if (procedureConstraint > 0) procedureConstraint = procedureConstraint - 1;
        *)
    }
}

constraint moduleConstraint /Code is counter {
    foreach func in module_functions {
        prepend preinsn func.entry (* moduleConstraint = moduleConstraint + 1; *)
        append preinsn func.return (*
            if (moduleConstraint > 0) moduleConstraint = moduleConstraint - 1;
        *)
    }
}
"""


def _counter_metric(
    ident: str,
    display: str,
    units: str,
    blocks: str,
    *,
    constraints: tuple[str, ...] = ("moduleConstraint", "procedureConstraint"),
    counters: tuple[str, ...] = (),
) -> str:
    constraint_lines = "\n".join(f"    constraint {c};" for c in constraints)
    counter_lines = "\n".join(f"    counter {c};" for c in counters)
    return f"""
metric {ident} {{
    name "{display}";
    units {units};
    unitsType unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor {{ mpi }};
{constraint_lines}
{counter_lines}
    base is counter {{
{blocks}
    }}
}}
"""


def _walltimer_metric(
    ident: str,
    display: str,
    funcsets: tuple[str, ...],
    *,
    constraints: tuple[str, ...] = ("moduleConstraint", "procedureConstraint"),
) -> str:
    constraint_lines = "\n".join(f"    constraint {c};" for c in constraints)
    blocks = "\n".join(
        f"""        foreach func in {fs} {{
            append preinsn func.entry constrained (* startWallTimer({ident}); *)
            prepend preinsn func.return constrained (* stopWallTimer({ident}); *)
        }}"""
        for fs in funcsets
    )
    return f"""
metric {ident} {{
    name "{display}";
    units CPUs;
    unitsType normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor {{ mpi }};
{constraint_lines}
    base is walltimer {{
{blocks}
    }}
}}
"""


_RMA_COUNT = """        foreach func in %(fs)s {
            append preinsn func.entry constrained (* %(ident)s++; *)
        }"""

_RMA_BYTES = """        foreach func in %(fs)s {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[2], &bytes);
                count = $arg[1];
                %(ident)s += bytes * count;
            *)
        }"""

_RMA_CONSTRAINTS = ("moduleConstraint", "procedureConstraint", "mpi_windowConstraint")


def _rma_metrics() -> str:
    parts = []
    # operation counters
    for ident, display, fs in (
        ("rma_put_ops", "rma_put_ops", "mpi_put"),
        ("rma_get_ops", "rma_get_ops", "mpi_get"),
        ("rma_acc_ops", "rma_acc_ops", "mpi_acc"),
        ("rma_ops", "rma_ops", "mpi_rma_data"),
        ("rma_sync_ops", "rma_sync_ops", "mpi_rma_sync_general"),
    ):
        parts.append(
            _counter_metric(
                ident, display, "ops",
                _RMA_COUNT % {"fs": fs, "ident": ident},
                constraints=_RMA_CONSTRAINTS,
            )
        )
    # byte counters (the rma_put_bytes shape from Figure 2)
    for ident, display, fs in (
        ("rma_put_bytes", "rma_put_bytes", "mpi_put"),
        ("rma_get_bytes", "rma_get_bytes", "mpi_get"),
        ("rma_acc_bytes", "rma_acc_bytes", "mpi_acc"),
        ("rma_bytes", "rma_bytes", "mpi_rma_data"),
    ):
        parts.append(
            _counter_metric(
                ident, display, "bytes",
                _RMA_BYTES % {"fs": fs, "ident": ident},
                constraints=_RMA_CONSTRAINTS,
                counters=("bytes", "count"),
            )
        )
    # synchronization wall-clock timers
    parts.append(
        _walltimer_metric(
            "at_rma_sync_wait", "at_rma_sync_wait", ("mpi_at_rma_sync",),
            constraints=_RMA_CONSTRAINTS,
        )
    )
    parts.append(
        _walltimer_metric(
            "pt_rma_sync_wait", "pt_rma_sync_wait", ("mpi_pt_rma_sync",),
            constraints=_RMA_CONSTRAINTS,
        )
    )
    parts.append(
        _walltimer_metric(
            "rma_sync_wait", "rma_sync_wait", ("mpi_rma_sync_general",),
            constraints=_RMA_CONSTRAINTS,
        )
    )
    return "\n".join(parts)


_MSG_CONSTRAINTS = (
    "moduleConstraint",
    "procedureConstraint",
    "mpi_communicatorConstraint",
    "mpi_msgtagConstraint",
)

_MPI1_METRICS = (
    _walltimer_metric("sync_wait", "sync_wait_inclusive", ("mpi_all_sync",))
    + _walltimer_metric("msg_sync_wait", "msg_sync_wait", ("mpi_msg_sync",), constraints=_MSG_CONSTRAINTS)
    + _walltimer_metric("barrier_sync_wait", "barrier_sync_wait", ("mpi_barrier_fns",), constraints=_MSG_CONSTRAINTS)
    + _walltimer_metric("spawn_sync_wait", "spawn_sync_wait", ("mpi_spawn_fns",))
    + _walltimer_metric("io_wait", "io_wait_inclusive", ("io_fns",))
    # MPI-IO metrics: the remaining MPI-2 feature the paper lists as future
    # work ("We are continuing to implement support for the remaining MPI-2
    # features") -- provided here as an extension.
    + _walltimer_metric("mpi_io_wait", "mpi_io_wait_inclusive", ("mpi_io_fns",))
    + _counter_metric(
        "mpi_io_bytes_written", "mpi_io_bytes_written", "bytes",
        """        foreach func in mpi_io_write_fns {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[4], &bytes);
                count = $arg[3];
                mpi_io_bytes_written += bytes * count;
            *)
        }""",
        counters=("bytes", "count"),
    )
    + _counter_metric(
        "mpi_io_bytes_read", "mpi_io_bytes_read", "bytes",
        """        foreach func in mpi_io_read_fns {
            append preinsn func.entry constrained (*
                MPI_Type_size($arg[4], &bytes);
                count = $arg[3];
                mpi_io_bytes_read += bytes * count;
            *)
        }""",
        counters=("bytes", "count"),
    )
    + _counter_metric(
        "msgs_sent", "msgs_sent", "msgs",
        _RMA_COUNT % {"fs": "mpi_send_fns", "ident": "msgs_sent"},
        constraints=_MSG_CONSTRAINTS,
    )
    + _counter_metric(
        "msgs_recv", "msgs_recv", "msgs",
        _RMA_COUNT % {"fs": "mpi_recv_fns", "ident": "msgs_recv"},
        constraints=_MSG_CONSTRAINTS,
    )
    + _counter_metric(
        "msg_bytes_sent", "msg_bytes_sent", "bytes",
        _RMA_BYTES % {"fs": "mpi_send_fns", "ident": "msg_bytes_sent"},
        constraints=_MSG_CONSTRAINTS,
        counters=("bytes", "count"),
    )
    + _counter_metric(
        "msg_bytes_recv", "msg_bytes_recv", "bytes",
        _RMA_BYTES % {"fs": "mpi_recv_fns", "ident": "msg_bytes_recv"},
        constraints=_MSG_CONSTRAINTS,
        counters=("bytes", "count"),
    )
    + """
metric cpu_inclusive {
    name "cpu_inclusive";
    units CPUs;
    unitsType normalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    base is proctimer {
        foreach func in constraint_target {
            append preinsn func.entry (* startProcessTimer(cpu_inclusive); *)
            prepend preinsn func.return (* stopProcessTimer(cpu_inclusive); *)
        }
    }
}

metric procedure_calls {
    name "procedure_calls";
    units calls;
    unitsType unnormalized;
    aggregateOperator sum;
    style EventCounter;
    flavor { mpi };
    constraint moduleConstraint;
    constraint procedureConstraint;
    base is counter {
        foreach func in constraint_target {
            append preinsn func.entry (* procedure_calls++; *)
        }
    }
}
"""
)

#: The tool's full default metric set.
DEFAULT_MDL = _FUNCSETS + _CONSTRAINTS + _rma_metrics() + _MPI1_METRICS

#: Paradyn 4.0's metric definitions included Fortran profiling names but not
#: the C PMPI names (Section 4.1.1).  Loading these *after* DEFAULT_MDL
#: reproduces that bug for the weak-symbols ablation bench: the message
#: funcsets lose their PMPI entries, so default-built MPICH applications
#: (whose MPI_* calls resolve to PMPI_* symbols) are not measured.
LEGACY_MDL_OVERRIDES = """
funcset mpi_send_fns = { MPI_Send, MPI_Isend, MPI_Sendrecv };
funcset mpi_recv_fns = { MPI_Recv, MPI_Irecv };
funcset mpi_msg_sync = { MPI_Send, MPI_Recv, MPI_Sendrecv, MPI_Wait, MPI_Waitall,
                         MPI_Bcast, MPI_Reduce, MPI_Allreduce };
funcset mpi_all_sync = { MPI_Send, MPI_Recv, MPI_Sendrecv, MPI_Wait, MPI_Waitall,
                         MPI_Barrier, MPI_Bcast, MPI_Reduce, MPI_Allreduce,
                         MPI_Win_fence, MPI_Win_start, MPI_Win_complete, MPI_Win_wait,
                         MPI_Win_lock, MPI_Win_unlock, MPI_Win_create, MPI_Win_free,
                         MPI_Comm_spawn, MPI_Intercomm_merge };
funcset mpi_barrier_fns = { MPI_Barrier };
"""


# ---------------------------------------------------------------------------
# native metrics: sampled from process clocks, not snippets
# ---------------------------------------------------------------------------

#: name -> (units_type, sampler(proc) -> monotonically increasing value)
NATIVE_METRICS: dict[str, tuple[str, Callable]] = {
    "cpu": ("normalized", lambda proc: proc.cpu_user_time()),
    "exec_time": ("normalized", lambda proc: proc.wall_time()),
}


def build_library(*, legacy_metrics: bool = False) -> MdlLibrary:
    """The default metric library; ``legacy_metrics`` selects the
    weak-symbols ablation variant."""
    library = MdlLibrary()
    library.load(DEFAULT_MDL)
    if legacy_metrics:
        library.load(LEGACY_MDL_OVERRIDES)
    return library
