"""MUST-style dynamic MPI correctness checking over the simulator.

``repro.sanitizer`` watches a simulated run through the engine's hook
points and reports violations of MPI semantics the paper's subject matter
revolves around: RMA access-epoch discipline and data races, deadlock,
resource leaks at finalize (including the MPICH window-id-reuse hazard),
and receive truncation / datatype mismatches.

Entry points:

* :func:`sanitize_program` -- run one PPerfMark (or seeded-defect) program
  under the monitor and get a :class:`SanitizerReport`;
* ``python -m repro sanitize <program> --impl <...>`` -- the CLI wrapper.
"""

from .core import Sanitizer, normalize_mpi_name
from .findings import Finding, FindingKind, SanitizerReport
from .run import sanitize_program
from .vclock import vc_concurrent, vc_join, vc_leq

__all__ = [
    "Sanitizer",
    "normalize_mpi_name",
    "Finding",
    "FindingKind",
    "SanitizerReport",
    "sanitize_program",
    "vc_join",
    "vc_leq",
    "vc_concurrent",
]
