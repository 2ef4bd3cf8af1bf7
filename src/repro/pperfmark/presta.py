"""The ASCI Purple Presta stress-test ``rma`` benchmark (Section 5.2.1.3).

Presta's ``rma`` measures the throughput of ``MPI_Put``/``MPI_Get`` and
the per-operation time for four patterns: unidirectional Put,
unidirectional Get, bidirectional Put, bidirectional Get.  The paper ran
it with two processes, 1024-byte operations, 3000 operations per epoch and
200 epochs, then compared the benchmark's *own* measurements against
Paradyn's ``rma_{put,get}_{ops,bytes}`` histograms (integrated back to
totals with the end-point bins dropped).

This module provides the benchmark program plus its self-measurement
results, so the harness can redo the paper's statistical comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from ..mpi.datatypes import INT
from .base import Expectation, PPerfProgram, register

__all__ = ["PrestaRma", "PrestaResult", "PATTERNS"]

PATTERNS = ("uni_put", "uni_get", "bi_put", "bi_get")


@dataclass
class PrestaResult:
    """What the rma benchmark itself reports for one pattern."""

    pattern: str
    operations: int
    bytes_total: int
    elapsed: float

    @property
    def throughput(self) -> float:
        """Bytes per second."""
        return self.bytes_total / self.elapsed if self.elapsed else 0.0

    @property
    def per_op_time(self) -> float:
        return self.elapsed / self.operations if self.operations else 0.0


@register
class PrestaRma(PPerfProgram):
    name = "presta_rma"
    module = "rma.c"
    suite = "mpi2"
    default_nprocs = 2
    procs_per_node = 1
    description = (
        "ASCI Purple Presta stress-test rma benchmark: unidirectional and "
        "bidirectional MPI_Put/MPI_Get throughput and per-operation time."
    )
    expectation = Expectation()

    def __init__(
        self,
        op_bytes: int = 1024,
        ops_per_epoch: int = 300,
        epochs: int = 20,
        patterns: tuple[str, ...] = PATTERNS,
        jitter: float = 0.08,
    ) -> None:
        self.op_bytes = op_bytes
        self.ops_per_epoch = ops_per_epoch
        self.epochs = epochs
        #: relative per-operation timing noise (OS scheduling, cache state);
        #: gives the paper's paired significance analysis real variance
        self.jitter = jitter
        self.patterns = tuple(patterns)
        for pattern in self.patterns:
            if pattern not in PATTERNS:
                raise ValueError(f"unknown Presta pattern {pattern!r}")
        #: filled by rank 0 at the end of each pattern
        self.results: dict[str, PrestaResult] = {}

    def expected_ops(self, pattern: str, rank: int) -> int:
        """Ground truth operation count issued by ``rank`` for a pattern."""
        if pattern.startswith("uni") and rank != 0:
            return 0
        return self.ops_per_epoch * self.epochs

    def _run_pattern(self, mpi, win, pattern: str, data, scratch) -> Generator:
        rank = mpi.rank
        active = rank == 0 if pattern.startswith("uni") else True
        kind = pattern.split("_")[1]
        target = 1 - rank
        kernel = mpi.proc.kernel
        rng = mpi.ep.world.universe.rng
        stream = f"presta.{pattern}.{rank}"
        yield from mpi.barrier()
        start = kernel.now
        for _ in range(self.epochs):
            if active:
                for _ in range(self.ops_per_epoch):
                    if self.jitter:
                        yield from mpi.compute(rng.jitter(stream, 1.5e-6, self.jitter))
                    if kind == "put":
                        yield from mpi.put(win, target, data)
                    else:
                        yield from mpi.get(win, target, scratch)
            yield from mpi.win_fence(win)
        yield from mpi.barrier()
        elapsed = kernel.now - start
        if rank == 0:
            ops = self.ops_per_epoch * self.epochs
            self.results[pattern] = PrestaResult(
                pattern=pattern,
                operations=ops,
                bytes_total=ops * self.op_bytes,
                elapsed=elapsed,
            )

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        count = self.op_bytes // INT.size
        win = yield from mpi.win_create(count, datatype=INT)
        yield from mpi.win_set_name(win, "PrestaWindow")
        data = np.arange(count, dtype="i4")
        scratch = np.zeros(count, dtype="i4")
        yield from mpi.win_fence(win)
        for pattern in self.patterns:
            yield from self._run_pattern(mpi, win, pattern, data, scratch)
        yield from mpi.win_free(win)
        yield from mpi.finalize()
