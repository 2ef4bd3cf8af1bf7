"""diffuse-procedure: a bottleneck distributed over all processes.

Paper parameters (Section 5.1.7): 2000 iterations, 4 processes (2 each on
2 nodes).  ``bottleneckProcedure`` consumes the majority of the program's
time, but the processes *take turns* running it while the rest wait in
``MPI_Barrier`` -- so each process spends only ~25% of its time there
(about one CPU's worth across 4 processes, Figure 15).  With the default
CPU threshold (0.3) the PC misses the computational bottleneck; lowering
the threshold to 0.2 (or running with 2 processes, where the share is
~50%) finds it -- exactly the paper's observation.
"""

from __future__ import annotations

from typing import Generator

from ..base import Expectation, PPerfProgram, register

__all__ = ["DiffuseProcedure"]


@register
class DiffuseProcedure(PPerfProgram):
    name = "diffuse_procedure"
    module = "diffuse_procedure.c"
    suite = "mpi1"
    default_nprocs = 4
    description = (
        "This program demonstrates a bottleneck that is distributed over "
        "the processes in the MPI application. The bottleneckProcedure "
        "consumes the majority of the time for the application. Each of the "
        "processes in the application take turns being the bottleneck while "
        "the others wait in MPI_Barrier."
    )
    expectation = Expectation(
        required=(
            ("ExcessiveSyncWaitingTime",),
            ("ExcessiveSyncWaitingTime", "Barrier"),
            ("CPUBound", "bottleneckProcedure"),  # with threshold 0.2
        ),
    )

    def __init__(
        self,
        iterations: int = 800,
        bottleneck_seconds: float = 8e-3,
        irrelevant_seconds: float = 2e-5,
        num_irrelevant: int = 5,
    ) -> None:
        self.iterations = iterations
        self.bottleneck_seconds = bottleneck_seconds
        self.irrelevant_seconds = irrelevant_seconds
        self.num_irrelevant = num_irrelevant

    def functions(self):
        fns = {"bottleneckProcedure": self._bottleneck}
        for i in range(self.num_irrelevant):
            fns[f"irrelevantProcedure{i}"] = self._irrelevant
        return fns

    def _bottleneck(self, mpi, proc) -> Generator:
        yield from mpi.compute(self.bottleneck_seconds)

    def _irrelevant(self, mpi, proc) -> Generator:
        yield from mpi.compute(self.irrelevant_seconds)

    def main(self, mpi) -> Generator:
        yield from mpi.init()
        n = mpi.size
        for iteration in range(self.iterations):
            if iteration % n == mpi.rank:
                yield from mpi.call("bottleneckProcedure")
            for i in range(self.num_irrelevant):
                yield from mpi.call(f"irrelevantProcedure{i}")
            yield from mpi.barrier()
        yield from mpi.finalize()
