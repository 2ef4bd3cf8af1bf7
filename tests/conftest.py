"""Shared fixtures: small clusters, universes, and simple MPI programs."""

from __future__ import annotations

import pytest

from repro.mpi import MpiProgram, MpiUniverse
from repro.sim import Cluster, Kernel


def pytest_addoption(parser):
    # tests/test_sweep_outputs.py: byte-compare two sweeps' outputs
    parser.addoption("--compare-caches", nargs=2, metavar=("LHS", "RHS"),
                     help="two fleet cache roots whose objects must match")
    parser.addoption("--compare-reports", nargs=2, metavar=("LHS", "RHS"),
                     help="two report directories whose *.txt must match")
    # ... and check what one sweep wrote to BENCH_fleet.json
    parser.addoption("--sweep-summary", metavar="PATH",
                     help="a sweep's BENCH_fleet.json: render lead, packing")
    parser.addoption("--chaos-summary", metavar="PATH",
                     help="a remote --chaos sweep's BENCH_fleet.json: "
                     "the drill happened and no job was lost")
    parser.addoption("--live-replay", nargs=3,
                     metavar=("LIVE", "CPATH", "SUMMARY"),
                     help="a live client's raw replay and last "
                     "/critical-path, and that sweep's BENCH_fleet.json")
    parser.addoption("--resweep-summary", metavar="PATH",
                     help="a re-sweep's BENCH_fleet.json: every render "
                     "restored from the warm cache")


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


@pytest.fixture
def cluster() -> Cluster:
    return Cluster(num_nodes=3, cpus_per_node=2)


def make_universe(impl: str = "lam", *, num_nodes: int = 3, seed: int = 0) -> MpiUniverse:
    return MpiUniverse(impl=impl, cluster=Cluster(num_nodes=num_nodes, cpus_per_node=2), seed=seed)


@pytest.fixture
def universe() -> MpiUniverse:
    return make_universe()


class ScriptProgram(MpiProgram):
    """Wrap a plain generator function ``script(mpi)`` as an MpiProgram."""

    def __init__(self, script, name="script", module="script.c", functions=None):
        self.name = name
        self.module = module
        self._script = script
        self._functions = functions or {}

    def functions(self):
        return dict(self._functions)

    def main(self, mpi):
        return (yield from self._script(mpi))


def run_script(script, nprocs=2, impl="lam", *, universe=None, functions=None, until=None):
    """Launch ``script(mpi)`` on ``nprocs`` ranks and run to completion."""
    uni = universe or make_universe(impl)
    world = uni.launch(ScriptProgram(script, functions=functions), nprocs)
    uni.run(until=until)
    return uni, world
