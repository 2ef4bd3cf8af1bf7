"""One-call experiment harness: program + implementation -> tool results.

Wraps the common recipe of the paper's experiments: build a cluster shaped
like the paper's runs ("two each on three nodes"), create the universe for
the chosen MPI implementation, attach the tool, optionally start the
Performance Consultant and/or enable metric-focus pairs, run to
completion, and hand back everything the analyses need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from ..core.resources import Focus
from ..core.tool import Paradyn
from ..mpi.world import MpiUniverse, MpiWorld
from ..pperfmark.base import PPerfProgram
from ..sim.node import Cluster

__all__ = ["RunResult", "run_program", "cluster_for", "rank_placement"]


@dataclass
class RunResult:
    """Everything produced by one experiment run."""

    program: PPerfProgram
    impl: str
    universe: MpiUniverse
    world: MpiWorld
    tool: Optional[Paradyn]
    elapsed: float

    @property
    def consultant(self):
        if self.tool is None:
            raise RuntimeError("run had no tool attached")
        return self.tool.consultant

    def histogram(self, metric: str, focus: Optional[Focus] = None, pid: Optional[int] = None):
        assert self.tool is not None
        return self.tool.histogram(metric, focus, pid=pid)

    def data(self, metric: str, focus: Optional[Focus] = None):
        assert self.tool is not None
        return self.tool.data(metric, focus)

    def proc(self, rank: int):
        return self.world.endpoints[rank].proc


def cluster_for(nprocs: int, procs_per_node: int, cpus_per_node: int = 2) -> Cluster:
    """A cluster sized like the paper's runs (N procs, k per node)."""
    procs_per_node = max(1, min(procs_per_node, cpus_per_node))
    nodes = max(2, math.ceil(nprocs / procs_per_node))
    return Cluster(num_nodes=nodes, cpus_per_node=cpus_per_node)


def rank_placement(cluster: Cluster, nprocs: int, procs_per_node: int) -> list:
    """The CPU of each rank: ``procs_per_node`` ranks per node, in node
    order, wrapping round the cluster."""
    per_node = max(1, min(procs_per_node, cluster.nodes[0].num_cpus))
    return [
        cluster.nodes[(rank // per_node) % cluster.num_nodes].cpus[rank % per_node]
        for rank in range(nprocs)
    ]


def run_program(
    program: PPerfProgram,
    *,
    impl: str = "lam",
    nprocs: Optional[int] = None,
    with_tool: bool = True,
    consultant: bool = True,
    metrics: Sequence[tuple[str, Focus]] = (),
    thresholds: Optional[dict[str, float]] = None,
    pc_window: float = 0.8,
    bin_width: float = 0.2,
    snippet_cost: float = 2.5e-7,
    legacy_metrics: bool = False,
    spawn_method: str = "intercept",
    seed: int = 0,
    until: Optional[float] = None,
    num_bins: int = 1000,
) -> RunResult:
    """Run one PPerfMark program under the tool and return the results."""
    nprocs = nprocs or program.default_nprocs
    cluster = cluster_for(nprocs, program.procs_per_node)
    universe = MpiUniverse(impl=impl, cluster=cluster, seed=seed)
    tool: Optional[Paradyn] = None
    if with_tool:
        tool = Paradyn(
            universe,
            bin_width=bin_width,
            num_bins=num_bins,
            snippet_cost=snippet_cost,
            legacy_metrics=legacy_metrics,
            spawn_method=spawn_method,
            pc_thresholds=thresholds,
            pc_experiment_window=pc_window,
        )
        for metric, focus in metrics:
            tool.enable(metric, focus)
        if consultant:
            tool.run_consultant()
    placement = rank_placement(cluster, nprocs, program.procs_per_node)
    world = universe.launch(program, nprocs, placement=placement)
    universe.run(until=until)
    return RunResult(
        program=program,
        impl=impl,
        universe=universe,
        world=world,
        tool=tool,
        elapsed=universe.kernel.now,
    )
