"""The top-level tool session: the enhanced Paradyn.

:class:`Paradyn` wires the pieces together the way the paper's Figure-free
architecture section describes: a front end, one daemon per cluster node,
per-process attach (image walk, detection snippets, call-graph hook), the
Performance Consultant, and spawn support.  It hooks the MPI universe's
process-creation callbacks, which models the enhanced launch path of
Section 4.1 (daemons start the MPI processes directly -- the intermediate
mpirun-generated script the paper removed does not exist here either).

Typical use::

    universe = MpiUniverse(impl="lam")
    tool = Paradyn(universe)
    tool.enable("msg_bytes_sent", Focus.whole_program())
    tool.run_consultant()
    universe.launch(program, nprocs)
    universe.run()
    print(tool.consultant.render_condensed())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..mpi.world import MpiUniverse, MpiWorld
from .consultant import PerformanceConsultant
from .daemon import Daemon
from .frontend import Frontend, MetricFocusData
from .histogram import FoldingHistogram
from .metrics import build_library
from .pcl import PclConfig
from .resources import Focus
from .spawnsupport import AttachSpawnSupport, InterceptSpawnSupport, SpawnSupport

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.process import SimProcess

__all__ = ["Paradyn"]


class Paradyn:
    """One tool session attached to one MPI universe."""

    def __init__(
        self,
        universe: MpiUniverse,
        *,
        config: Optional[PclConfig] = None,
        bin_width: float = 0.2,
        num_bins: int = 1000,
        snippet_cost: float = 2.5e-7,
        legacy_metrics: bool = False,
        spawn_method: str = "intercept",
        pc_thresholds: Optional[dict[str, float]] = None,
        pc_experiment_window: float = 2.0,
        monitor_spawned: bool = True,
    ) -> None:
        self.universe = universe
        self.config = config or PclConfig()
        bin_width = self.config.tunable("samplingInterval", bin_width)
        self.frontend = Frontend(
            build_library(legacy_metrics=legacy_metrics),
            num_bins=num_bins,
            bin_width=bin_width,
        )
        if self.config.mdl is not None:
            self.frontend.library.definitions.merge(self.config.mdl)
        thresholds = dict(pc_thresholds or {})
        for key in ("PC_SyncThreshold", "PC_CPUThreshold", "PC_IOThreshold"):
            if key in self.config.tunables:
                thresholds.setdefault(key, self.config.tunables[key])
        self.consultant = PerformanceConsultant(
            self.frontend,
            universe.kernel,
            thresholds=thresholds,
            experiment_window=self.config.tunable("PC_ExperimentWindow", pc_experiment_window),
        )
        self.frontend.cost_tracker.cost_limit = self.config.tunable(
            "costLimit", self.frontend.cost_tracker.cost_limit
        )
        self.snippet_cost = snippet_cost
        self.monitor_spawned = monitor_spawned
        self._daemons: dict[str, Daemon] = {}
        self.spawn_support: SpawnSupport
        if spawn_method == "intercept":
            self.spawn_support = InterceptSpawnSupport(self)
        elif spawn_method == "attach":
            self.spawn_support = AttachSpawnSupport(self)
        else:
            raise ValueError(f"unknown spawn method {spawn_method!r}")
        universe.process_hooks.append(self._on_process_created)
        universe.comm_hooks.append(self._on_comm_created)

    # -- daemons -------------------------------------------------------------------

    def daemon_for(self, node_name: str) -> Daemon:
        daemon = self._daemons.get(node_name)
        if daemon is None:
            daemon = Daemon(
                self.frontend,
                self.universe.kernel,
                node_name,
                mpi_implementation=self.universe.impl.name,
                snippet_cost=self.snippet_cost,
            )
            self._daemons[node_name] = daemon
        return daemon

    @property
    def daemons(self) -> list[Daemon]:
        return list(self._daemons.values())

    # -- universe hooks ----------------------------------------------------------------

    def _on_process_created(self, proc: "SimProcess", endpoint: Any, world: MpiWorld) -> None:
        if world.parent_comm is None:
            # initial launch: the daemon started this process
            self.attach_process(proc, endpoint, world)
        elif self.monitor_spawned:
            self.spawn_support.on_spawned_process(proc, endpoint, world)

    def _on_comm_created(self, comm: Any) -> None:
        self.frontend.report_new_communicator(comm)

    def attach_process(self, proc: "SimProcess", endpoint: Any, world: MpiWorld) -> None:
        daemon = self.daemon_for(proc.node.name)
        daemon.attach(proc)
        self.consultant.install_callgraph_hook(proc)
        self.spawn_support.install(proc, endpoint)
        self.frontend.attach_new_process(proc)

    # -- user operations ------------------------------------------------------------------

    def enable(self, metric_name: str, focus: Optional[Focus] = None) -> MetricFocusData:
        """Request data for a metric-focus pair (a Paradyn visualization)."""
        focus = focus or Focus.whole_program()
        return self.frontend.enable(metric_name, focus, now=self.universe.kernel.now)

    def disable(self, metric_name: str, focus: Optional[Focus] = None) -> None:
        self.frontend.disable(metric_name, focus or Focus.whole_program())

    def data(self, metric_name: str, focus: Optional[Focus] = None) -> MetricFocusData:
        focus = focus or Focus.whole_program()
        data = self.frontend.enabled.get((metric_name, focus))
        if data is None:
            raise KeyError(f"metric-focus pair never enabled: {metric_name} @ {focus}")
        return data

    def histogram(
        self, metric_name: str, focus: Optional[Focus] = None, pid: Optional[int] = None
    ) -> FoldingHistogram:
        data = self.data(metric_name, focus)
        if pid is None:
            return data.aggregate_histogram()
        return data.histogram_for(pid)

    def run_consultant(self) -> PerformanceConsultant:
        """Start the Performance Consultant's automated search."""
        self.consultant.start()
        return self.consultant

    # -- hierarchy shortcuts ------------------------------------------------------------------

    @property
    def hierarchy(self):
        return self.frontend.hierarchy

    def render_hierarchy(self) -> str:
        return self.frontend.hierarchy.render()

    def render_consultant(self) -> str:
        return self.consultant.render_condensed()
