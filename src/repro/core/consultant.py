"""The Performance Consultant: automated bottleneck search.

Paradyn's Performance Consultant tests *hypotheses* about why a program is
slow against *foci* in the resource hierarchy, refining hypotheses that
test true along the Code, Machine and SyncObject axes (the W3 search
model).  The paper's condensed PC diagrams (Figures 3-24) are exactly the
true-tested subtree this module produces.

Hypotheses and default thresholds (tunable constants, Section 4's PCL):

* ``ExcessiveSyncWaitingTime`` -- fraction of wall time in synchronization
  (message passing, collectives, RMA synchronization) per process.
* ``ExcessiveIOBlockingTime`` -- fraction of wall time in ``read``/``write``.
* ``CPUBound`` -- user-CPU utilization per process.  The default threshold
  is 0.3: the paper's diffuse-procedure run (25% per process in
  ``bottleneckProcedure``) is found only after lowering it to 0.2
  (Section 5.1.7), which this implementation reproduces.

The search is *on-line*: each candidate node gets instrumentation enabled,
collects for one experiment window, is decided, and (when true) spawns
refinements.  Instrumentation for decided nodes is removed -- the dynamic
instrumentation economy the paper leans on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..observe.recorder import active as _observe_active
from .frontend import Frontend, MetricFocusData
from .mdl import MdlCompileError
from .resources import Focus

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Kernel

__all__ = ["PerformanceConsultant", "PCNode", "NodeState", "Hypothesis", "HYPOTHESES"]


class NodeState(enum.Enum):
    PENDING = "pending"
    TESTING = "testing"
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"  # program ended before the experiment finished


@dataclass(frozen=True)
class Hypothesis:
    name: str
    threshold_name: str

    def metric_for(self, focus: Focus) -> str:
        raise NotImplementedError


class _SyncHypothesis(Hypothesis):
    def metric_for(self, focus: Focus) -> str:
        component = focus.sync_object
        if component.startswith("/SyncObject/Message"):
            return "msg_sync_wait"
        if component.startswith("/SyncObject/Barrier"):
            return "barrier_sync_wait"
        if component.startswith("/SyncObject/Window"):
            return "rma_sync_wait"
        return "sync_wait"


class _CpuHypothesis(Hypothesis):
    def metric_for(self, focus: Focus) -> str:
        if focus.code != "/Code":
            return "cpu_inclusive"
        return "cpu"


class _IoHypothesis(Hypothesis):
    def metric_for(self, focus: Focus) -> str:
        return "io_wait"


SYNC = _SyncHypothesis("ExcessiveSyncWaitingTime", "PC_SyncThreshold")
CPU = _CpuHypothesis("CPUBound", "PC_CPUThreshold")
IO = _IoHypothesis("ExcessiveIOBlockingTime", "PC_IOThreshold")
HYPOTHESES: tuple[Hypothesis, ...] = (SYNC, CPU, IO)

DEFAULT_THRESHOLDS = {
    "PC_SyncThreshold": 0.25,
    "PC_CPUThreshold": 0.30,
    "PC_IOThreshold": 0.15,
}

#: refinement batches at or above this many children expand *lazily*: the
#: search keeps a cursor of (resource path, label) strings and materializes
#: a PCNode (plus its Focus) only when a testing slot frees up.  At a
#: thousand ranks a single true machine-axis node would otherwise fan out
#: into a thousand mostly-never-tested node allocations up front.  Below
#: the bound the eager path runs exactly as before.
LAZY_EXPANSION_BOUND = 128

#: experiments in flight at once
MAX_CONCURRENT = 12
#: deepest node the search tests (the root is depth 0); deeper
#: refinements end UNKNOWN
MAX_DEPTH = 8
#: simulated seconds an experiment must observe before the program ends
#: for its verdict to count (shorter ones end UNKNOWN)
MIN_OBSERVATION = 0.5


@dataclass
class PCNode:
    hypothesis: Hypothesis
    focus: Focus
    parent: Optional["PCNode"] = None
    state: NodeState = NodeState.PENDING
    value: float = 0.0
    metric_name: str = ""
    children: list["PCNode"] = field(default_factory=list)
    depth: int = 0
    started_at: float = 0.0
    label: str = ""

    @property
    def is_true(self) -> bool:
        return self.state is NodeState.TRUE

    def describe(self) -> str:
        if self.parent is None:
            return "TopLevelHypothesis"
        if self.label:
            return self.label
        return f"{self.hypothesis.name} @ {self.focus.describe()}"


class PerformanceConsultant:
    """Drives the hypothesis search over simulated time."""

    def __init__(
        self,
        frontend: Frontend,
        kernel: "Kernel",
        *,
        thresholds: Optional[dict[str, float]] = None,
        experiment_window: float = 2.0,
    ) -> None:
        self.frontend = frontend
        self.kernel = kernel
        self.thresholds = dict(DEFAULT_THRESHOLDS)
        if thresholds:
            self.thresholds.update(thresholds)
        self.experiment_window = experiment_window
        #: dynamic call graph observed by the entry hook while the search
        #: runs: function name -> set of callee names
        self.callgraph: dict[str, set[str]] = {}
        self.root = PCNode(hypothesis=SYNC, focus=Focus.whole_program(), label="TopLevelHypothesis")
        self.root.state = NodeState.TRUE  # the root is definitional
        self._queue: list[PCNode] = []
        #: lazy refinement cursors: [hypothesis, parent, focus-applier,
        #: reversed (path, label) list] -- popped item by item as testing
        #: slots free up, so huge fan-outs never materialize whole
        self._expansions: list[list[Any]] = []
        #: refinement candidates the run ended before even materializing
        #: (only ever nonzero past LAZY_EXPANSION_BOUND-wide fan-outs)
        self.unexpanded = 0
        self._testing: list[PCNode] = []
        self._tested: dict[tuple[str, Focus], PCNode] = {}
        self._running = False
        self.finished = False
        for hypothesis in HYPOTHESES:
            self._enqueue(hypothesis, Focus.whole_program(), self.root)

    # -- callgraph hook --------------------------------------------------------

    def observe_call(self, proc: Any, frame: Any) -> None:
        # An entry hook on every simulated call: the caller is the frame
        # below ``frame``.  Avoids setdefault (which allocates its default
        # set even on hits) and the Frame.name property.
        stack = proc.stack
        if len(stack) < 2:
            return
        graph = self.callgraph
        caller_name = stack[-2].function.name
        callees = graph.get(caller_name)
        if callees is None:
            callees = graph[caller_name] = set()
        callees.add(frame.function.name)

    def install_callgraph_hook(self, proc: Any) -> None:
        # only while the search runs; start() hooks earlier attaches
        if self._running:
            proc.entry_hooks.append(self.observe_call)

    # -- search driving ------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        for proc in self.frontend.all_procs():
            proc.entry_hooks.append(self.observe_call)
        self.frontend.schedule_tick(self.kernel, self.experiment_window / 2.0, self._tick)

    def _tick(self) -> None:
        now = self.kernel.now
        self._evaluate_finished(now)
        self._launch_pending(now)
        alive = any(not proc.exited for proc in self.frontend.all_procs())
        # the program is over once every process has exited, or once only
        # tool ticks are queued (a deadlock; see Frontend.only_ticks_left)
        if alive and not self.frontend.only_ticks_left(self.kernel):
            self.frontend.schedule_tick(self.kernel, self.experiment_window / 2.0, self._tick)
        else:
            self._finalize(now)

    def _finalize(self, now: float) -> None:
        """Program over: close out in-flight experiments with whatever data
        they gathered (or UNKNOWN if they saw too little)."""
        for node in list(self._testing):
            self._decide(node, now, final=True)
        self._testing.clear()
        for node in self._queue:
            node.state = NodeState.UNKNOWN
        self._queue.clear()
        for entry in self._expansions:
            self.unexpanded += len(entry[3])
        self._expansions.clear()
        self._running = False
        self.finished = True

    def _enqueue(self, hypothesis: Hypothesis, focus: Focus, parent: PCNode, label: str = "") -> None:
        key = (hypothesis.name, focus)
        if key in self._tested:
            return  # already explored via another refinement path
        node = PCNode(
            hypothesis=hypothesis,
            focus=focus,
            parent=parent,
            depth=parent.depth + 1,
            label=label,
        )
        self._tested[key] = node
        parent.children.append(node)
        if node.depth <= MAX_DEPTH:
            self._queue.append(node)
        else:  # pragma: no cover - depth guard
            node.state = NodeState.UNKNOWN

    def _launch_pending(self, now: float) -> None:
        # Paradyn's cost model: never let instrumentation overhead exceed
        # the tunable limit -- defer new experiments when the mutatee is
        # already perturbed past it.
        if self.frontend.cost_tracker.over_limit():
            return
        # LIFO: newest (deepest) candidates first, so refinement chains run
        # depth-first and reach leaf causes before the program ends.
        while len(self._testing) < MAX_CONCURRENT:
            node = self._next_candidate()
            if node is None:
                return
            metric = node.hypothesis.metric_for(node.focus)
            node.metric_name = metric
            try:
                self.frontend.enable(metric, node.focus, now=now)
            except MdlCompileError:
                node.state = NodeState.UNKNOWN
                continue
            node.state = NodeState.TESTING
            node.started_at = now
            self._testing.append(node)

    def _next_candidate(self) -> Optional[PCNode]:
        """Next node to test: lazy cursors first (they only exist for the
        newest huge fan-outs), then the eager LIFO queue."""
        while self._expansions:
            hypothesis, parent, apply_axis, items = self._expansions[-1]
            while items:
                path, label = items.pop()
                focus = apply_axis(path)
                key = (hypothesis.name, focus)
                if key in self._tested:
                    continue  # already explored via another refinement path
                node = PCNode(
                    hypothesis=hypothesis,
                    focus=focus,
                    parent=parent,
                    depth=parent.depth + 1,
                    label=label,
                )
                self._tested[key] = node
                parent.children.append(node)
                if node.depth <= MAX_DEPTH:
                    return node
                node.state = NodeState.UNKNOWN  # pragma: no cover - depth guard
            self._expansions.pop()
        if self._queue:
            return self._queue.pop()
        return None

    def _evaluate_finished(self, now: float) -> None:
        due = [n for n in self._testing if now - n.started_at >= self.experiment_window]
        if not due:
            return
        # flush outstanding counter/timer accumulation so decisions see
        # data up to *now*, not up to the last periodic sample
        for daemon in self.frontend.daemons:
            daemon.sample_now(now)
        for node in due:
            self._decide(node, now)
            self._testing.remove(node)

    def _decide(self, node: PCNode, now: float, *, final: bool = False) -> None:
        data = self.frontend.enabled.get((node.metric_name, node.focus))
        observed = now - node.started_at
        if data is None or observed <= 0.0 or (final and observed < MIN_OBSERVATION):
            node.state = NodeState.UNKNOWN
            self._record_decision(node)
            return
        # A hypothesis tests true when the *worst* matching process exceeds
        # the threshold -- a bottleneck anywhere is worth refining, even if
        # averaging across the job would dilute it (intensive-server's one
        # busy server among five idle clients).
        value = data.max_normalized(node.started_at, now)
        node.value = value
        threshold = self.thresholds[node.hypothesis.threshold_name]
        if value > threshold:
            node.state = NodeState.TRUE
            self._record_decision(node)
            self._refine(node)
        else:
            node.state = NodeState.FALSE
            self._record_decision(node)
        # decided: remove the instrumentation (dynamic economy)
        self.frontend.disable(node.metric_name, node.focus)

    @staticmethod
    def _record_decision(node: PCNode) -> None:
        """Publish the decision to the flight recorder (when one is on) so
        a live viewer can watch the search narrow; the simulated search is
        untouched -- this reads state, it never advances the kernel."""
        rec = _observe_active()
        if rec is None:
            return
        rec.instant(
            "pc.decide",
            node=node.describe(),
            state=node.state.name,
            value=round(node.value, 6) if node.value is not None else None,
            metric=node.metric_name,
            depth=node.depth,
        )

    # -- refinement ----------------------------------------------------------------

    def _refine(self, node: PCNode) -> None:
        """Generate refinements of a true node.

        Unbounded cross-products of the three axes would swamp the search
        (every machine x code x sync combination), so refinement follows
        the paper's diagnosis shapes:

        * the **code chain** (module -> function -> callees) refines from
          pure code paths and may *end* in a SyncObject refinement -- the
          Figure 3/10 shape ``Gsend_message -> MPI_Send -> communicator ->
          tag``;
        * the **machine tree** (node -> process) stays flat;
        * the **sync tree** (category -> instance -> tag) refines from the
          whole-program focus.

        Enqueue order matters: the queue is LIFO, so the *last* axis
        enqueued is explored first -- code chains have priority.
        """
        rec = _observe_active()
        if rec is not None:
            rec.instant("pc.refine", node=node.describe(), depth=node.depth)
        hypothesis = node.hypothesis
        focus = node.focus
        pure_code = focus.machine == "/Machine"
        pure_sync = focus.code == "/Code" and focus.machine == "/Machine"
        if hypothesis is SYNC and (pure_sync or focus.code != "/Code"):
            self._expand(hypothesis, node, focus.with_sync_object, self._sync_refinements(focus))
        if focus.code == "/Code" and focus.sync_object == "/SyncObject":
            self._expand(hypothesis, node, focus.with_machine, self._machine_refinements(focus))
        if pure_code and focus.sync_object == "/SyncObject":
            self._expand(hypothesis, node, focus.with_code, self._code_refinements(focus))

    def _expand(
        self,
        hypothesis: Hypothesis,
        parent: PCNode,
        apply_axis: Callable[[str], Focus],
        items: list[tuple[str, str]],
    ) -> None:
        """Enqueue one axis's refinements: eagerly below the lazy bound
        (unchanged search behaviour), as a cursor of path strings above it."""
        if len(items) < LAZY_EXPANSION_BOUND:
            for path, label in items:
                self._enqueue(hypothesis, apply_axis(path), parent, label)
        else:
            self._expansions.append([hypothesis, parent, apply_axis, list(reversed(items))])

    def _code_refinements(self, focus: Focus) -> list[tuple[str, str]]:
        hierarchy = self.frontend.hierarchy
        out: list[tuple[str, str]] = []
        component = focus.code
        if component == "/Code":
            for module in hierarchy.code.active_children():
                if self._module_is_system(module.name):
                    continue
                out.append((module.path, module.label))
        else:
            parts = component.strip("/").split("/")
            if len(parts) == 2:  # /Code/module -> functions
                module = hierarchy.find(component)
                for fn in module.active_children():
                    out.append((fn.path, fn.label))
            elif len(parts) == 3:  # /Code/module/function -> observed callees
                fn_name = parts[2]
                for callee in sorted(self.callgraph.get(fn_name, ())):
                    callee_path = self._code_path_for_function(callee)
                    if callee_path is not None and callee_path != component:
                        out.append((callee_path, callee))
        return out

    def _code_path_for_function(self, fn_name: str) -> Optional[str]:
        for module in self.frontend.hierarchy.code.children.values():
            if fn_name in module.children:
                return module.children[fn_name].path
        return None

    def _module_is_system(self, module_name: str) -> bool:
        return module_name.startswith("lib") and module_name.endswith(".so")

    def _machine_refinements(self, focus: Focus) -> list[tuple[str, str]]:
        hierarchy = self.frontend.hierarchy
        component = focus.machine
        out: list[tuple[str, str]] = []
        if component == "/Machine":
            for machine in hierarchy.machine.active_children():
                out.append((machine.path, machine.label))
        else:
            parts = component.strip("/").split("/")
            if len(parts) == 2:  # node -> processes
                node = hierarchy.find(component)
                for proc in node.active_children():
                    out.append((proc.path, proc.label))
        return out

    def _sync_refinements(self, focus: Focus) -> list[tuple[str, str]]:
        hierarchy = self.frontend.hierarchy
        component = focus.sync_object
        out: list[tuple[str, str]] = []
        if component == "/SyncObject":
            for category in hierarchy.sync_objects.active_children():
                out.append((category.path, category.name))
        else:
            parts = component.strip("/").split("/")
            node = hierarchy.find(component)
            if len(parts) == 2:  # category -> instances
                for instance in node.active_children():
                    out.append((instance.path, instance.label))
            elif len(parts) == 3 and parts[1] == "Message":
                for tag_node in node.active_children():
                    out.append((tag_node.path, tag_node.label))
        return out

    # -- results ------------------------------------------------------------------------

    def true_nodes(self) -> list[PCNode]:
        result = []

        def visit(node: PCNode) -> None:
            for child in node.children:
                if child.is_true:
                    result.append(child)
                visit(child)

        visit(self.root)
        return result

    def found(self, hypothesis_name: str, *needles: str) -> bool:
        """True iff some true node for the hypothesis mentions all needles
        in its focus description (helper for the verdict logic)."""
        for node in self.true_nodes():
            if node.hypothesis.name != hypothesis_name:
                continue
            description = node.focus.describe()
            if all(needle in description for needle in needles):
                return True
        return False

    def search_history(self) -> list[PCNode]:
        """Every node the search generated, in discovery order (Paradyn's
        Search History Graph, including false/unknown nodes)."""
        result: list[PCNode] = []

        def visit(node: PCNode) -> None:
            for child in node.children:
                result.append(child)
                visit(child)

        visit(self.root)
        return result

    def summary(self) -> dict[str, int]:
        """Counts by outcome over the whole search."""
        counts = {state.value: 0 for state in NodeState}
        for node in self.search_history():
            counts[node.state.value] += 1
        counts["total"] = len(self.search_history())
        return counts

    def render_search_history(self) -> str:
        """The full search record: every experiment with its verdict."""
        lines = [f"Search history ({len(self.search_history())} experiments):"]

        def visit(node: PCNode, indent: int) -> None:
            for child in node.children:
                mark = {"true": "+", "false": "-", "unknown": "?"}.get(
                    child.state.value, "."
                )
                lines.append(
                    "  " * indent
                    + f"{mark} {child.hypothesis.name} @ {child.focus.describe()}"
                    + (f"  [{child.value:.2f}]" if child.state is not NodeState.UNKNOWN else "")
                )
                visit(child, indent + 1)

        visit(self.root, 1)
        if self.unexpanded:
            lines.append(
                f"  ({self.unexpanded} refinement candidates never expanded)"
            )
        return "\n".join(lines)

    def render_condensed(self) -> str:
        """The condensed PC diagram of the paper: true nodes only."""
        lines: list[str] = ["TopLevelHypothesis"]

        def visit(node: PCNode, indent: int) -> None:
            for child in node.children:
                if child.is_true:
                    what = child.label or child.focus.describe()
                    if child.parent is self.root:
                        what = child.hypothesis.name
                    lines.append("  " * indent + f"+ {what}  [{child.value:.2f}]")
                    visit(child, indent + 1)
                else:
                    visit(child, indent)

        visit(self.root, 1)
        return "\n".join(lines)
