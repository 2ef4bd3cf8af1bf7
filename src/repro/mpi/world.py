"""MPI universes and worlds: launching, spawning, and program registry.

An :class:`MpiUniverse` owns the kernel, cluster, network, one MPI
implementation personality, and every process started under it.  Each
``mpirun`` (or ``MPI_Comm_spawn``) creates an :class:`MpiWorld` -- a group of
ranks sharing an ``MPI_COMM_WORLD``.  The universe also carries the hooks a
performance tool uses to find processes:

* ``process_hooks`` fire for every newly created process (how the tool's
  daemons attach at startup, and how the *intercept* spawn-support method
  sees children -- the daemon itself launches them);
* ``mpir_proctable`` is the MPIR debug-interface process table (Section
  4.2.2 of the paper); only personalities with the ``mpir_proctable``
  feature keep it updated, mirroring the paper's observation that neither
  LAM nor MPICH2 supported it yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional, Sequence

from ..dyninst.image import Image
from ..sim.kernel import Kernel
from ..sim.network import NetworkModel
from ..sim.node import Cluster, Cpu
from ..sim.process import SimProcess
from ..sim.rng import RngStreams
from .comm import Communicator, Group
from .errors import SpawnError
from .runtime import Endpoint, MpiApi

if TYPE_CHECKING:  # pragma: no cover
    from .impls.base import BaseImpl

__all__ = ["MpiProgram", "MpiWorld", "MpiUniverse", "MPIR_ProcDesc"]


class MpiProgram:
    """Base class for simulated MPI applications.

    Subclasses set :attr:`name` / :attr:`module` and implement
    :meth:`main`.  Application functions that should be visible to the tool
    (the Code hierarchy, gprof, MPE tracing) are declared by
    :meth:`functions` and invoked with ``mpi.call(name, ...)``.
    """

    name = "a.out"
    module = "a.out.c"

    def functions(self) -> dict[str, Callable]:
        """name -> generator function ``fn(api, proc, *args)``."""
        return {}

    def register(self, image: Image, api: MpiApi) -> None:
        # bodies return the generator they delegate to, for the call to drive
        for fname, fn in self.functions().items():
            def body(proc, *args, _fn=fn, _api=api):
                return _fn(_api, proc, *args)

            body.__name__ = fname
            image.add_function(fname, body, module=self.module, tags={"app"})

        # the program's entry point is a function too, so tools see a
        # complete call chain (main -> app functions -> MPI)
        def main_body(proc, _self=self, _api=api):
            return _self.main(_api)

        main_body.__name__ = "main"
        image.add_function("main", main_body, module=self.module, tags={"app", "entry"})

    def main(self, mpi: MpiApi) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover


@dataclass
class MPIR_ProcDesc:
    """One row of the MPIR debug-interface process table."""

    host_name: str
    executable_name: str
    pid: int
    spawned: bool = False


class MpiWorld:
    """One launch group: ranks 0..n-1 sharing a COMM_WORLD."""

    def __init__(
        self,
        universe: "MpiUniverse",
        world_id: int,
        program: MpiProgram,
        *,
        parent_comm: Optional[Communicator] = None,
    ) -> None:
        self.universe = universe
        self.world_id = world_id
        self.program = program
        self.endpoints: list[Endpoint] = []
        self.comm_world: Optional[Communicator] = None
        self.parent_intercomm: Optional[Communicator] = None
        self.parent_comm = parent_comm
        self.tasks = []

    @property
    def size(self) -> int:
        return len(self.endpoints)

    def endpoint(self, rank: int) -> Endpoint:
        return self.endpoints[rank]

    def procs(self) -> list[SimProcess]:
        return [ep.proc for ep in self.endpoints]

    def finished(self) -> bool:
        return all(ep.proc.exited for ep in self.endpoints)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MpiWorld {self.world_id} {self.program.name!r} n={self.size}>"


class MpiUniverse:
    """Everything running under one simulated job submission."""

    def __init__(
        self,
        *,
        impl: "str | BaseImpl" = "lam",
        cluster: Optional[Cluster] = None,
        network: Optional[NetworkModel] = None,
        kernel: Optional[Kernel] = None,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel or Kernel()
        self.cluster = cluster or Cluster()
        self.network = network or NetworkModel()
        self.rng = RngStreams(seed)
        self.worlds: list[MpiWorld] = []
        self.flow_channels: dict = {}
        self.program_registry: dict[str, MpiProgram] = {}
        #: callables (proc, endpoint, world) run at every process creation.
        self.process_hooks: list[Callable[[SimProcess, Endpoint, MpiWorld], None]] = []
        #: callables (comm) run at every communicator creation.
        self.comm_hooks: list[Callable[[Communicator], None]] = []
        #: callables (kind, data) for engine-internal events (message
        #: matching, etc.) that neither the call hooks nor the window
        #: observers can see; used by the sanitizer.
        self.event_hooks: list[Callable[[str, dict], None]] = []
        #: callables (window) run at every window creation.
        self.win_hooks: list[Callable[[Any], None]] = []
        self.mpir_proctable: list[MPIR_ProcDesc] = []
        #: id(proc) -> Endpoint, so one shared MPI function body per
        #: personality can recover the calling endpoint from the process
        #: (images then clone a per-impl template instead of re-binding
        #: every MPI entry point per rank -- the launch cost at thousands
        #: of ranks)
        self._ep_of_proc: dict[int, Endpoint] = {}
        self._next_cid = 1
        self._next_world_id = 0
        self._rr_cpu = 0
        self.impl = self._make_impl(impl)

    def emit(self, kind: str, **data: Any) -> None:
        """Broadcast an engine-internal event to any registered listeners."""
        if not self.event_hooks:
            return
        for hook in list(self.event_hooks):
            hook(kind, data)

    def notify_window(self, window: Any) -> None:
        for hook in list(self.win_hooks):
            hook(window)

    def _make_impl(self, impl: "str | BaseImpl") -> "BaseImpl":
        if not isinstance(impl, str):
            impl.universe = self
            return impl
        from .impls import create_impl

        return create_impl(impl, self)

    # -- registry / ids -------------------------------------------------------

    def register_program(self, program: MpiProgram) -> None:
        self.program_registry[program.name] = program

    def lookup_program(self, command: str) -> MpiProgram:
        try:
            return self.program_registry[command]
        except KeyError:
            raise SpawnError(
                f"unknown command {command!r}; registered: {sorted(self.program_registry)}"
            ) from None

    def alloc_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def new_communicator(
        self,
        members: "Group | Iterable[Endpoint]",
        *,
        remote: Optional[Iterable[Endpoint]] = None,
        name: str = "",
        internal: bool = False,
    ) -> Communicator:
        group = members if isinstance(members, Group) else Group(members)
        remote_group = None
        if remote is not None:
            remote_group = remote if isinstance(remote, Group) else Group(remote)
        comm = Communicator(
            self.kernel,
            self.alloc_cid(),
            group,
            remote_group=remote_group,
            name=name,
            internal=internal,
        )
        for hook in list(self.comm_hooks):
            hook(comm)
        return comm

    # -- placement ---------------------------------------------------------------

    def round_robin_placement(self, nprocs: int) -> list[Cpu]:
        cpus = list(self.cluster.cpus())
        placement = []
        for _ in range(nprocs):
            placement.append(cpus[self._rr_cpu % len(cpus)])
            self._rr_cpu += 1
        return placement

    # -- launching -----------------------------------------------------------------

    def launch(
        self,
        program: "MpiProgram | str",
        nprocs: int,
        *,
        placement: Optional[Sequence[Cpu]] = None,
        argv: Sequence[str] = (),
        parent_comm: Optional[Communicator] = None,
        startup_delay: float = 0.0,
    ) -> MpiWorld:
        """Create a world of ``nprocs`` ranks running ``program``."""
        if isinstance(program, str):
            program = self.lookup_program(program)
        if program.name not in self.program_registry:
            self.register_program(program)
        if nprocs < 1:
            raise SpawnError("need at least one process")
        placement = list(placement) if placement is not None else self.round_robin_placement(nprocs)
        if len(placement) < nprocs:
            raise SpawnError(f"placement lists {len(placement)} CPUs for {nprocs} ranks")

        world = MpiWorld(self, self._next_world_id, program, parent_comm=parent_comm)
        self._next_world_id += 1
        self.worlds.append(world)

        for rank in range(nprocs):
            cpu = placement[rank]
            image = Image(name=program.name)
            proc = SimProcess(
                self.kernel,
                image,
                pid=self.cluster.allocate_pid(),
                node=cpu.node,
                cpu=cpu,
                name=program.name,
                argv=list(argv),
            )
            ep = Endpoint(world, proc, world_rank=rank)
            self._ep_of_proc[id(proc)] = ep
            world.endpoints.append(ep)
            self.impl.build_image(ep, image)
            program.register(image, ep.api)

        world.comm_world = self.new_communicator(
            world.endpoints, name=f"MPI_COMM_WORLD.{world.world_id}"
        )
        if parent_comm is not None:
            world.parent_intercomm = self.new_communicator(
                parent_comm.group,
                remote=world.endpoints,
                name=f"spawn_intercomm.{world.world_id}",
            )
            world.parent_intercomm.connected = True
            for ep in world.endpoints:
                ep.parent_intercomm = world.parent_intercomm

        if self.impl.supports("mpir_proctable"):
            for ep in world.endpoints:
                self.mpir_proctable.append(
                    MPIR_ProcDesc(
                        host_name=ep.proc.node.name,
                        executable_name=program.name,
                        pid=ep.proc.pid,
                        spawned=parent_comm is not None,
                    )
                )

        for ep in world.endpoints:
            for hook in list(self.process_hooks):
                hook(ep.proc, ep, world)

        for ep in world.endpoints:
            task = self.kernel.spawn(
                self._rank_body(world, ep, startup_delay),
                name=f"{program.name}[{ep.world_rank}]",
            )
            world.tasks.append(task)
        return world

    def _rank_body(self, world: MpiWorld, ep: Endpoint, startup_delay: float) -> Generator:
        if startup_delay > 0.0:
            yield from ep.proc.sleep(startup_delay)
        yield from ep.proc.run_main(ep.proc.call("main"))

    def spawn_world(
        self,
        *,
        command: str,
        argv: list[str],
        nprocs: int,
        parent_comm: Communicator,
        placement: Optional[Sequence[Cpu]] = None,
        startup_delay: float = 0.0,
    ) -> MpiWorld:
        """MPI_Comm_spawn's backend: start children + build the intercomm."""
        program = self.lookup_program(command)
        return self.launch(
            program,
            nprocs,
            placement=placement,
            argv=argv,
            parent_comm=parent_comm,
            startup_delay=startup_delay,
        )

    # -- running ---------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation until all processes exit (or ``until``)."""
        return self.kernel.run(until=until)

    def all_procs(self) -> list[SimProcess]:
        return [ep.proc for world in self.worlds for ep in world.endpoints]
