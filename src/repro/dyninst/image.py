"""Simulated binary images: modules, functions, symbols, weak symbols.

An :class:`Image` is the simulated process's executable plus its linked
libraries, as a performance tool sees them: a symbol table mapping names to
functions, grouped into modules.  Two features matter for reproducing the
paper:

* **Weak symbols** (Section 4.1.1).  A default MPICH build exports
  ``MPI_Send`` as a *weak* alias for the strong symbol ``PMPI_Send``; an
  application call to ``MPI_Send`` therefore executes -- and is instrumented
  as -- ``PMPI_Send``.  Linking a PMPI profiling library interposes a strong
  ``MPI_Send`` wrapper that calls ``PMPI_Send``.  Both shapes are modelled
  here; the tool's metric definitions must list both ``MPI_*`` and ``PMPI_*``
  names to catch either (the Paradyn 4.0 bug the paper fixes).
* **Per-process instrumentation** (one Image instance per process, as
  paradynd instruments each mutatee separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from .snippets import Snippet

__all__ = ["FunctionDef", "Module", "Image", "ImageError"]

#: body(proc, *args) -> generator yielding simulation effects
FunctionBody = Callable[..., Generator]


class ImageError(RuntimeError):
    """Raised for unknown symbols and malformed images."""


class FunctionDef:
    """One function in the image, with entry/return instrumentation points.

    ``tags`` classify the function for metric function-sets (``mpi``,
    ``sync``, ``io``, ``rma`` ...); the MDL compiler resolves ``foreach func
    in <set>`` against them.

    ``entry_runs`` and ``exit_runs`` are the points' trampolines: the tuple
    of each installed snippet's compiled closure, in execution order, or
    ``None`` for an empty point.  They are rebuilt on every insert and
    remove -- as Dyninst builds a point's trampolines when instrumentation
    is inserted -- so a call runs them with no per-call lookup.
    """

    __slots__ = ("name", "module", "body", "tags", "_entry", "_exit",
                 "entry_runs", "exit_runs")

    def __init__(
        self,
        name: str,
        module: "Module",
        body: FunctionBody,
        tags: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.module = module
        self.body = body
        self.tags = frozenset(tags)
        # instrumentation-point lists are created on first insert: most
        # functions in most processes are never instrumented, and at
        # thousands of ranks the eager pair of empty lists per cloned
        # FunctionDef is measurable launch cost
        self._entry: Optional[list[Snippet]] = None
        self._exit: Optional[list[Snippet]] = None
        self.entry_runs: Optional[tuple] = None
        self.exit_runs: Optional[tuple] = None

    # instrumentation points -------------------------------------------------

    def insert(self, snippet: Snippet, *, where: str, order: str = "append") -> None:
        point = self._point(where)
        if order == "append":
            point.append(snippet)
        elif order == "prepend":
            point.insert(0, snippet)
        else:
            raise ImageError(f"unknown insertion order {order!r}")
        self._compile(where, point)

    def remove(self, snippet: Snippet, *, where: str) -> None:
        point = self._point(where)
        try:
            point.remove(snippet)
        except ValueError:
            raise ImageError(
                f"snippet {snippet.label!r} not installed at {self.name}.{where}"
            ) from None
        self._compile(where, point)

    def _point(self, where: str) -> list[Snippet]:
        if where == "entry":
            if self._entry is None:
                self._entry = []
            return self._entry
        if where == "return":
            if self._exit is None:
                self._exit = []
            return self._exit
        raise ImageError(f"unknown instrumentation point {where!r}")

    def _compile(self, where: str, point: list[Snippet]) -> None:
        runs = tuple(snippet._run for snippet in point) or None
        if where == "entry":
            self.entry_runs = runs
        else:
            self.exit_runs = runs

    @property
    def instrumented(self) -> bool:
        return bool(self._entry or self._exit)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionDef {self.module.name}:{self.name}>"


@dataclass
class Module:
    """A compilation unit or library in the image.

    ``system=True`` marks runtime libraries (libc, libmpi) that the
    Performance Consultant excludes from user-code search by default --
    though MPI entry points remain visible as refinement targets through the
    metric function-sets.
    """

    name: str
    system: bool = False
    functions: dict[str, FunctionDef] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Module {self.name} funcs={len(self.functions)}>"


class Image:
    """Symbol table + modules for one simulated process."""

    def __init__(self, name: str = "a.out") -> None:
        self.name = name
        self.modules: dict[str, Module] = {}
        self._symbols: dict[str, FunctionDef] = {}
        self._weak_aliases: dict[str, str] = {}
        #: bumped on every symbol-table change; processes key their
        #: name-resolution caches on it (see SimProcess.call)
        self.version = 0

    # construction ------------------------------------------------------------

    def module(self, name: str, *, system: bool = False) -> Module:
        mod = self.modules.get(name)
        if mod is None:
            mod = Module(name=name, system=system)
            self.modules[name] = mod
        return mod

    def add_function(
        self,
        name: str,
        body: FunctionBody,
        *,
        module: str = "a.out",
        system: bool = False,
        tags: Iterable[str] = (),
    ) -> FunctionDef:
        """Define a strong symbol.  Redefinition is an error (one image ==
        one link step; interposition uses :meth:`add_wrapper`)."""
        if name in self._symbols:
            raise ImageError(f"duplicate strong symbol {name!r}")
        mod = self.module(module, system=system)
        fn = FunctionDef(name, mod, body, tags=tags)
        mod.functions[name] = fn
        self._symbols[name] = fn
        self._weak_aliases.pop(name, None)  # strong definition wins
        self.version += 1
        return fn

    def clone_library(self, template: "Image") -> None:
        """Copy every module of ``template`` into this image.

        Function *definitions* are fresh per image (instrumentation points
        are per-process state, as paradynd instruments each mutatee
        separately) but share the template's bodies and tag sets.  One
        bulk version bump replaces the per-symbol bumps of repeated
        :meth:`add_function` calls -- at thousands of ranks, rebuilding an
        identical MPI library image per process dominates launch time.
        """
        symbols = self._symbols
        for tmod in template.modules.values():
            mod = self.module(tmod.name, system=tmod.system)
            functions = mod.functions
            for name, fn in tmod.functions.items():
                if name in symbols:
                    raise ImageError(f"duplicate strong symbol {name!r}")
                clone = FunctionDef(name, mod, fn.body, tags=fn.tags)
                functions[name] = clone
                symbols[name] = clone
                self._weak_aliases.pop(name, None)
        for alias, target in template._weak_aliases.items():
            if alias not in symbols:
                self._weak_aliases[alias] = target
        self.version += 1

    def interpose(
        self,
        name: str,
        body: FunctionBody,
        *,
        module: str = "libwrapper.so",
        tags: Iterable[str] = (),
    ) -> FunctionDef:
        """Interpose a strong symbol over an existing definition or weak
        alias -- the PMPI profiling-library link trick (Section 4.1.1 /
        4.2.2 of the paper): the wrapper becomes what application calls
        resolve to, and typically calls the ``PMPI_`` strong symbol."""
        mod = self.module(module, system=True)
        fn = FunctionDef(name, mod, body, tags=tags)
        mod.functions[name] = fn
        self._symbols[name] = fn
        self._weak_aliases.pop(name, None)
        self.version += 1
        return fn

    def add_weak_alias(self, alias: str, target: str) -> None:
        """Declare ``alias`` as a weak symbol for ``target``.

        A strong symbol with the same name (already present or added later)
        overrides the alias, matching ELF link semantics.
        """
        if target not in self._symbols:
            raise ImageError(f"weak alias {alias!r} -> undefined symbol {target!r}")
        if alias in self._symbols:
            return  # strong symbol already wins
        self._weak_aliases[alias] = target
        self.version += 1

    # lookup --------------------------------------------------------------------

    def resolve(self, name: str) -> FunctionDef:
        """Resolve a call by name, following weak aliases."""
        fn = self._symbols.get(name)
        if fn is not None:
            return fn
        target = self._weak_aliases.get(name)
        if target is not None:
            return self._symbols[target]
        raise ImageError(f"undefined symbol {name!r} in image {self.name!r}")

    def lookup(self, name: str) -> Optional[FunctionDef]:
        """Like :meth:`resolve` but returns None for undefined symbols."""
        try:
            return self.resolve(name)
        except ImageError:
            return None

    def lookup_strong(self, name: str) -> Optional[FunctionDef]:
        """Look up a *function symbol* without following weak aliases.

        This is how a tool's symbol-table scan sees the binary: in a
        default MPICH build the code's function is ``PMPI_Send``; metric
        definitions that only name ``MPI_Send`` find nothing -- the
        Paradyn 4.0 gap Section 4.1.1 of the paper fixes by adding the
        PMPI names to the definitions."""
        return self._symbols.get(name)

    def defines(self, name: str) -> bool:
        return name in self._symbols or name in self._weak_aliases

    def functions(self) -> Iterable[FunctionDef]:
        return self._symbols.values()

    def functions_tagged(self, tag: str) -> list[FunctionDef]:
        return [fn for fn in self._symbols.values() if tag in fn.tags]

    def app_functions(self) -> list[FunctionDef]:
        """Functions in non-system modules (the Code hierarchy's contents)."""
        return [fn for fn in self._symbols.values() if not fn.module.system]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Image {self.name} symbols={len(self._symbols)}>"
