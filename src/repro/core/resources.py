"""Paradyn's Resource Hierarchy and foci.

Application resources form a tree rooted at *Whole Program* with three
general categories beneath it -- ``Code``, ``Machine`` and ``SyncObject``
(Section 4 of the paper).  A particular resource is identified by the path
from the root, e.g. an MPI communicator X is ``/SyncObject/Message/X``.

This module adds the paper's contributions to the hierarchy:

* ``/SyncObject/Window`` for MPI-2 RMA windows (Section 4.2.1), with the
  composite ``N-M`` identifier that keeps reused implementation window ids
  unique;
* *retirement*: freed windows/communicators are grayed out and excluded
  from the Performance Consultant's search (Section 4.2.3);
* *user-friendly names* from MPI-2 object naming, propagated as display
  names (Section 4.2.3).

A :class:`Focus` selects one resource path per top-level category; the
default selection in a category is the category root, meaning
"unconstrained".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

__all__ = ["Resource", "ResourceHierarchy", "Focus", "ResourceError", "CATEGORIES"]

CATEGORIES = ("Code", "Machine", "SyncObject")


class ResourceError(KeyError):
    """Raised for unknown or malformed resource paths."""


class Resource:
    """One node of the resource hierarchy."""

    __slots__ = ("name", "parent", "children", "retired", "display_name", "obj")

    def __init__(self, name: str, parent: Optional["Resource"] = None, obj: Any = None) -> None:
        if parent is not None and "/" in name:
            raise ResourceError(f"resource name may not contain '/': {name!r}")
        self.name = name
        self.parent = parent
        self.children: dict[str, Resource] = {}
        self.retired = False
        self.display_name: Optional[str] = None
        self.obj = obj

    @property
    def path(self) -> str:
        parts: list[str] = []
        node: Optional[Resource] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/" + "/".join(reversed(parts))

    @property
    def label(self) -> str:
        """What the UI shows: the user-assigned name when there is one."""
        return self.display_name or self.name

    @property
    def depth(self) -> int:
        depth, node = 0, self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def child(self, name: str) -> "Resource":
        try:
            return self.children[name]
        except KeyError:
            raise ResourceError(f"no resource {name!r} under {self.path}") from None

    def add_child(self, name: str, obj: Any = None) -> "Resource":
        if name in self.children:
            raise ResourceError(f"duplicate resource {name!r} under {self.path}")
        node = Resource(name, parent=self, obj=obj)
        self.children[name] = node
        return node

    def ensure_child(self, name: str, obj: Any = None) -> "Resource":
        node = self.children.get(name)
        if node is None:
            node = self.add_child(name, obj=obj)
        elif obj is not None and node.obj is None:
            node.obj = obj
        return node

    def walk(self) -> Iterator["Resource"]:
        yield self
        for child in self.children.values():
            yield from child.walk()

    def active_children(self) -> list["Resource"]:
        return [c for c in self.children.values() if not c.retired]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = " retired" if self.retired else ""
        return f"<Resource {self.path}{flags}>"


class ResourceHierarchy:
    """The tree plus the paper's window-id uniquifier and naming updates."""

    def __init__(self) -> None:
        self.root = Resource("Whole Program")
        for category in CATEGORIES:
            self.root.add_child(category)
        sync = self.root.child("SyncObject")
        sync.add_child("Message")
        sync.add_child("Barrier")
        sync.add_child("Window")
        # window-id uniquification: impl id N -> next disambiguator M
        self._window_seq: dict[int, int] = {}
        #: update log consumed by tests/reports ("new", "retired", "named")
        self.updates: list[tuple[str, str]] = []

    # -- lookup ------------------------------------------------------------------

    def find(self, path: str) -> Resource:
        if not path.startswith("/"):
            raise ResourceError(f"resource path must start with '/': {path!r}")
        node = self.root
        for part in path.strip("/").split("/"):
            if part:
                node = node.child(part)
        return node

    def exists(self, path: str) -> bool:
        try:
            self.find(path)
            return True
        except ResourceError:
            return False

    # -- category roots -------------------------------------------------------------

    @property
    def code(self) -> Resource:
        return self.root.child("Code")

    @property
    def machine(self) -> Resource:
        return self.root.child("Machine")

    @property
    def sync_objects(self) -> Resource:
        return self.root.child("SyncObject")

    # -- registration API used by the daemon/front end --------------------------------

    def add_module(self, module_name: str) -> Resource:
        return self.code.ensure_child(module_name)

    def add_function(self, module_name: str, function_name: str) -> Resource:
        return self.add_module(module_name).ensure_child(function_name)

    def add_process(self, node_name: str, pid: int, obj: Any = None) -> Resource:
        machine = self.machine.ensure_child(node_name)
        proc = machine.ensure_child(f"pid{pid}", obj=obj)
        self.updates.append(("new", proc.path))
        return proc

    def add_communicator(self, comm: Any) -> Resource:
        node = self.sync_objects.child("Message").ensure_child(f"comm_{comm.cid}", obj=comm)
        if getattr(comm, "user_named", False):
            node.display_name = comm.name
        self.updates.append(("new", node.path))
        return node

    def add_message_tag(self, comm_resource: Resource, tag: int) -> Resource:
        return comm_resource.ensure_child(f"tag_{tag}")

    def add_window(self, win: Any) -> Resource:
        """Register an RMA window under ``/SyncObject/Window``.

        The MPI implementation may reuse a window identifier N after
        ``MPI_Win_free``, so the resource is named ``N-M`` where M makes the
        pair unique (Section 4.2.1 of the paper).
        """
        impl_id = win.win_id
        seq = self._window_seq.get(impl_id, 0)
        self._window_seq[impl_id] = seq + 1
        node = self.sync_objects.child("Window").add_child(f"{impl_id}-{seq}", obj=win)
        if getattr(win, "user_named", False):
            node.display_name = win.name
        self.updates.append(("new", node.path))
        return node

    def window_resource_for(self, win: Any) -> Optional[Resource]:
        """The (non-retired) resource currently bound to a window object."""
        for node in self.sync_objects.child("Window").children.values():
            if node.obj is win and not node.retired:
                return node
        return None

    def retire(self, resource: Resource) -> None:
        """Gray a resource out: it stays displayed but leaves the PC search."""
        resource.retired = True
        self.updates.append(("retired", resource.path))

    def set_display_name(self, resource: Resource, name: str) -> None:
        resource.display_name = name
        self.updates.append(("named", f"{resource.path}={name}"))

    # -- rendering (the "Where Axis" display) -----------------------------------------

    def render(self) -> str:
        lines: list[str] = []

        def visit(node: Resource, indent: int) -> None:
            suffix = ""
            if node.display_name:
                suffix = f" [{node.display_name}]"
            if node.retired:
                suffix += " (retired)"
            lines.append("  " * indent + node.name + suffix)
            for child in sorted(node.children.values(), key=lambda c: c.name):
                visit(child, indent + 1)

        visit(self.root, 0)
        return "\n".join(lines)


@dataclass(frozen=True)
class Focus:
    """A selection of one resource path per top-level category.

    ``/Code`` etc. (the category roots) mean "everything in that category";
    Paradyn calls the all-roots focus *Whole Program*.
    """

    code: str = "/Code"
    machine: str = "/Machine"
    sync_object: str = "/SyncObject"

    @classmethod
    def whole_program(cls) -> "Focus":
        return cls()

    def with_code(self, path: str) -> "Focus":
        return Focus(code=path, machine=self.machine, sync_object=self.sync_object)

    def with_machine(self, path: str) -> "Focus":
        return Focus(code=self.code, machine=path, sync_object=self.sync_object)

    def with_sync_object(self, path: str) -> "Focus":
        return Focus(code=self.code, machine=self.machine, sync_object=path)

    @property
    def is_whole_program(self) -> bool:
        return self == Focus()

    def components(self) -> tuple[str, str, str]:
        return (self.code, self.machine, self.sync_object)

    def constrained_components(self) -> list[str]:
        return [p for p, root in zip(self.components(), ("/Code", "/Machine", "/SyncObject")) if p != root]

    def describe(self) -> str:
        parts = self.constrained_components()
        return ", ".join(parts) if parts else "Whole Program"

    def __str__(self) -> str:
        return self.describe()
