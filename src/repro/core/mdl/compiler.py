"""MDL compiler: metric definition + focus + process -> installed snippets.

Instantiating a *metric-focus pair* on a process (the unit of
instrumentation in Paradyn) performs:

1. allocation of the metric's base variable (counter / wall timer / process
   timer) and any auxiliary counters in the mutatee;
2. selection of the constraint definitions the focus requires -- the
   ``/Code`` component maps to ``moduleConstraint``/``procedureConstraint``,
   ``/SyncObject/...`` components to the communicator/tag/window
   constraints of Figure 2 -- and installation of their flag-maintenance
   snippets (prepended, so they execute before metric snippets at shared
   points);
3. compilation of each ``foreach func in <set>`` request into snippet IR,
   with ``constrained`` requests guarded by the constraint flags;
4. insertion at function entry/return points, weak-symbol aware and
   de-duplicated (an MPICH image resolves both ``MPI_Send`` and
   ``PMPI_Send`` to one function -- it must be instrumented once).

The ``/Machine`` focus component is structural: daemons only instantiate
pairs on processes inside it, so no snippets are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ...dyninst.image import FunctionDef, Image
from ...dyninst.mutator import InstrumentationHandle, Mutator
from ...dyninst.snippets import (
    AddCounter,
    ExprStmt,
    Arg,
    BinOp,
    BuiltinCall,
    Const,
    CounterVar,
    Expr,
    If,
    InstrVar,
    ProcTimerVar,
    ReturnValue,
    SetCounter,
    Snippet,
    StartTimer,
    Stmt,
    StopTimer,
    VarValue,
    WallTimerVar,
)
from ..resources import Focus
from . import ast
from .parser import parse_mdl

__all__ = ["MdlLibrary", "MetricInstance", "MdlCompileError", "SPECIAL_FUNCSETS"]

#: funcset names with compiler-defined meaning (not user definable)
SPECIAL_FUNCSETS = ("constraint_target", "module_functions")


class MdlCompileError(RuntimeError):
    """Raised when a metric cannot be instantiated for a focus/process."""


class MdlLibrary:
    """A loaded collection of metric, constraint, and funcset definitions."""

    def __init__(self) -> None:
        self.definitions = ast.MdlFile()

    def load(self, source: str) -> None:
        self.definitions.merge(parse_mdl(source))

    # -- lookups ---------------------------------------------------------------

    def metric(self, name: str) -> ast.MetricDef:
        try:
            return self.definitions.metrics[name]
        except KeyError:
            raise MdlCompileError(f"unknown metric {name!r}") from None

    def constraint(self, name: str) -> ast.ConstraintDef:
        try:
            return self.definitions.constraints[name]
        except KeyError:
            raise MdlCompileError(f"unknown constraint {name!r}") from None

    def funcset(self, name: str) -> tuple[str, ...]:
        try:
            return self.definitions.funcsets[name].functions
        except KeyError:
            raise MdlCompileError(f"unknown funcset {name!r}") from None

    def resolve_funcset(
        self,
        name: str,
        image: Image,
        *,
        constraint_target: Optional[tuple[str, ...]] = None,
    ) -> list[FunctionDef]:
        """Resolve a funcset name to defined functions in ``image``.

        Metric definitions name functions for several MPI implementations at
        once; names missing from this image are skipped, and weak aliases
        are de-duplicated by resolved identity.
        """
        if name == "constraint_target":
            if not constraint_target:
                raise MdlCompileError("constraint_target used outside a code constraint")
            if len(constraint_target) == 1:
                # a module-level code focus: every function of the module
                # (one shared timer + nesting gives inclusive union time)
                module = image.modules.get(constraint_target[0])
                if module is not None:
                    return list(module.functions.values())
                fn = image.lookup(constraint_target[0])
                return [fn] if fn is not None else []
            module_name, function_name = constraint_target[-2], constraint_target[-1]
            fn = image.lookup(function_name)
            if fn is None or fn.module.name != module_name:
                return []
            return [fn]
        if name == "module_functions":
            if not constraint_target:
                raise MdlCompileError("module_functions used outside a code constraint")
            module_name = constraint_target[0]
            module = image.modules.get(module_name)
            if module is None:
                return []
            return list(module.functions.values())
        functions: list[FunctionDef] = []
        seen: set[int] = set()
        for fname in self.funcset(name):
            # strong symbols only: instrumentation targets functions found
            # in the symbol table, so a weak MPI_* alias over PMPI_* is
            # invisible unless the PMPI name itself is listed (the paper's
            # Section 4.1.1 weak-symbols issue)
            fn = image.lookup_strong(fname)
            if fn is not None and id(fn) not in seen:
                seen.add(id(fn))
                functions.append(fn)
        return functions


def _constraint_param_count(definition: ast.ConstraintDef) -> int:
    highest = -1

    def visit_expr(expr: ast.CodeExpr) -> None:
        nonlocal highest
        if isinstance(expr, ast.ConstraintParamExpr):
            highest = max(highest, expr.index)
        elif isinstance(expr, ast.BinaryExpr):
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, ast.CallExpr):
            for arg in expr.args:
                visit_expr(arg)

    def visit_stmt(stmt: ast.CodeStmt) -> None:
        if isinstance(stmt, ast.AssignStmt):
            visit_expr(stmt.value)
        elif isinstance(stmt, ast.IfStmt):
            visit_expr(stmt.condition)
            for inner in stmt.body:
                visit_stmt(inner)
        elif isinstance(stmt, ast.CallStmt):
            visit_expr(stmt.call)

    for block in definition.blocks:
        for request in block.requests:
            for stmt in request.statements:
                visit_stmt(stmt)
    # Code-hierarchy constraints bind their parameters structurally (which
    # function/module to instrument) rather than via $constraint[n]:
    for block in definition.blocks:
        if block.funcset == "constraint_target":
            return max(highest + 1, 2)  # (module, function)
        if block.funcset == "module_functions":
            return max(highest + 1, 1)  # (module,)
    return highest + 1


def _parse_focus_leaf(constraint_path: str, leaf_parts: list[str]) -> list[Any]:
    """Map resource-path leaf components to ``$constraint[n]`` values,
    applying the tool's resource naming conventions."""
    params: list[Any] = []
    for part in leaf_parts:
        if part.startswith("comm_"):
            params.append(int(part[len("comm_"):]))
        elif part.startswith("tag_"):
            params.append(int(part[len("tag_"):]))
        elif part.startswith("pid"):
            params.append(int(part[len("pid"):]))
        else:
            params.append(part)  # window uids ("0-1"), module/function names
    return params


@dataclass
class _ConstraintInstance:
    definition: ast.ConstraintDef
    params: list[Any]
    flag: CounterVar


@dataclass
class MetricInstance:
    """One installed metric-focus pair on one process."""

    metric_name: str
    definition: ast.MetricDef
    focus: Focus
    proc: Any
    base_var: InstrVar
    handle: InstrumentationHandle
    constraint_flags: list[CounterVar] = field(default_factory=list)
    _last_sample: float = 0.0

    @property
    def normalized(self) -> bool:
        return self.definition.units_type == "normalized"

    def sample_delta(self) -> float:
        """Read the base variable and return the delta since last sample."""
        value = self.base_var.sample(self.proc)
        delta = value - self._last_sample
        self._last_sample = value
        return delta

    def delete(self) -> None:
        self.handle.delete()


class _CodeCompiler:
    """Compiles code-statement ASTs to snippet IR with a name environment."""

    def __init__(
        self,
        variables: dict[str, InstrVar],
        params: list[Any],
        label: str,
    ) -> None:
        self.variables = variables
        self.params = params
        self.label = label

    def var(self, name: str) -> InstrVar:
        try:
            return self.variables[name]
        except KeyError:
            raise MdlCompileError(
                f"{self.label}: unknown instrumentation variable {name!r} "
                f"(known: {sorted(self.variables)})"
            ) from None

    def counter(self, name: str) -> CounterVar:
        var = self.var(name)
        if not isinstance(var, CounterVar):
            raise MdlCompileError(f"{self.label}: {name!r} is not a counter")
        return var

    def compile_expr(self, expr: ast.CodeExpr) -> Expr:
        if isinstance(expr, ast.NumberExpr):
            return Const(expr.value)
        if isinstance(expr, ast.NameExpr):
            return VarValue(self.var(expr.name))
        if isinstance(expr, ast.ArgExpr):
            return Arg(expr.index)
        if isinstance(expr, ast.ReturnExpr):
            return ReturnValue()
        if isinstance(expr, ast.ConstraintParamExpr):
            if expr.index >= len(self.params):
                raise MdlCompileError(
                    f"{self.label}: $constraint[{expr.index}] but focus "
                    f"provides {len(self.params)} parameter(s)"
                )
            return Const(self.params[expr.index])
        if isinstance(expr, ast.CallExpr):
            return BuiltinCall(expr.name, tuple(self.compile_expr(a) for a in expr.args))
        if isinstance(expr, ast.BinaryExpr):
            return BinOp(expr.op, self.compile_expr(expr.left), self.compile_expr(expr.right))
        raise MdlCompileError(f"{self.label}: cannot compile expression {expr!r}")

    def compile_stmt(self, stmt: ast.CodeStmt) -> Stmt:
        if isinstance(stmt, ast.IncrStmt):
            return AddCounter(self.counter(stmt.target), Const(1))
        if isinstance(stmt, ast.AssignStmt):
            value = self.compile_expr(stmt.value)
            if stmt.op == "+=":
                return AddCounter(self.counter(stmt.target), value)
            return SetCounter(self.counter(stmt.target), value)
        if isinstance(stmt, ast.TimerStmt):
            timer = self.var(stmt.timer)
            if not isinstance(timer, (WallTimerVar, ProcTimerVar)):
                raise MdlCompileError(f"{self.label}: {stmt.timer!r} is not a timer")
            return StartTimer(timer) if stmt.action == "start" else StopTimer(timer)
        if isinstance(stmt, ast.CallStmt):
            call = self.compile_expr(stmt.call)
            if stmt.out_var is not None:
                return SetCounter(self.counter(stmt.out_var), call)
            return ExprStmt(call)
        if isinstance(stmt, ast.IfStmt):
            return If(
                self.compile_expr(stmt.condition),
                tuple(self.compile_stmt(s) for s in stmt.body),
            )
        raise MdlCompileError(f"{self.label}: cannot compile statement {stmt!r}")

    def compile_block(self, statements: tuple[ast.CodeStmt, ...]) -> list[Stmt]:
        return [self.compile_stmt(s) for s in statements]


def _select_constraints(
    library: MdlLibrary,
    definition: ast.MetricDef,
    focus: Focus,
) -> list[tuple[ast.ConstraintDef, list[Any]]]:
    """Choose constraint definitions for the focus's constrained components."""
    selected: list[tuple[ast.ConstraintDef, list[Any]]] = []
    declared = [library.constraint(name) for name in definition.constraints]
    for component in focus.constrained_components():
        if component.startswith("/Machine"):
            continue  # structural: daemons filter by process
        if component.startswith("/SyncObject/") and component.count("/") == 2:
            # a bare category (/SyncObject/Message etc.): the metric's own
            # function set already scopes it, no snippet constraint needed
            continue
        candidates = []
        for constraint in declared:
            if not component.startswith(constraint.path + "/"):
                continue
            leaf = component[len(constraint.path) + 1 :].split("/")
            if _constraint_param_count(constraint) == len(leaf):
                candidates.append((constraint, _parse_focus_leaf(constraint.path, leaf)))
        if not candidates:
            raise MdlCompileError(
                f"metric {definition.ident!r} has no constraint for focus "
                f"component {component!r}"
            )
        # the longest path prefix (most specific constraint) wins
        candidates.sort(key=lambda pair: len(pair[0].path), reverse=True)
        selected.append(candidates[0])
    return selected


def instantiate_metric(
    library: MdlLibrary,
    metric_name: str,
    focus: Focus,
    mutator: Mutator,
) -> MetricInstance:
    """Install one metric-focus pair on one process."""
    definition = library.metric(metric_name)
    proc = mutator.proc
    image: Image = proc.image
    handle = mutator.handle(label=f"{metric_name}@{focus.describe()}")

    # 1. base + auxiliary variables
    if definition.base_kind == "counter":
        base_var: InstrVar = mutator.new_counter(name=definition.ident)
    elif definition.base_kind == "walltimer":
        base_var = mutator.new_wall_timer(name=definition.ident)
    else:
        base_var = mutator.new_proc_timer(name=definition.ident)
    mutator.track_variable(handle, base_var)
    variables: dict[str, InstrVar] = {definition.ident: base_var}
    # the paper's examples also refer to the base by the display name
    variables.setdefault(definition.display_name, base_var)
    for counter_name in definition.counters:
        aux = mutator.new_counter(name=counter_name)
        mutator.track_variable(handle, aux)
        variables[counter_name] = aux

    instance = MetricInstance(
        metric_name=metric_name,
        definition=definition,
        focus=focus,
        proc=proc,
        base_var=base_var,
        handle=handle,
    )

    # 2. constraints for the focus
    guards: list[CounterVar] = []
    code_target: Optional[tuple[str, ...]] = None
    for constraint_def, params in _select_constraints(library, definition, focus):
        flag = mutator.new_counter(name=f"{constraint_def.ident}")
        mutator.track_variable(handle, flag)
        guards.append(flag)
        instance.constraint_flags.append(flag)
        if constraint_def.path == "/Code":
            code_target = tuple(str(p) for p in params)
        compiler = _CodeCompiler(
            variables={**variables, constraint_def.ident: flag},
            params=params,
            label=f"constraint {constraint_def.ident}",
        )
        for block in constraint_def.blocks:
            functions = library.resolve_funcset(
                block.funcset, image, constraint_target=tuple(str(p) for p in params)
            )
            for request in block.requests:
                statements = compiler.compile_block(request.statements)
                for fn in functions:
                    snippet = Snippet(
                        statements,
                        label=f"{constraint_def.ident}@{fn.name}.{request.where}",
                    )
                    mutator.insert(handle, fn, request.where, snippet, order="prepend")

    # 3. metric snippets (guarded when 'constrained')
    compiler = _CodeCompiler(variables=variables, params=[], label=f"metric {metric_name}")
    for block in definition.blocks:
        functions = library.resolve_funcset(block.funcset, image, constraint_target=code_target)
        for request in block.requests:
            statements = compiler.compile_block(request.statements)
            snippet_guards = tuple(guards) if request.constrained else ()
            for fn in functions:
                snippet = Snippet(
                    statements,
                    guards=snippet_guards,
                    label=f"{metric_name}@{fn.name}.{request.where}",
                )
                mutator.insert(handle, fn, request.where, snippet, order=request.order)
    return instance
