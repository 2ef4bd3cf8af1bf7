"""Instrumentation snippet IR and the variables snippets manipulate.

This is the simulated analogue of Dyninst's abstract syntax trees plus the
Paradyn runtime's counters and timers.  A *snippet* is a small program
inserted at an instrumentation point (function entry or return); it executes
synchronously when the point is reached and manipulates *instrumentation
variables* (counters, wall timers, process timers) that live in the mutatee
process's data block (``SimProcess.instr_vars``).

The IR is deliberately small -- it is the compilation target of the MDL
subset in :mod:`repro.core.mdl` and covers everything in Figure 2 of the
paper: counter arithmetic, wall-timer start/stop, argument access
(``$arg[n]``), guarded execution (``if (...) ...``), ``constrained``
execution, and calls to instrumentation builtins such as ``MPI_Type_size``
and ``DYNINSTWindow_FindUniqueId``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.process import Frame, SimProcess

__all__ = [
    "InstrVar",
    "CounterVar",
    "WallTimerVar",
    "ProcTimerVar",
    "Expr",
    "Const",
    "Arg",
    "ReturnValue",
    "VarValue",
    "BuiltinCall",
    "BinOp",
    "Stmt",
    "AddCounter",
    "SetCounter",
    "ExprStmt",
    "StartTimer",
    "StopTimer",
    "If",
    "Block",
    "Snippet",
    "InstrumentationError",
]


class InstrumentationError(RuntimeError):
    """Raised on malformed snippets or variable misuse."""


# ---------------------------------------------------------------------------
# Instrumentation variables
# ---------------------------------------------------------------------------


class InstrVar:
    """Base class for per-process instrumentation variables."""

    __slots__ = ("var_id", "name")
    _next_id = 0

    def __init__(self, name: str = "") -> None:
        cls = InstrVar
        self.var_id = cls._next_id
        cls._next_id += 1
        self.name = name or f"var{self.var_id}"

    def sample(self, proc: "SimProcess") -> float:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} id={self.var_id}>"


class CounterVar(InstrVar):
    """An event counter (Paradyn ``counter``)."""

    __slots__ = ("value",)

    def __init__(self, name: str = "", initial: float = 0.0) -> None:
        super().__init__(name)
        self.value = float(initial)

    def add(self, amount: float) -> None:
        self.value += amount

    def set(self, amount: float) -> None:
        self.value = float(amount)

    def sample(self, proc: "SimProcess") -> float:
        return self.value


class _TimerVar(InstrVar):
    """Shared state and sampling for wall and process timers.

    Timers nest (Paradyn semantics): ``start`` while running increments a
    depth count; only the matching outermost ``stop`` accrues time.  A
    ``stop`` with no matching ``start`` is a no-op -- this happens routinely
    when instrumentation is inserted while the mutatee is already inside the
    instrumented function, so it must be tolerated.  Each subclass defines
    ``start``/``stop`` with its clock read inlined: they run once per
    instrumented call for every active timer metric, and a ``_clock``
    double dispatch is measurable there.
    """

    __slots__ = ("accumulated", "_depth", "_started_at")

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.accumulated = 0.0
        self._depth = 0
        self._started_at = 0.0

    def _clock(self, proc: "SimProcess") -> float:
        raise NotImplementedError

    @property
    def running(self) -> bool:
        return self._depth > 0

    def sample(self, proc: "SimProcess") -> float:
        value = self.accumulated
        if self._depth > 0:
            value += self._clock(proc) - self._started_at
        return value


class WallTimerVar(_TimerVar):
    """Wall-clock timer (Paradyn ``walltimer``)."""

    __slots__ = ()

    def _clock(self, proc: "SimProcess") -> float:
        return proc.kernel.now

    def start(self, proc: "SimProcess") -> None:
        if self._depth == 0:
            self._started_at = proc.kernel.now
        self._depth += 1

    def stop(self, proc: "SimProcess") -> None:
        if self._depth == 0:
            return  # inserted mid-flight; tolerate the unmatched stop
        self._depth -= 1
        if self._depth == 0:
            self.accumulated += proc.kernel.now - self._started_at


class ProcTimerVar(_TimerVar):
    """Virtual (user CPU) timer (Paradyn ``proctimer``)."""

    __slots__ = ()

    def _clock(self, proc: "SimProcess") -> float:
        return proc.cpu_user_time()

    def start(self, proc: "SimProcess") -> None:
        if self._depth == 0:
            self._started_at = proc.cpu_user_time()
        self._depth += 1

    def stop(self, proc: "SimProcess") -> None:
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth == 0:
            self.accumulated += proc.cpu_user_time() - self._started_at


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for snippet expressions."""


@dataclass(frozen=True)
class Const(Expr):
    value: Any


@dataclass(frozen=True)
class Arg(Expr):
    """``$arg[n]`` -- the n-th argument of the instrumented call."""

    index: int


@dataclass(frozen=True)
class ReturnValue(Expr):
    """``$return`` -- only meaningful at a return point."""


@dataclass(frozen=True)
class VarValue(Expr):
    """The current value of another instrumentation variable."""

    var: InstrVar


@dataclass(frozen=True)
class BuiltinCall(Expr):
    """Call into the instrumentation runtime (``MPI_Type_size`` etc.).

    Builtins are looked up in the process's instrumentation environment
    (``SimProcess.instr_builtins``, filled by the tool daemon) as
    ``callable(proc, frame, *values)``.
    """

    name: str
    args: tuple[Expr, ...] = ()


_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _BINOPS:
            raise InstrumentationError(f"unsupported operator {self.op!r}")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    """Base class for snippet statements."""


@dataclass(frozen=True)
class AddCounter(Stmt):
    """``counter += expr`` (``counter++`` is ``AddCounter(var, Const(1))``)."""

    var: CounterVar
    amount: Expr = Const(1)


@dataclass(frozen=True)
class SetCounter(Stmt):
    var: CounterVar
    value: Expr


@dataclass(frozen=True)
class StartTimer(Stmt):
    var: _TimerVar


@dataclass(frozen=True)
class StopTimer(Stmt):
    var: _TimerVar


@dataclass(frozen=True)
class ExprStmt(Stmt):
    """Evaluate an expression for its side effect (builtin calls)."""

    expr: Expr


@dataclass(frozen=True)
class If(Stmt):
    condition: Expr
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class Block(Stmt):
    body: tuple[Stmt, ...]


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
#
# The IR trees above are the format the MDL compiler targets; the functions
# below define what they mean.  Each Snippet compiles its tree once, at
# construction, into nested closures with the signature
# ``op(proc, frame, at_entry)``; variables, constants and operator functions
# are captured in cell variables, so the hot path -- snippets run millions
# of times per simulated program -- is plain closure calls with no
# allocation, no tree walking and no isinstance checks.  A node type the
# compiler does not know is rejected with InstrumentationError when the
# snippet is built, before it can be inserted.


def _compile_expr(expr: Expr) -> Callable[["SimProcess", "Frame", bool], Any]:
    kind = type(expr)
    if kind is Const:
        value = expr.value
        return lambda proc, frame, at_entry: value
    if kind is Arg:
        index = expr.index
        def run_arg(proc: "SimProcess", frame: "Frame", at_entry: bool) -> Any:
            args = frame.args
            if index >= len(args):
                raise InstrumentationError(
                    f"$arg[{index}] out of range for {frame.name} "
                    f"(got {len(args)} args)"
                )
            return args[index]
        return run_arg
    if kind is ReturnValue:
        def run_return(proc: "SimProcess", frame: "Frame", at_entry: bool) -> Any:
            if at_entry:
                raise InstrumentationError("$return read at an entry point")
            return frame.return_value
        return run_return
    if kind is VarValue:
        var = expr.var
        if type(var) is CounterVar:
            return lambda proc, frame, at_entry: var.value
        sample = var.sample
        return lambda proc, frame, at_entry: sample(proc)
    if kind is BuiltinCall:
        name = expr.name
        arg_ops = tuple(_compile_expr(a) for a in expr.args)
        def run_builtin(proc: "SimProcess", frame: "Frame", at_entry: bool) -> Any:
            fn = proc.instr_builtins.get(name)
            if fn is None:
                raise InstrumentationError(f"unknown instrumentation builtin {name!r}")
            return fn(proc, frame, *[op(proc, frame, at_entry) for op in arg_ops])
        return run_builtin
    if kind is BinOp:
        fn = _BINOPS[expr.op]
        left = _compile_expr(expr.left)
        right = _compile_expr(expr.right)
        return lambda proc, frame, at_entry: fn(
            left(proc, frame, at_entry), right(proc, frame, at_entry)
        )
    raise InstrumentationError(f"unknown snippet expression {kind.__name__}")


def _counter(stmt: Stmt) -> CounterVar:
    var = stmt.var
    if not isinstance(var, CounterVar):
        raise InstrumentationError(
            f"{type(stmt).__name__} needs a counter, got {type(var).__name__}"
        )
    return var


def _compile_stmt(stmt: Stmt) -> Callable[["SimProcess", "Frame", bool], Any]:
    kind = type(stmt)
    if kind is AddCounter:
        var = _counter(stmt)
        if type(stmt.amount) is Const:
            amount = float(stmt.amount.value)
            def run_add_const(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
                var.value += amount
            return run_add_const
        amount_op = _compile_expr(stmt.amount)
        def run_add(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            var.value += float(amount_op(proc, frame, at_entry))
        return run_add
    if kind is SetCounter:
        var = _counter(stmt)
        value_op = _compile_expr(stmt.value)
        def run_set(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            var.value = float(value_op(proc, frame, at_entry))
        return run_set
    if kind is StartTimer:
        start = stmt.var.start
        def run_start(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            start(proc)
        return run_start
    if kind is StopTimer:
        stop = stmt.var.stop
        def run_stop(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            stop(proc)
        return run_stop
    if kind is ExprStmt:
        expr_op = _compile_expr(stmt.expr)
        def run_expr(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            expr_op(proc, frame, at_entry)
        return run_expr
    if kind is If:
        cond_op = _compile_expr(stmt.condition)
        body_ops = tuple(_compile_stmt(s) for s in stmt.body)
        if len(body_ops) == 1:
            body0 = body_ops[0]
            def run_if1(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
                if cond_op(proc, frame, at_entry):
                    body0(proc, frame, at_entry)
            return run_if1
        def run_if(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            if cond_op(proc, frame, at_entry):
                for op in body_ops:
                    op(proc, frame, at_entry)
        return run_if
    if kind is Block:
        body_ops = tuple(_compile_stmt(s) for s in stmt.body)
        def run_block(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            for op in body_ops:
                op(proc, frame, at_entry)
        return run_block
    raise InstrumentationError(f"unknown snippet statement {kind.__name__}")


def _compile_snippet(
    guards: tuple[CounterVar, ...], statements: tuple[Stmt, ...]
) -> Callable[["SimProcess", "Frame", bool], Any]:
    ops = tuple(_compile_stmt(s) for s in statements)
    if not guards:
        if len(ops) == 1:
            return ops[0]
        def run_plain(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            for op in ops:
                op(proc, frame, at_entry)
        return run_plain
    if len(guards) == 1:
        guard = guards[0]
        if len(ops) == 1:
            op0 = ops[0]
            def run_guarded1(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
                if guard.value:
                    op0(proc, frame, at_entry)
            return run_guarded1
        def run_guarded(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
            if guard.value:
                for op in ops:
                    op(proc, frame, at_entry)
        return run_guarded
    def run_multi_guarded(proc: "SimProcess", frame: "Frame", at_entry: bool) -> None:
        for g in guards:
            if not g.value:
                return
        for op in ops:
            op(proc, frame, at_entry)
    return run_multi_guarded


class Snippet:
    """A compiled snippet: statements plus optional constraint guards.

    ``guards`` are counter variables that must all be non-zero for the body
    to execute -- the implementation of MDL's ``constrained`` keyword.  The
    guards themselves are maintained by separately-inserted constraint
    snippets (which prepend, so they run first at a shared point).

    Construction compiles the statement tree into ``_run``, a closure
    ``(proc, frame, at_entry) -> None``, and raises
    :class:`InstrumentationError` for a node type it does not know.
    Inserting the snippet puts ``_run`` in its point's tuple
    (:class:`repro.dyninst.image.FunctionDef`), which every call of the
    function runs directly.
    """

    __slots__ = ("statements", "guards", "label", "_run")

    def __init__(
        self,
        statements: Sequence[Stmt],
        *,
        guards: Sequence[CounterVar] = (),
        label: str = "",
    ) -> None:
        self.statements = tuple(statements)
        self.guards = tuple(guards)
        self.label = label
        self._run = _compile_snippet(self.guards, self.statements)

    def execute(self, proc: "SimProcess", frame: "Frame", *, at_entry: bool) -> None:
        self._run(proc, frame, at_entry)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Snippet {self.label or hex(id(self))} stmts={len(self.statements)}>"
