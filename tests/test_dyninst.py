"""Tests for the instrumentation substrate: images, snippets, mutator."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dyninst import (
    AddCounter,
    Arg,
    BinOp,
    BuiltinCall,
    Const,
    CounterVar,
    Expr,
    ExprStmt,
    If,
    Image,
    ImageError,
    InstrumentationError,
    Mutator,
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
from repro.sim.kernel import Kernel
from repro.sim.node import Cluster
from repro.sim.process import SimProcess


def _gen(result=None):
    def body(proc, *args):
        if False:
            yield
        return result

    return body


def make_proc():
    kernel = Kernel()
    cluster = Cluster(num_nodes=1, cpus_per_node=1)
    node = cluster.nodes[0]
    proc = SimProcess(kernel, Image(), pid=1, node=node, cpu=node.cpus[0])
    return kernel, proc


class TestImage:
    def test_strong_symbols_resolve(self):
        image = Image()
        fn = image.add_function("f", _gen(), module="m.c")
        assert image.resolve("f") is fn
        assert image.lookup("nope") is None
        with pytest.raises(ImageError):
            image.resolve("nope")

    def test_duplicate_strong_symbol_rejected(self):
        image = Image()
        image.add_function("f", _gen())
        with pytest.raises(ImageError):
            image.add_function("f", _gen())

    def test_weak_alias_resolution(self):
        """Default MPICH build: MPI_Send resolves to PMPI_Send."""
        image = Image()
        strong = image.add_function("PMPI_Send", _gen(), module="libmpich.so")
        image.add_weak_alias("MPI_Send", "PMPI_Send")
        assert image.resolve("MPI_Send") is strong
        assert image.defines("MPI_Send")

    def test_weak_alias_to_undefined_rejected(self):
        image = Image()
        with pytest.raises(ImageError):
            image.add_weak_alias("MPI_Send", "PMPI_Send")

    def test_strong_definition_beats_weak_alias(self):
        image = Image()
        image.add_function("PMPI_Send", _gen(), module="libmpich.so")
        image.add_weak_alias("MPI_Send", "PMPI_Send")
        wrapper = image.add_function("MPI_Send", _gen(), module="profiling.so")
        assert image.resolve("MPI_Send") is wrapper

    def test_interpose_replaces_existing_symbol(self):
        """The PMPI profiling-library trick (Section 4.2.2)."""
        image = Image()
        image.add_function("MPI_Comm_spawn", _gen("orig"), module="liblam.so")
        wrapper = image.interpose("MPI_Comm_spawn", _gen("wrapped"))
        assert image.resolve("MPI_Comm_spawn") is wrapper

    def test_tag_queries_and_app_functions(self):
        image = Image()
        image.add_function("mpi_fn", _gen(), module="libmpi.so", system=True, tags={"mpi"})
        app = image.add_function("app_fn", _gen(), module="app.c", tags={"app"})
        assert image.functions_tagged("mpi")[0].name == "mpi_fn"
        assert image.app_functions() == [app]


class TestVariables:
    def test_counter(self):
        _, proc = make_proc()
        c = CounterVar("c", initial=2.0)
        c.add(3)
        assert c.sample(proc) == 5.0
        c.set(1)
        assert c.sample(proc) == 1.0

    def test_wall_timer_accumulates(self):
        kernel, proc = make_proc()
        t = WallTimerVar("t")
        t.start(proc)
        kernel.now = 5.0
        t.stop(proc)
        assert t.sample(proc) == pytest.approx(5.0)

    def test_wall_timer_nests(self):
        kernel, proc = make_proc()
        t = WallTimerVar("t")
        t.start(proc)
        kernel.now = 1.0
        t.start(proc)  # nested start: no double counting
        kernel.now = 2.0
        t.stop(proc)
        kernel.now = 4.0
        t.stop(proc)
        assert t.sample(proc) == pytest.approx(4.0)

    def test_unmatched_stop_tolerated(self):
        """Instrumentation inserted mid-flight sees a stop without a start."""
        _, proc = make_proc()
        t = WallTimerVar("t")
        t.stop(proc)
        assert t.sample(proc) == 0.0

    def test_running_timer_samples_interpolated(self):
        kernel, proc = make_proc()
        t = WallTimerVar("t")
        t.start(proc)
        kernel.now = 3.0
        assert t.running
        assert t.sample(proc) == pytest.approx(3.0)

    def test_proc_timer_uses_cpu_clock(self):
        kernel, proc = make_proc()
        t = ProcTimerVar("t")
        t.start(proc)
        # wall time passes but no CPU accrues
        kernel.now = 10.0
        assert t.sample(proc) == pytest.approx(0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=12))
    def test_property_timer_never_exceeds_elapsed(self, gaps):
        kernel, proc = make_proc()
        t = WallTimerVar("t")
        for i, gap in enumerate(gaps):
            kernel.now += gap
            if i % 2 == 0:
                t.start(proc)
            else:
                t.stop(proc)
        assert 0.0 <= t.sample(proc) <= kernel.now + 1e-12


class TestSnippets:
    _seq = 0

    def _exec(self, snippet, proc, args=(), at_entry=True, return_value=None):
        from repro.sim.process import Frame

        TestSnippets._seq += 1
        frame = Frame(function=proc.image.add_function(f"f{TestSnippets._seq}", _gen()),
                      args=args, entry_time=0.0)
        frame.return_value = return_value
        snippet.execute(proc, frame, at_entry=at_entry)

    def test_arg_access_and_arithmetic(self):
        _, proc = make_proc()
        c = CounterVar("c")
        snippet = Snippet([AddCounter(c, BinOp("*", Arg(0), Arg(1)))])
        self._exec(snippet, proc, args=(6, 7))
        assert c.value == 42

    def test_arg_out_of_range_raises(self):
        _, proc = make_proc()
        c = CounterVar("c")
        snippet = Snippet([AddCounter(c, Arg(3))])
        with pytest.raises(InstrumentationError):
            self._exec(snippet, proc, args=(1,))

    def test_return_value_only_at_exit(self):
        _, proc = make_proc()
        c = CounterVar("c")
        snippet = Snippet([SetCounter(c, ReturnValue())])
        with pytest.raises(InstrumentationError):
            self._exec(snippet, proc, at_entry=True)
        self._exec(snippet, proc, at_entry=False, return_value=9)
        assert c.value == 9

    def test_guards_suppress_execution(self):
        _, proc = make_proc()
        flag = CounterVar("flag")
        c = CounterVar("c")
        snippet = Snippet([AddCounter(c, Const(1))], guards=(flag,))
        self._exec(snippet, proc)
        assert c.value == 0
        flag.set(1)
        self._exec(snippet, proc)
        assert c.value == 1

    def test_if_statement(self):
        _, proc = make_proc()
        c = CounterVar("c")
        snippet = Snippet([If(BinOp("==", Arg(0), Const(5)), (AddCounter(c, Const(1)),))])
        self._exec(snippet, proc, args=(4,))
        self._exec(snippet, proc, args=(5,))
        assert c.value == 1

    def test_builtin_dispatch(self):
        _, proc = make_proc()
        proc.instr_builtins = {"double_it": lambda p, f, x: 2 * x}
        c = CounterVar("c")
        snippet = Snippet([SetCounter(c, BuiltinCall("double_it", (Const(21),)))])
        self._exec(snippet, proc)
        assert c.value == 42

    def test_unknown_builtin_raises(self):
        _, proc = make_proc()
        snippet = Snippet([ExprStmt(BuiltinCall("missing"))])
        with pytest.raises(InstrumentationError):
            self._exec(snippet, proc)

    def test_var_value_reads_other_variable(self):
        _, proc = make_proc()
        a, b = CounterVar("a", initial=11.0), CounterVar("b")
        snippet = Snippet([SetCounter(b, VarValue(a))])
        self._exec(snippet, proc)
        assert b.value == 11.0

    def test_bad_operator_rejected(self):
        with pytest.raises(InstrumentationError):
            BinOp("%", Const(1), Const(2))

    def test_unknown_nodes_rejected_at_construction(self):
        @dataclass(frozen=True)
        class Mystery(Expr):
            pass

        @dataclass(frozen=True)
        class MysteryStmt(Stmt):
            pass

        c = CounterVar("c")
        for statements in (
            [MysteryStmt()],
            [ExprStmt(Mystery())],
            [AddCounter(c, BinOp("+", Const(1), Mystery()))],
            [If(Const(True), (MysteryStmt(),))],
            [AddCounter(WallTimerVar("t"))],  # a counter statement on a timer
        ):
            with pytest.raises(InstrumentationError):
                Snippet(statements)


class TestMutator:
    def _image_with_fn(self):
        kernel, proc = make_proc()

        def fn(p):
            yield from p.compute(0.5)

        proc.image.add_function("fn", fn, module="app.c")
        return kernel, proc

    def test_insert_and_delete_roundtrip(self):
        kernel, proc = self._image_with_fn()
        mutator = Mutator(proc)
        handle = mutator.handle("test")
        counter = mutator.track_variable(handle, mutator.new_counter("c"))
        mutator.insert(handle, "fn", "entry", Snippet([AddCounter(counter, Const(1))]))

        def run_once():
            yield from proc.call("fn")

        kernel.spawn(run_once())
        kernel.run()
        assert counter.value == 1
        assert counter.var_id in proc.instr_vars
        mutator.delete(handle)
        assert counter.var_id not in proc.instr_vars
        assert not proc.image.resolve("fn").instrumented

        kernel2 = proc.kernel
        kernel2.spawn(run_once())
        kernel2.run()
        assert counter.value == 1  # removed: no more counting

    def test_insert_if_present_skips_missing(self):
        _, proc = self._image_with_fn()
        mutator = Mutator(proc)
        handle = mutator.handle()
        ok = mutator.insert_if_present(handle, "missing_fn", "entry", Snippet([]))
        assert not ok

    def test_catchup_executes_entry_snippet_for_live_frames(self):
        """Dyninst catch-up: timers on in-flight functions start immediately."""
        kernel, proc = self._image_with_fn()
        mutator = Mutator(proc)
        timer = mutator.new_wall_timer("t")

        def long_fn(p):
            yield from p.compute(10.0)

        proc.image.add_function("long_fn", long_fn, module="app.c")

        def body():
            yield from proc.call("long_fn")

        kernel.spawn(body())

        def instrument_mid_flight():
            handle = mutator.handle()
            mutator.insert(handle, "long_fn", "entry", Snippet([StartTimer(timer)]))
            mutator.insert(handle, "long_fn", "return", Snippet([StopTimer(timer)]))

        kernel.schedule(4.0, instrument_mid_flight)
        kernel.run()
        # inserted at t=4 while inside long_fn; accrues the remaining 6s
        assert timer.sample(proc) == pytest.approx(6.0)

    def test_double_delete_is_noop(self):
        _, proc = self._image_with_fn()
        mutator = Mutator(proc)
        handle = mutator.handle()
        mutator.insert(handle, "fn", "entry", Snippet([]))
        mutator.delete(handle)
        mutator.delete(handle)  # no error
        assert not handle.active
