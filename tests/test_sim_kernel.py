"""Tests for the discrete-event kernel: scheduling, tasks, events."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    DeadlockError,
    Delay,
    Kernel,
    SimulationError,
    WaitEvent,
)


def test_schedule_runs_in_time_order():
    kernel = Kernel()
    seen = []
    kernel.schedule(2.0, lambda: seen.append("b"))
    kernel.schedule(1.0, lambda: seen.append("a"))
    kernel.schedule(3.0, lambda: seen.append("c"))
    kernel.run()
    assert seen == ["a", "b", "c"]
    assert kernel.now == 3.0


def test_ties_break_by_insertion_order():
    kernel = Kernel()
    seen = []
    for i in range(5):
        kernel.schedule(1.0, lambda i=i: seen.append(i))
    kernel.run()
    assert seen == [0, 1, 2, 3, 4]


def test_schedule_with_value_passes_it():
    kernel = Kernel()
    got = []
    kernel.schedule(0.5, got.append, 42)
    kernel.run()
    assert got == [42]


def test_callback_with_default_args_not_clobbered():
    """A lambda with a bound default must be invoked with zero args."""
    kernel = Kernel()
    got = []
    payload = {"x": 1}
    kernel.schedule(0.1, lambda p=payload: got.append(p["x"]))
    kernel.run()
    assert got == [1]


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(ValueError):
        kernel.schedule(-1.0, lambda: None)


def test_run_until_stops_early():
    kernel = Kernel()
    seen = []
    kernel.schedule(1.0, lambda: seen.append(1))
    kernel.schedule(5.0, lambda: seen.append(5))
    kernel.run(until=2.0)
    assert seen == [1]
    assert kernel.now == 2.0


def test_task_runs_and_returns():
    kernel = Kernel()

    def body():
        yield Delay(1.0)
        yield Delay(0.5)
        return "done"

    task = kernel.spawn(body())
    kernel.run()
    assert task.finished
    assert task.result == "done"
    assert kernel.now == 1.5


def test_task_requires_generator():
    kernel = Kernel()
    with pytest.raises(TypeError):
        kernel.spawn(lambda: None)  # type: ignore[arg-type]


def test_event_wakes_waiters_with_value():
    kernel = Kernel()
    results = []

    event = kernel.event("e")

    def waiter():
        value = yield WaitEvent(event)
        results.append(value)

    def firer():
        yield Delay(2.0)
        event.trigger("payload")

    kernel.spawn(waiter())
    kernel.spawn(waiter())
    kernel.spawn(firer())
    kernel.run()
    assert results == ["payload", "payload"]
    assert event.value == "payload"


def test_wait_on_already_triggered_event_resumes_immediately():
    kernel = Kernel()
    event = kernel.event()
    event.trigger(7)
    out = []

    def waiter():
        out.append((yield WaitEvent(event)))

    kernel.spawn(waiter())
    kernel.run()
    assert out == [7]


def test_event_double_trigger_raises():
    kernel = Kernel()
    event = kernel.event()
    event.trigger()
    with pytest.raises(SimulationError):
        event.trigger()


def test_untriggered_event_value_raises():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        _ = kernel.event().value


def test_deadlock_detection():
    kernel = Kernel()

    def stuck():
        yield WaitEvent(kernel.event("never"))

    kernel.spawn(stuck())
    with pytest.raises(DeadlockError):
        kernel.run()


def test_task_exception_propagates():
    kernel = Kernel()

    def broken():
        yield Delay(1.0)
        raise ValueError("boom")

    kernel.spawn(broken())
    with pytest.raises(ValueError, match="boom"):
        kernel.run()


def test_yield_garbage_raises():
    kernel = Kernel()

    def bad():
        yield "not an effect"

    kernel.spawn(bad())
    with pytest.raises(SimulationError):
        kernel.run()


def test_nested_generators_compose():
    kernel = Kernel()

    def inner():
        yield Delay(1.0)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    task = kernel.spawn(outer())
    kernel.run()
    assert task.result == 20
    assert kernel.now == 2.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
def test_property_callbacks_fire_in_nondecreasing_time(delays):
    kernel = Kernel()
    times = []
    for delay in delays:
        kernel.schedule(delay, lambda: times.append(kernel.now))
    kernel.run()
    assert len(times) == len(delays)
    assert times == sorted(times)
    assert times == sorted(delays)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=10),
)
def test_property_task_time_is_sum_of_delays(delays):
    kernel = Kernel()

    def body():
        for d in delays:
            yield Delay(d)

    kernel.spawn(body())
    kernel.run()
    assert kernel.now == pytest.approx(sum(delays))
