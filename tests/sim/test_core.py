"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_initial_time():
    env = Environment(initial_time=7.5)
    assert env.now == 7.5


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(5)
    env.run()
    assert env.now == 5


def test_run_until_numeric_stops_clock_exactly():
    env = Environment()
    env.timeout(10)
    env.run(until=3)
    assert env.now == 3


def test_run_until_past_raises():
    env = Environment()
    env.timeout(5)
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=2)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 42

    p = env.process(proc(env))
    env.run()
    assert p.value == 42
    assert env.now == 2


def test_process_receives_timeout_value():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1, value="hello")
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_processes_interleave_in_time_order():
    env = Environment()
    trace = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        trace.append((env.now, name))

    env.process(proc(env, "b", 2))
    env.process(proc(env, "a", 1))
    env.process(proc(env, "c", 3))
    env.run()
    assert trace == [(1, "a"), (2, "b"), (3, "c")]


def test_fifo_order_for_simultaneous_events():
    env = Environment()
    trace = []

    def proc(env, name):
        yield env.timeout(1)
        trace.append(name)

    for name in "abcde":
        env.process(proc(env, name))
    env.run()
    assert trace == list("abcde")


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(4)
        return "done"

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (4, "done")


def test_event_succeed_resumes_waiter():
    env = Environment()
    ev = env.event()
    out = []

    def waiter(env):
        out.append((yield ev))

    def firer(env):
        yield env.timeout(2)
        ev.succeed("fired")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert out == ["fired"]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_event_fail_propagates_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    ev.fail(ValueError("boom"))
    env.run()
    assert caught == ["boom"]


def test_uncaught_process_exception_fails_process_event():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("oops")

    p = env.process(bad(env))
    with pytest.raises(RuntimeError, match="oops"):
        env.run(until=p)


def test_unhandled_failure_crashes_environment():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("crash")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="crash"):
        env.run()


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "v"

    p = env.process(proc(env))
    assert env.run(until=p) == "v"


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    out = []

    def proc(env):
        t = env.timeout(0, value="x")
        yield env.timeout(1)
        # t is long processed by now
        v = yield t
        out.append((env.now, v))

    env.process(proc(env))
    env.run()
    assert out == [(1, "x")]


def test_interrupt_delivers_cause():
    env = Environment()
    caught = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as i:
            caught.append((env.now, i.cause))

    def attacker(env, victim_proc):
        yield env.timeout(5)
        victim_proc.interrupt(cause="preempt")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert caught == [(5, "preempt")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_rewait():
    """After an interrupt the process can yield new events normally."""
    env = Environment()
    trace = []

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            trace.append(("interrupted", env.now))
        yield env.timeout(2)
        trace.append(("resumed", env.now))

    def attacker(env, v):
        yield env.timeout(1)
        v.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert trace == [("interrupted", 1), ("resumed", 3)]


def test_self_interrupt_rejected():
    env = Environment()

    def proc(env):
        with pytest.raises(SimulationError):
            env.active_process.interrupt()
        yield env.timeout(1)

    env.process(proc(env))
    env.run()


def test_anyof_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(5, value="slow")
        t2 = env.timeout(2, value="fast")
        result = yield AnyOf(env, [t1, t2])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == (2, ["fast"])


def test_or_operator():
    env = Environment()

    def proc(env):
        r1 = yield env.timeout(1, "x") | env.timeout(9, "y")
        return (list(r1.values()), env.now)

    p = env.process(proc(env))
    env.run(until=p)
    assert p.value == (["x"], 1)


def test_peek_and_step():
    env = Environment()
    env.timeout(4)
    assert env.peek() == 4
    env.step()
    assert env.now == 4
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError):
        env.step()


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run(until=p)


def test_determinism_identical_traces():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, name, delays):
            for d in delays:
                yield env.timeout(d)
                trace.append((env.now, name))

        env.process(worker(env, "w1", [1, 1, 1]))
        env.process(worker(env, "w2", [0.5, 1.5, 1]))
        env.process(worker(env, "w3", [3, 0, 0]))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


def test_nested_process_failure_propagates_to_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def parent(env):
        try:
            yield env.process(child(env))
        except KeyError:
            return "handled"

    p = env.process(parent(env))
    env.run(until=p)
    assert p.value == "handled"


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_large_number_of_events_heap_behaviour():
    env = Environment()
    fired = []

    def proc(env, i):
        yield env.timeout(i % 17 + (i % 3) * 0.1)
        fired.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert len(fired) == 500
    times = sorted((i % 17 + (i % 3) * 0.1, idx) for idx, i in enumerate(fired))
    assert [t for t, _ in times] == sorted(t for t, _ in times)


def test_timeout_exposes_delay():
    env = Environment()
    t = Timeout(env, 2.5)
    assert t.delay == 2.5


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_event_repr_states():
    env = Environment()
    ev = env.event()
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    env.run()
    assert "processed" in repr(ev)
