"""Event-cancellation semantics of the DES kernel.

Cancellation is the PR-7 kernel rework: a pending event can be removed
from the future (``Event.cancel()``), the run loop lazily skips
cancelled entries, and abandoned consumers (interrupts, ``AnyOf``
losers) auto-cancel the events nobody is waiting on anymore — so sync
primitives never see ghost wake-ups.
"""

import pytest

from repro.sim import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


# ---------------------------------------------------------------------------
# cancel() basics
# ---------------------------------------------------------------------------

def test_cancel_pending_event_never_fires():
    env = Environment()
    ev = Event(env)
    fired = []
    ev.callbacks.append(fired.append)
    ev.cancel()
    assert ev.cancelled
    assert not ev.triggered
    env.run()
    assert fired == []


def test_cancel_is_idempotent():
    env = Environment()
    ev = Event(env)
    ev.cancel()
    ev.cancel()  # no error
    assert ev.cancelled


def test_cancel_after_trigger_raises():
    env = Environment()
    ev = Event(env)
    ev.succeed("v")
    with pytest.raises(SimulationError):
        ev.cancel()


def test_cancel_after_processed_raises():
    env = Environment()
    ev = Event(env)
    ev.succeed("v")
    env.run()
    assert ev.processed
    with pytest.raises(SimulationError):
        ev.cancel()


def test_succeed_on_cancelled_event_raises():
    env = Environment()
    ev = Event(env)
    ev.cancel()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_cancelled_timeout_does_not_advance_clock():
    env = Environment()
    t = env.timeout(10)
    env.timeout(3)
    t.cancel()
    env.run()
    assert env.now == 3


def test_on_cancel_hook_fires_once():
    env = Environment()
    ev = Event(env)
    calls = []
    ev._on_cancel = calls.append
    ev.cancel()
    ev.cancel()
    assert calls == [ev]


def test_run_until_cancelled_event_raises():
    env = Environment()
    t = env.timeout(5)
    t.cancel()
    with pytest.raises(SimulationError):
        env.run(until=t)


def test_yielding_cancelled_event_crashes_process():
    env = Environment()
    ev = Event(env)
    ev.cancel()

    def proc():
        yield ev

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


# ---------------------------------------------------------------------------
# lazy heap deletion
# ---------------------------------------------------------------------------

def test_queue_compaction_under_mass_cancellation():
    """Cancelling many timeouts triggers the heap compaction path and
    the survivors still fire in order at their exact times."""
    env = Environment()
    doomed = [env.timeout(i + 1) for i in range(500)]
    keep_times = [1000.0, 2000.0]
    fired = []
    for when in keep_times:
        t = env.timeout(when)
        t.callbacks.append(lambda ev, w=when: fired.append((env.now, w)))
    for t in doomed:
        t.cancel()
    env.run()
    assert fired == [(1000.0, 1000.0), (2000.0, 2000.0)]
    assert env.now == 2000.0


def test_compaction_mid_run_keeps_the_live_queue():
    """Regression: compaction must rebuild the queue IN PLACE.  The run
    loop holds a direct reference to the list, so a compaction that
    rebinds ``env._queue`` strands every event scheduled afterwards and
    the simulation silently runs dry mid-flight."""
    env = Environment()
    fired = []

    def proc():
        doomed = [env.timeout(50 + i) for i in range(300)]
        yield env.timeout(1)
        for t in doomed:       # mass-cancel inside the run loop
            t.cancel()
        yield env.timeout(1)   # scheduled *after* the compaction
        fired.append(env.now)
        yield env.timeout(3)
        fired.append(env.now)

    env.process(proc())
    env.run()
    assert fired == [2, 5]
    assert env.now == 5


def test_peek_skips_cancelled_events():
    env = Environment()
    early = env.timeout(1)
    env.timeout(5)
    early.cancel()
    assert env.peek() == 5


# ---------------------------------------------------------------------------
# interrupts and auto-cancel
# ---------------------------------------------------------------------------

def test_interrupt_auto_cancels_abandoned_timeout():
    """The timeout a process was sleeping on is cancelled when the
    interrupt diverts the process — it never fires as a ghost."""
    env = Environment()
    state = {}

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt:
            state["interrupted_at"] = env.now

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(1)
        p.interrupt()

    env.process(interrupter())
    env.run()
    assert state["interrupted_at"] == 1
    assert env.now == 1  # the 100 s timeout is gone from the queue


def test_interrupt_racing_target_at_same_timestamp():
    """Interrupt scheduled at the same sim time as the target's own
    wake-up: the URGENT interrupt wins, and the simultaneously-triggered
    target is treated as stale (the process sees exactly one resume)."""
    env = Environment()
    trace = []

    def sleeper():
        try:
            yield env.timeout(5)
            trace.append(("timeout", env.now))
        except Interrupt as i:
            trace.append(("interrupt", env.now, i.cause))
        yield env.timeout(1)
        trace.append(("after", env.now))

    def interrupter():
        yield env.timeout(5)  # same instant the sleeper's timeout fires
        p.interrupt(cause="race")

    # The interrupter is created first so its t=5 wake-up pops first;
    # the URGENT interrupt then preempts the sleeper's own t=5 timeout.
    env.process(interrupter())
    p = env.process(sleeper())
    env.run()
    assert trace == [("interrupt", 5, "race"), ("after", 6)]


def test_anyof_cancels_losing_timeout():
    """The backoff pattern: any_of([timeout, wait]) must cancel the
    loser, so a long timeout does not keep simulated time running."""
    env = Environment()

    def proc():
        short = env.timeout(1, value="short")
        long = env.timeout(1000, value="long")
        result = yield env.any_of([short, long])
        assert list(result.values()) == ["short"]
        assert long.cancelled

    env.process(proc())
    env.run()
    assert env.now == 1  # the 1000 s loser is cancelled, not pending


def test_anyof_with_failed_constituent_fails_composite():
    env = Environment()
    boom = RuntimeError("boom")

    def proc():
        ok = env.timeout(1)
        bad = Event(env)
        bad.fail(boom)
        try:
            yield AnyOf(env, [ok, bad])
        except RuntimeError as exc:
            assert exc is boom
            return "caught"

    p = env.process(proc())
    assert env.run(until=p) == "caught"


def test_anyof_failure_cancels_pending_constituents():
    """When one constituent fails, the composite resolves immediately
    and detaches from the still-pending timeout, auto-cancelling it."""
    env = Environment()

    def proc():
        slow = env.timeout(1000)
        bad = env.event()
        bad.fail(RuntimeError("x"))
        try:
            yield AnyOf(env, [slow, bad])
        except RuntimeError:
            pass
        assert slow.cancelled

    env.process(proc())
    env.run()
    assert env.now == 0


def test_plain_events_are_not_auto_cancelled():
    """Plain Events succeed/fail externally (scheduler wake-ups): an
    interrupt that abandons one must leave it usable."""
    env = Environment()
    gate = Event(env)
    trace = []

    def waiter():
        try:
            yield gate
        except Interrupt:
            trace.append("interrupted")

    p = env.process(waiter())

    def driver():
        yield env.timeout(1)
        p.interrupt()
        yield env.timeout(1)
        gate.succeed("still fine")  # must not raise: gate was not cancelled
        trace.append("fired")

    env.process(driver())
    env.run()
    assert trace == ["interrupted", "fired"]
    assert not gate.cancelled


def test_cancelled_timeout_value_is_never_materialized():
    env = Environment()
    t = Timeout(env, 5, value="payload")
    t.cancel()
    env.timeout(10)
    env.run()
    assert not t.triggered
    assert env.now == 10
