"""Reference counting frees every finished kernel object.

``Environment.run`` pauses the cyclic garbage collector, so a kernel
object that still refers to itself once it is done stays in memory until
the run ends.  Each case below runs one kernel path to completion with
the collector paused and then asks the collector what only it could
free: no ``Event`` (``Process`` included) may be among it.
"""

import collections
import gc

import pytest

from repro.sim import Condition, Environment, Event, Interrupt


def cyclic_garbage(run):
    """Call ``run()`` with the collector paused; return a Counter of the
    kernel objects (events and processes, by type name) that only the
    cyclic collector could free afterwards."""
    # Collect until a pass frees nothing: closing an abandoned process's
    # generator (an earlier simulation left suspended) runs its cleanup
    # code, which can build new cycles that the same pass does not free.
    while gc.collect():
        pass
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return collections.Counter(
            type(obj).__name__ for obj in gc.garbage if isinstance(obj, Event)
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _anyof_won_by_timeout(env):
    cond = Condition(env)
    (winner,) = yield env.any_of([env.timeout(1), cond.wait()])
    return type(winner).__name__, cond.waiting


def _anyof_won_by_waiter(env):
    cond = Condition(env)

    def notifier():
        yield env.timeout(1)
        cond.notify_all()

    env.process(notifier())
    (winner,) = yield env.any_of([env.timeout(5), cond.wait()])
    return type(winner).__name__, env.now


def _anyof_with_failed_constituent(env):
    def failing():
        yield env.timeout(1)
        raise ValueError("constituent failed")

    try:
        yield env.any_of([env.timeout(5), env.process(failing())])
    except ValueError as exc:
        return str(exc), env.now


def _empty_anyof(env):
    value = yield env.any_of([])
    return value, env.now


def _anyof_cancelled_by_interrupt(env):
    cond = Condition(env)

    def waiter():
        try:
            yield env.any_of([env.timeout(5), cond.wait()])
        except Interrupt as interrupt:
            return interrupt.cause

    victim = env.process(waiter())
    yield env.timeout(1)
    victim.interrupt("stop")
    cause = yield victim
    return cause, cond.waiting


def _process_returns(env):
    def child():
        yield env.timeout(1)
        return "done"

    value = yield env.process(child())
    return value, env.now


def _process_raises(env):
    def child():
        yield env.timeout(1)
        raise ValueError("child failed")

    try:
        yield env.process(child())
    except ValueError as exc:
        return str(exc), env.now


def _process_interrupted(env):
    def sleeper():
        try:
            yield env.timeout(5)
        except Interrupt as interrupt:
            return interrupt.cause, env.now

    victim = env.process(sleeper())
    yield env.timeout(1)
    victim.interrupt("wake")
    return (yield victim)


#: Each case's generator, and what its main process returns.
CASES = {
    "anyof_won_by_timeout": (_anyof_won_by_timeout, ("Timeout", 0)),
    "anyof_won_by_waiter": (_anyof_won_by_waiter, ("Waiter", 1)),
    "anyof_with_failed_constituent": (
        _anyof_with_failed_constituent, ("constituent failed", 1)
    ),
    "empty_anyof": (_empty_anyof, ({}, 0)),
    "anyof_cancelled_by_interrupt": (_anyof_cancelled_by_interrupt, ("stop", 0)),
    "process_returns": (_process_returns, ("done", 1)),
    "process_raises": (_process_raises, ("child failed", 1)),
    "process_interrupted": (_process_interrupted, ("wake", 1)),
}


@pytest.mark.parametrize("case", CASES)
def test_finished_kernel_objects_leave_no_cyclic_garbage(case):
    body, expected = CASES[case]
    outcome = []

    def run():
        env = Environment()
        main = env.process(body(env))
        env.run()
        outcome.append(main.value)

    assert cyclic_garbage(run) == {}
    assert outcome == [expected]



def _crash(env):
    yield env.timeout(1)
    raise ValueError("undefused")


# Each driver starts the crashing process without keeping it in a local:
# a caller's frame that names the failed process is on the traceback too,
# which would tie them in a cycle of the caller's making.
def _run_to_exhaustion(env):
    env.process(_crash(env))
    env.run()


def _run_to_time(env):
    env.process(_crash(env))
    env.run(until=5)


def _run_to_process(env):
    env.run(until=env.process(_crash(env)))


def _step(env):
    env.process(_crash(env))
    while True:
        env.step()


@pytest.mark.parametrize(
    "drive", [_run_to_exhaustion, _run_to_time, _run_to_process, _step]
)
def test_crashed_run_leaves_no_cyclic_garbage(drive):
    """A run that re-raises a process's failure keeps no reference to
    the failed event in its frame, which the exception's traceback
    holds, so the two form no cycle."""
    caught = []

    def run():
        try:
            drive(Environment())
        except ValueError as exc:
            caught.append(str(exc))

    assert cyclic_garbage(run) == {}
    assert caught == ["undefused"]
