"""Unit tests for simulated synchronization primitives."""

import pytest

from repro.sim import Condition, Environment, FifoQueue, Lock, SimulationError


# ---------------------------------------------------------------------------
# Lock
# ---------------------------------------------------------------------------

def test_lock_mutual_exclusion():
    env = Environment()
    lock = Lock(env)
    inside = []

    def critical(env, name):
        yield lock.acquire()
        try:
            inside.append(name)
            assert len(inside) == 1
            yield env.timeout(1)
        finally:
            inside.remove(name)
            lock.release()

    for n in "abc":
        env.process(critical(env, n))
    env.run()
    assert inside == []
    assert env.now == 3


def test_lock_fifo_handoff():
    env = Environment()
    lock = Lock(env)
    order = []

    def proc(env, name):
        yield lock.acquire()
        order.append(name)
        yield env.timeout(1)
        lock.release()

    for n in "xyz":
        env.process(proc(env, n))
    env.run()
    assert order == list("xyz")


def test_lock_release_unlocked_raises():
    env = Environment()
    lock = Lock(env)
    with pytest.raises(SimulationError):
        lock.release()


def test_lock_locked_property():
    env = Environment()
    lock = Lock(env)
    assert not lock.locked
    lock.acquire()
    assert lock.locked
    lock.release()
    assert not lock.locked


# ---------------------------------------------------------------------------
# Condition
# ---------------------------------------------------------------------------

def test_condition_notify_wakes_one():
    env = Environment()
    cond = Condition(env)
    woken = []

    def waiter(env, name):
        v = yield cond.wait()
        woken.append((name, v))

    def notifier(env):
        yield env.timeout(1)
        cond.notify("first")
        yield env.timeout(1)
        cond.notify("second")

    env.process(waiter(env, "a"))
    env.process(waiter(env, "b"))
    env.process(notifier(env))
    env.run()
    assert woken == [("a", "first"), ("b", "second")]


def test_condition_notify_all():
    env = Environment()
    cond = Condition(env)
    woken = []

    def waiter(env, name):
        yield cond.wait()
        woken.append(name)

    def notifier(env):
        yield env.timeout(1)
        n = cond.notify_all()
        assert n == 3

    for n in "abc":
        env.process(waiter(env, n))
    env.process(notifier(env))
    env.run()
    assert sorted(woken) == ["a", "b", "c"]


def test_condition_notify_empty_returns_false():
    env = Environment()
    cond = Condition(env)
    assert cond.notify() is False
    assert cond.notify_all() == 0
    assert cond.waiting == 0


# ---------------------------------------------------------------------------
# FifoQueue
# ---------------------------------------------------------------------------

def test_fifoqueue_put_get():
    env = Environment()
    q = FifoQueue(env)
    out = []

    def consumer(env):
        for _ in range(2):
            item = yield q.get()
            out.append((env.now, item))

    def producer(env):
        yield env.timeout(2)
        q.put("a")
        yield env.timeout(2)
        q.put("b")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert out == [(2, "a"), (4, "b")]


def test_fifoqueue_remove():
    env = Environment()
    q = FifoQueue(env)
    q.put("a")
    q.put("b")
    assert q.remove("a") is True
    assert q.remove("a") is False
    assert len(q) == 1


def test_fifoqueue_waiting_getter_served_directly():
    env = Environment()
    q = FifoQueue(env)
    got = []

    def consumer(env):
        got.append((yield q.get()))

    env.process(consumer(env))
    env.run()  # consumer now blocked
    q.put("direct")
    env.run()
    assert got == ["direct"]
    assert len(q) == 0


def test_fifoqueue_iter_snapshot():
    env = Environment()
    q = FifoQueue(env)
    q.put(1)
    q.put(2)
    assert list(q) == [1, 2]
    assert len(q) == 2  # iteration does not consume


# ---------------------------------------------------------------------------
# ghost wake-ups (PR-7 regression tests)
#
# A process interrupted while queued on a primitive leaves a dead waiter
# behind.  Before event cancellation, notify()/release() consumed the
# wake-up on the ghost: a Condition signal was lost, and a Lock handed
# ownership to a process that would never release it (deadlock).
# ---------------------------------------------------------------------------

def test_condition_notify_skips_interrupted_ghost_waiter():
    """A real waiter queued behind an interrupted one still gets the
    notification (the ghost must not swallow it)."""
    from repro.sim import Interrupt

    env = Environment()
    cond = Condition(env)
    woken = []

    def ghost():
        try:
            yield cond.wait()
            woken.append("ghost")
        except Interrupt:
            pass

    def real():
        v = yield cond.wait()
        woken.append(("real", v))

    g = env.process(ghost())

    def driver():
        yield env.timeout(1)   # both waiters queued, ghost first
        g.interrupt()
        yield env.timeout(1)
        assert cond.notify("signal") is True

    env.process(real())
    env.process(driver())
    env.run()
    assert woken == [("real", "signal")]


def test_condition_notify_all_counts_only_live_waiters():
    from repro.sim import Interrupt

    env = Environment()
    cond = Condition(env)
    woken = []

    def waiter(name):
        try:
            yield cond.wait()
            woken.append(name)
        except Interrupt:
            pass

    procs = [env.process(waiter(n)) for n in "abc"]

    def driver():
        yield env.timeout(1)
        procs[1].interrupt()  # "b" becomes a ghost
        yield env.timeout(1)
        assert cond.notify_all() == 2

    env.process(driver())
    env.run()
    assert sorted(woken) == ["a", "c"]


def test_lock_release_skips_interrupted_acquirer():
    """Regression: interrupting a queued acquirer must not leave the
    lock owned by the dead waiter.  The next queued acquirer gets it."""
    from repro.sim import Interrupt

    env = Environment()
    lock = Lock(env)
    order = []

    def holder():
        yield lock.acquire()
        order.append("holder")
        yield env.timeout(5)
        lock.release()

    def doomed():
        try:
            yield lock.acquire()
            order.append("doomed")  # must never run
            lock.release()
        except Interrupt:
            pass

    def survivor():
        yield lock.acquire()
        order.append("survivor")
        lock.release()

    env.process(holder())
    d = env.process(doomed())
    env.process(survivor())

    def driver():
        yield env.timeout(1)  # doomed and survivor are both queued
        d.interrupt()

    env.process(driver())
    env.run()
    assert order == ["holder", "survivor"]
    assert not lock.locked  # no ownership stranded on the ghost


def test_fifoqueue_put_skips_interrupted_getter():
    from repro.sim import Interrupt

    env = Environment()
    q = FifoQueue(env)
    got = []

    def doomed():
        try:
            got.append(("doomed", (yield q.get())))
        except Interrupt:
            pass

    def survivor():
        got.append(("survivor", (yield q.get())))

    d = env.process(doomed())
    env.process(survivor())

    def driver():
        yield env.timeout(1)  # both getters queued, doomed first
        d.interrupt()
        yield env.timeout(1)
        q.put("item")

    env.process(driver())
    env.run()
    assert got == [("survivor", "item")]
    assert len(q) == 0  # delivered, not stranded on the ghost


def test_anyof_losing_wait_leaves_condition_queue():
    """The dispatcher's backoff pattern: any_of([timeout, cond.wait()])
    where the timeout wins must remove the wait from the condition's
    queue — a later notify() goes to a real waiter, not the ghost."""
    env = Environment()
    cond = Condition(env)
    woken = []

    def backoff():
        t = env.timeout(1)
        w = cond.wait()
        yield env.any_of([t, w])
        assert w.cancelled
        assert cond.waiting == 0

    def real():
        yield env.timeout(2)
        woken.append((yield cond.wait()))

    def notifier():
        yield env.timeout(3)
        assert cond.notify("late") is True

    env.process(backoff())
    env.process(real())
    env.process(notifier())
    env.run()
    assert woken == ["late"]
