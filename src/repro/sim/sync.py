"""Synchronization primitives built on simulation events.

These mirror ``threading`` primitives but advance on virtual time.  The
paper's runtime is heavily multithreaded (dispatcher threads, vGPU worker
threads, per-connection handlers); these primitives make the Python model
read like the original C++ while staying deterministic.

Every queued waiter is a :class:`~repro.sim.core.Waiter` event: if the
waiting process is interrupted, or the waiter was the losing branch of an
``any_of``, the event cancels itself and the primitive drops it.  Wake-ups,
lock ownership, and semaphore permits therefore always reach a *live*
waiter — a ghost can neither swallow a ``notify()`` nor deadlock a
``Lock`` by receiving an ownership transfer it will never release.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.core import Environment, Event, SimulationError, Waiter, complete_now, granted

__all__ = ["Lock", "Semaphore", "Condition", "FifoQueue"]


def _waiter(env: Environment, queue: Deque) -> Waiter:
    """Enqueue a waiter that removes itself from ``queue`` if cancelled."""
    ev = Waiter(env)
    ev._on_cancel = queue.remove
    queue.append(ev)
    return ev


class Lock:
    """A mutex.  ``yield lock.acquire()`` … ``lock.release()``.

    Non-reentrant; release by any process is permitted (the runtime's
    inter-application swap protocol hands locks between vGPU threads).
    """

    def __init__(self, env: Environment):
        self.env = env
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        if not self._locked:
            self._locked = True
            env = self.env
            if env.peek() > env._now:
                # Uncontended grant with nothing else pending at this
                # instant: the grant event would be the very next pop
                # anyway, so the acquirer may simply continue — no heap
                # event.  (The peek() guard is the ordering rule: any
                # event already scheduled at `now` — including an URGENT
                # process start — runs before the resumption.)
                return granted(env)
            ev = Event(env)
            ev.succeed()
        else:
            ev = _waiter(self.env, self._waiters)
        return ev

    def release(self) -> None:
        if not self._locked:
            raise SimulationError("release of unlocked Lock")
        waiters = self._waiters
        while waiters:
            nxt = waiters.popleft()
            if nxt._cancelled:
                continue
            nxt.succeed()  # ownership transfers; stays locked
            return
        self._locked = False


class Semaphore:
    """Counting semaphore."""

    def __init__(self, env: Environment, value: int = 1):
        if value < 0:
            raise SimulationError("semaphore value must be >= 0")
        self.env = env
        self._value = value
        self._waiters: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        if self._value > 0:
            self._value -= 1
            env = self.env
            if env.peek() > env._now:
                return granted(env)
            ev = Event(env)
            ev.succeed()
        else:
            ev = _waiter(self.env, self._waiters)
        return ev

    def release(self) -> None:
        waiters = self._waiters
        while waiters:
            nxt = waiters.popleft()
            if nxt._cancelled:
                continue
            nxt.succeed()  # permit transfers directly
            return
        self._value += 1


class Condition:
    """Condition variable: ``wait()`` returns an event; ``notify`` wakes.

    Unlike ``threading.Condition`` there is no associated lock — in a
    cooperative simulation, atomicity between check and wait is automatic
    as long as no ``yield`` intervenes.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._waiters: Deque[Event] = deque()

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        return _waiter(self.env, self._waiters)

    def notify(self, value: Any = None) -> bool:
        """Wake one *live* waiter.  Returns True if someone was woken."""
        waiters = self._waiters
        while waiters:
            nxt = waiters.popleft()
            if nxt._cancelled:
                continue
            nxt.succeed(value)
            return True
        return False

    def notify_all(self, value: Any = None) -> int:
        """Wake all current live waiters; returns how many."""
        waiters = self._waiters
        n = 0
        while waiters:
            nxt = waiters.popleft()
            if nxt._cancelled:
                continue
            nxt.succeed(value)
            n += 1
        return n


class FifoQueue:
    """An unbounded FIFO with blocking ``get`` — a thin, intention-revealing
    wrapper used for the runtime's connection/context lists."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(list(self._items))

    def _wake_getter(self, item: Any) -> bool:
        getters = self._getters
        while getters:
            nxt = getters.popleft()
            if nxt._cancelled:
                continue
            nxt.succeed(item)
            return True
        return False

    def put(self, item: Any) -> None:
        if not self._wake_getter(item):
            self._items.append(item)

    def put_front(self, item: Any) -> None:
        """Re-queue at the head (used when a dequeued context must retry)."""
        if not self._wake_getter(item):
            self._items.appendleft(item)

    def get(self) -> Event:
        if self._items:
            env = self.env
            if env.peek() > env._now:
                return complete_now(Event(env), self._items.popleft())
            ev = Event(env)
            ev.succeed(self._items.popleft())
        else:
            ev = _waiter(self.env, self._getters)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def remove(self, item: Any) -> bool:
        """Remove a specific queued item; True on success."""
        try:
            self._items.remove(item)
            return True
        except ValueError:
            return False
