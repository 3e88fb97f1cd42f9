"""Core of the discrete-event simulation kernel.

The model is cooperative: a *process* is a Python generator that yields
:class:`Event` objects.  When the yielded event fires, the process is
resumed with the event's value (or the event's exception is thrown into
the generator).  The :class:`Environment` advances the virtual clock from
event to event; nothing in this package ever consults wall-clock time.

Event lifecycle
---------------
An event is *pending* until it is triggered (:meth:`Event.succeed` /
:meth:`Event.fail`), *triggered* until its callbacks run, and
*processed* afterwards.  A pending event may instead be *cancelled*
(:meth:`Event.cancel`): it will never fire, and triggering it afterwards
is an error.  Cancellation is what keeps the event queue clean — the
losing branch of an :class:`AnyOf`, the original target of an
interrupted process, and abandoned sync-primitive waiters all cancel
instead of lingering as ghost events that pop through the heap and
consume wake-ups meant for live waiters.

Scheduled events (timeouts) are removed from the heap *lazily*: cancel
is O(1), the dead entry is skipped when popped, and the queue is
compacted in O(n) when cancelled entries pile up — the classic
indexed-heap lazy-deletion scheme, O(log n) amortized per cancel.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3)
...     return env.now
>>> p = env.process(hello(env))
>>> env.run()
>>> p.value
3
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Waiter",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "SimulationError",
    "PENDING",
    "complete_now",
    "granted",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Scheduling priorities.  URGENT is used internally so that the wake-up
#: of a process happens before ordinary events scheduled at the same time.
URGENT = 0
NORMAL = 1

#: Compact the event queue once more than this many cancelled entries
#: are buried in it (and they are the majority of the heap).
_COMPACT_THRESHOLD = 64


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value supplied to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulated timeline.

    An event starts *pending*, becomes *triggered* once :meth:`succeed` or
    :meth:`fail` is called (which also schedules it on the environment
    queue), and becomes *processed* once its callbacks have run.  A
    pending event can be :meth:`cancel`\\ led instead, after which it will
    never fire.

    Attributes
    ----------
    env:
        The owning :class:`Environment`.
    callbacks:
        List of callables invoked with the event when it is processed.
        ``None`` after processing.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused", "_cancelled", "_on_cancel")

    #: Value a deferred event (Timeout) fires with; read by the run loop
    #: when it pops an event whose value is still PENDING.
    _pending_value: Any = None
    #: Whether losing all callbacks (interrupt diversion, AnyOf
    #: resolution) auto-cancels the event.  Opt-in: True for Timeouts and
    #: sync-primitive waiters, False for bare signal events that someone
    #: may still trigger later.
    _auto_cancel = False

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: Set to True by a consumer (e.g. Process) that takes ownership
        #: of a failure; unhandled failures crash the environment.
        self.defused = False
        self._cancelled = False
        #: Invoked with the event when it is cancelled (sync primitives
        #: use it to purge the waiter from their queues immediately).
        self._on_cancel: Optional[Callable[["Event"], None]] = None

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """True once the event has been cancelled (it will never fire)."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._cancelled:
            raise SimulationError(f"{self!r} is cancelled and can never fire")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        heapq.heappush(env._queue, (env.now, NORMAL, next(env._seq), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"{exception!r} is not an exception")
        if self._cancelled:
            raise SimulationError(f"{self!r} is cancelled and can never fire")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        env = self.env
        heapq.heappush(env._queue, (env.now, NORMAL, next(env._seq), self))
        return self

    # -- cancellation ----------------------------------------------------
    def cancel(self) -> "Event":
        """Cancel a pending event: it will never fire.

        Idempotent on an already-cancelled event.  Raises
        :class:`SimulationError` once the event has been triggered or
        processed — a fired event cannot be unfired.

        Cancelling a scheduled event (a :class:`Timeout`) removes it from
        the queue lazily: the heap entry is skipped on pop and compacted
        away in bulk when dead entries accumulate.
        """
        if self._cancelled:
            return self
        if self.callbacks is None or self._value is not PENDING:
            raise SimulationError(f"cannot cancel {self!r}: already triggered")
        self._cancelled = True
        hook, self._on_cancel = self._on_cancel, None
        if hook is not None:
            hook(self)
        if isinstance(self, Timeout):
            env = self.env
            env._ncancelled += 1
            if (
                env._ncancelled > _COMPACT_THRESHOLD
                and env._ncancelled * 2 > len(env._queue)
            ):
                env._compact()
        return self

    def _detach(self, callback: Callable[["Event"], None]) -> None:
        """Remove one consumer's callback; auto-cancel an opted-in event
        that nobody is left waiting on."""
        cbs = self.callbacks
        if cbs is None:
            return
        try:
            cbs.remove(callback)
        except ValueError:
            pass
        if not cbs and self._auto_cancel and not self._cancelled and self._value is PENDING:
            self.cancel()

    # -- composition -----------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        if self._cancelled:
            state = "cancelled"
        else:
            state = "processed" if self.processed else (
                "triggered" if self.triggered else "pending"
            )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def complete_now(event: "Event", value: Any = None) -> "Event":
    """Mark a fresh event *processed* with ``value``, bypassing the heap.

    The fast path for grants that succeed immediately (a free lock, an
    uncontended resource slot, a non-empty store): a process
    that yields a processed event continues synchronously in
    :meth:`Process._resume`'s inline loop — zero heap traffic, same
    simulated timestamp.  Only valid on an event nobody has seen yet.
    """
    event._ok = True
    event._value = value
    event.callbacks = None
    return event


def granted(env: "Environment") -> "Event":
    """A processed, value-less event for immediate grants.

    Yielding it continues synchronously; it is immutable once processed,
    so one shared instance per environment serves every valueless grant
    (uncontended locks) without an allocation.
    """
    event = env._granted
    if event is None:
        event = env._granted = complete_now(Event(env))
    return event


class Waiter(Event):
    """An event representing a queued waiter of a sync primitive.

    Identical to :class:`Event` except that it cancels itself when its
    last consumer detaches — the waiter of a ``Lock``/``Condition``/
    ``Store`` whose process was interrupted, or whose ``AnyOf`` already
    resolved, must not stay queued to swallow a wake-up or a permit.
    """

    __slots__ = ()
    _auto_cancel = True


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The value is applied when the timeout is *popped*, not at creation,
    so a pending timeout can be cancelled (losing ``any_of`` branches,
    rescheduled timers).
    """

    __slots__ = ("_delay", "_pending_value")
    _auto_cancel = True

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._cancelled = False
        self._on_cancel = None
        self._delay = delay
        self._pending_value = value
        heapq.heappush(env._queue, (env.now + delay, NORMAL, next(env._seq), self))

    @property
    def delay(self) -> float:
        return self._delay


class Initialize(Event):
    """Internal: the event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self.defused = False
        self._cancelled = False
        self._on_cancel = None
        heapq.heappush(env._queue, (env.now, URGENT, next(env._seq), self))


class Process(Event):
    """A running process; also an event that fires when the process ends.

    The wrapped generator may ``yield`` any :class:`Event`.  ``return``
    (or falling off the end) triggers this event with the return value;
    an uncaught exception fails it.
    """

    __slots__ = ("_generator", "name", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event the process is currently waiting on (None when ready
        #: to run or terminated).
        self._target: Optional[Event] = None
        #: The one bound-method object used for all callback registration,
        #: so detaching compares identically and allocates nothing.
        #: Dropped at termination: it is the process's reference to itself.
        self._resume_cb = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True until the process terminates."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process must be alive and must not interrupt itself.  The
        interrupt is delivered as an URGENT event so it preempts any other
        event scheduled at the same simulated time.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead {self!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")

        env = self.env
        interrupt_event = Event(env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume_cb)
        heapq.heappush(env._queue, (env.now, URGENT, next(env._seq), interrupt_event))

    def _resume(self, event: Event) -> None:
        """Resume the generator with the outcome of ``event``."""
        # Stale wake-up: an interrupt may arrive after the process already
        # terminated at the same timestep, or the process may have been
        # resumed by an interrupt while its original target is still
        # scheduled.  Detect and ignore.
        if self._value is not PENDING:
            return
        target = self._target
        if target is not None and event is not target:
            if not isinstance(event._value, Interrupt):
                return
            # Diverted by an interrupt: detach from the old target.  A
            # waiter or timeout nobody else consumes cancels itself there,
            # so it stops occupying the heap / its primitive's queue.
            target._detach(self._resume_cb)
        self._target = None

        env = self.env
        gen = self._generator
        env._active_process = self
        try:
            while True:
                if event._ok:
                    target = gen.send(event._value)
                else:
                    event.defused = True
                    target = gen.throw(event._value)

                if not isinstance(target, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}"
                    )
                if target._cancelled:
                    raise SimulationError(
                        f"process {self.name!r} yielded a cancelled event; "
                        f"it can never fire"
                    )
                cbs = target.callbacks
                if cbs is None:
                    # Already done: loop immediately with its outcome.
                    event = target
                    continue
                if type(target) is Timeout and not cbs:
                    # Greedy resume: if this timeout is the next live event
                    # in the whole simulation (and inside the run horizon),
                    # the run loop's very next action would be to pop it
                    # and resume us.  Skip the detour: pop it here, advance
                    # the clock to its exact fire time, and keep running
                    # the generator.  Because the *heap head* is the
                    # horizon check, ordering is identical to a pop from
                    # the run loop — any event scheduled at or before the
                    # timeout (including same-time, earlier-sequence
                    # events) makes the check fail and the process waits
                    # on the heap as usual.
                    queue = env._queue
                    while queue and queue[0][3]._cancelled:
                        heapq.heappop(queue)
                        env._ncancelled -= 1
                    if queue:
                        head = queue[0]
                        if head[3] is target and head[0] <= env._greedy_limit:
                            heapq.heappop(queue)
                            env.now = head[0]
                            target._ok = True
                            target._value = target._pending_value
                            target.callbacks = None
                            event = target
                            continue
                cbs.append(self._resume_cb)
                self._target = target
                return
        except StopIteration as exc:
            self._target = None
            self._resume_cb = None
            self.succeed(getattr(exc, "value", None))
        except BaseException as exc:  # noqa: BLE001 - propagate as failure
            self._target = None
            self._resume_cb = None
            # The traceback's first entry is this frame, whose ``self``
            # would tie the stored failure back to this process.
            self.fail(exc.with_traceback(exc.__traceback__.tb_next))
        finally:
            env._active_process = None


class AnyOf(Event):
    """Fires when any constituent event fires (at once if there are none).

    The value is a one-entry dict mapping the constituent that fired to
    its value.  When the composite resolves (or is cancelled), it
    detaches from its still-pending constituents; a constituent nobody
    else consumes cancels itself — so the losing branch of an
    ``any_of([timeout, cond.wait()])`` leaves both the heap and the
    condition's waiter queue instead of lingering as a ghost.  It drops
    its bound-method references to itself then too, so reference
    counting frees it once its waiter moves on.
    """

    __slots__ = ("_events", "_cb")
    #: An abandoned composite (its waiting process was interrupted away)
    #: cancels itself, which detaches — and thereby cancels — its still
    #: pending constituents too.
    _auto_cancel = True

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events from different environments")
        if not self._events:
            self.succeed({})
            return
        self._cb = self._on_event
        self._on_cancel = self._detach_pending
        for ev in self._events:
            if ev.processed:
                self._on_event(ev)
                if self.triggered:
                    break
            else:
                ev.callbacks.append(self._cb)

    def _detach_pending(self, _event: Optional[Event] = None) -> None:
        """Stop consuming the constituents that have not fired yet, then
        drop the composite's references to itself so that reference
        counting frees it once its consumer lets go."""
        for ev in self._events:
            if ev.callbacks is not None and not ev.triggered:
                ev._detach(self._cb)
        self._cb = self._on_cancel = None

    def _on_event(self, event: Event) -> None:
        # A constituent that was already triggered when this composite
        # resolved (or was cancelled) still delivers its callback; ignore
        # it — failures stay undefused so they are not silently dropped.
        if self.triggered or self._cancelled:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            self._detach_pending()
            return
        self.succeed({event: event.value})
        self._detach_pending()


class Environment:
    """The simulated world: virtual clock plus event queue.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (default 0.0).
    """

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time.  A plain attribute: only the kernel
        #: writes it; model code reads it.
        self.now = float(initial_time)
        self._queue: List = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        #: Cancelled entries buried in the queue (compaction trigger).
        self._ncancelled = 0
        #: Horizon for greedy timeout consumption: a numeric
        #: ``run(until=...)`` sets it so an inline resume never advances
        #: the clock past the requested stop time.
        self._greedy_limit = float("inf")
        #: Lazily-created shared grant event (see :func:`granted`).
        self._granted = None
        #: Optional self-profiler (:class:`repro.sim.profile.SimProfiler`);
        #: when set, the run loop reports every popped event to it.  The
        #: profiler observes wall-clock only and never touches sim time.
        self.profiler = None
        #: ``timeout(delay, value=None)``: an event firing ``delay``
        #: simulated seconds from now, made with no wrapper frame.  The
        #: partial refers back to the environment, so the cyclic
        #: collector frees an environment; its events need no collector.
        self.timeout: Callable[..., Timeout] = functools.partial(Timeout, self)

    # -- state -----------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- event creation --------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _compact(self) -> None:
        """Rebuild the queue without the lazily-deleted cancelled entries.

        In place (slice assignment): the run loop and ``succeed``/``fail``
        hold direct references to the list, so rebinding ``self._queue``
        here would strand every event pushed after the compaction on a
        list nobody drains — the simulation would "run dry" mid-flight.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[3]._cancelled]
        heapq.heapify(queue)
        self._ncancelled = 0

    def peek(self) -> float:
        """Time of the next scheduled (live) event, or ``inf`` if none."""
        queue = self._queue
        while queue:
            if queue[0][3]._cancelled:
                heapq.heappop(queue)
                self._ncancelled -= 1
                continue
            return queue[0][0]
        return float("inf")

    def _pop(self) -> Optional[Event]:
        """Pop the next live event, advance the clock, fire deferred
        values.  Returns None when the queue holds only cancelled
        entries."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            when, _prio, _seq, event = pop(queue)
            if event._cancelled:
                self._ncancelled -= 1
                continue
            self.now = when
            if event._value is PENDING:  # deferred (Timeout) value
                event._ok = True
                event._value = event._pending_value
            return event
        return None

    def step(self) -> None:
        """Process the next scheduled event."""
        event = self._pop()
        if event is None:
            raise SimulationError("no scheduled events")
        if self.profiler is not None:
            self.profiler.on_event(event)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event.defused:
            try:
                raise event._value
            finally:
                # The traceback holds this frame: drop the failed event,
                # which holds the exception, and the callbacks, which may
                # name a process, so the exception is in no cycle.
                event = callbacks = callback = None

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to queue exhaustion), a number (run
        until that simulated time), or an :class:`Event` (run until it
        triggers, returning its value).

        The cyclic garbage collector is paused for the duration of the
        loop, so its passes over the live heap cost nothing here.  That
        is safe because reference counting frees every kernel object
        once it is done: an :class:`AnyOf` drops its references to
        itself when it resolves or is cancelled, and a :class:`Process`
        when it terminates.  Only processes still blocked when the run
        ends, and the events they wait on, are left for the collector.
        ``tests/sim/test_refcount.py`` enforces the rule per kernel path
        and ``tests/core/test_cyclic_garbage.py`` across the golden
        sweep's feature configs.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run(until)
        finally:
            until = None  # a failed ``until`` holds the exception; see step
            if gc_was_enabled:
                gc.enable()

    def _run(self, until: Any) -> Any:
        queue = self._queue
        pop = heapq.heappop

        if until is None:
            while queue:
                when, _prio, _seq, event = pop(queue)
                if event._cancelled:
                    self._ncancelled -= 1
                    continue
                self.now = when
                if event._value is PENDING:
                    event._ok = True
                    event._value = event._pending_value
                profiler = self.profiler
                if profiler is not None:
                    profiler.on_event(event)
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event.defused:
                    try:
                        raise event._value
                    finally:
                        event = callbacks = callback = None  # as in step
            return None

        if isinstance(until, Event):
            try:
                while until.callbacks is not None:
                    if until._cancelled:
                        raise SimulationError(
                            f"{until!r} was cancelled and will never trigger"
                        )
                    if not queue:
                        raise SimulationError("event never triggered; queue exhausted")
                    self.step()
                if not until.ok:
                    until.defused = True
                    raise until.value
                return until.value
            finally:
                until = None  # as in run

        # numeric horizon
        horizon = float(until)
        if horizon < self.now:
            raise SimulationError(f"until={horizon} lies in the past (now={self.now})")
        # Greedy resumes must not advance the clock past the
        # requested stop time either.
        self._greedy_limit = horizon
        try:
            self._run_bounded(horizon)
        finally:
            self._greedy_limit = float("inf")
        self.now = horizon
        return None

    def _run_bounded(self, horizon: float) -> None:
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= horizon:
            when, _prio, _seq, event = pop(queue)
            if event._cancelled:
                self._ncancelled -= 1
                continue
            self.now = when
            if event._value is PENDING:
                event._ok = True
                event._value = event._pending_value
            profiler = self.profiler
            if profiler is not None:
                profiler.on_event(event)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event.defused:
                try:
                    raise event._value
                finally:
                    event = callbacks = callback = None  # as in step
