"""Capacity-limited resources for the simulation kernel.

Three families, mirroring what the cluster/GPU models need:

- :class:`Resource` — ``k`` interchangeable slots (CPU cores, PCIe engines, the single kernel-execution engine of a
  GPU).  Requests are events; ``with resource.request() as req: yield req``
  is the canonical usage inside a process.
- :class:`Container` — a homogeneous amount of "stuff" (bytes of device
  memory at the coarse accounting level).
- :class:`Store` — a FIFO of Python objects (message queues).

All pending claims (requests, getters, putters) are auto-cancelling
events: if the claiming process is interrupted, or the claim loses an
``any_of`` race, the event cancels itself and drops out of the queue so
a slot/item is never granted to a dead claimant.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.sim.core import Environment, Event, SimulationError, complete_now

__all__ = ["Resource", "Container", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager: releasing on ``__exit__`` cancels the
    request if still queued, or frees the slot if acquired.
    """

    __slots__ = ("resource",)
    _auto_cancel = True

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._on_cancel = resource._drop_queued
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: List[Request] = []

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Free a slot (or cancel a still-queued request). Idempotent."""
        if request in self.users:
            self.users.remove(request)
            if self.queue:
                self._grant_next()
        elif request in self.queue:
            self.queue.remove(request)

    # -- internal ---------------------------------------------------------
    def _drop_queued(self, request: Request) -> None:
        """Cancellation hook: a queued request's claimant went away."""
        try:
            self.queue.remove(request)
        except ValueError:
            pass

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self.capacity and not self.queue:
            self.users.append(request)
            env = request.env
            queue = env._queue
            if not queue or queue[0][0] > env.now or env.peek() > env.now:
                # The slot is granted synchronously either way (users
                # already holds the request); with nothing else pending
                # at this instant, the requester may continue without a
                # heap round-trip and same-tick ordering stays exact.
                # (As in ``Lock.acquire``, a later heap head needs no
                # ``peek``.)
                complete_now(request)
            else:
                request.succeed()
        else:
            self.queue.append(request)

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.pop(0)
            if nxt._cancelled:
                continue
            self.users.append(nxt)
            nxt.succeed()


class ContainerEvent(Event):
    __slots__ = ("amount", "_queue")
    _auto_cancel = True

    def __init__(self, container: "Container", amount: float, queue: Deque):
        super().__init__(container.env)
        self.amount = amount
        self._queue = queue
        self._on_cancel = queue.remove


class Container:
    """A continuous quantity with blocking ``get``/``put``.

    Used for coarse-grained accounting where exact placement does not
    matter (the fragmentation-aware allocator in ``repro.simcuda`` handles
    placement-sensitive accounting).
    """

    def __init__(self, env: Environment, capacity: float, init: float = 0.0):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init outside [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: Deque[ContainerEvent] = deque()
        self._putters: Deque[ContainerEvent] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> ContainerEvent:
        if amount < 0:
            raise SimulationError("negative amount")
        if (
            not self._putters
            and not self._getters
            and self._level + amount <= self.capacity
            and self.env.peek() > self.env.now
        ):
            # No queue to disturb and the deposit fits: apply and go.
            self._level += amount
            return complete_now(ContainerEvent(self, amount, self._putters))
        ev = ContainerEvent(self, amount, self._putters)
        self._putters.append(ev)
        self._settle()
        return ev

    def get(self, amount: float) -> ContainerEvent:
        if amount < 0:
            raise SimulationError("negative amount")
        if (
            not self._getters
            and not self._putters
            and self._level >= amount
            and self.env.peek() > self.env.now
        ):
            self._level -= amount
            return complete_now(ContainerEvent(self, amount, self._getters))
        ev = ContainerEvent(self, amount, self._getters)
        self._getters.append(ev)
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and self._level + self._putters[0].amount <= self.capacity:
                ev = self._putters.popleft()
                self._level += ev.amount
                ev.succeed()
                progress = True
            if self._getters and self._level >= self._getters[0].amount:
                ev = self._getters.popleft()
                self._level -= ev.amount
                ev.succeed()
                progress = True


class StoreGet(Event):
    __slots__ = ("_store",)
    _auto_cancel = True

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self._store = store
        self._on_cancel = store._getters.remove


class StorePut(Event):
    __slots__ = ("item", "_store")
    _auto_cancel = True

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        self._store = store
        self._on_cancel = store._putters.remove


class Store:
    """FIFO of arbitrary items with optional capacity bound."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise SimulationError("capacity must be positive or None")
        self.env = env
        self.capacity = capacity if capacity is not None else float("inf")
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        if len(self.items) < self.capacity and self.env.peek() > self.env.now:
            # Space available: hand the item to the first live getter (or
            # shelve it) and let the putter continue synchronously.
            ev = complete_now(StorePut(self, item))
            getters = self._getters
            while getters:
                getter = getters.popleft()
                if getter._cancelled:
                    continue
                getter.succeed(item)
                return ev
            self.items.append(item)
            return ev
        ev = StorePut(self, item)
        self._putters.append(ev)
        self._settle()
        return ev

    def get(self) -> StoreGet:
        if self.items and not self._putters and self.env.peek() > self.env.now:
            return complete_now(StoreGet(self), self.items.popleft())
        ev = StoreGet(self)
        self._getters.append(ev)
        self._settle()
        return ev

    def _settle(self) -> None:
        items = self.items
        getters = self._getters
        putters = self._putters
        progress = True
        while progress:
            progress = False
            if putters and len(items) < self.capacity:
                ev = putters.popleft()
                items.append(ev.item)
                ev.succeed()
                progress = True
            if getters and items:
                ev = getters.popleft()
                ev.succeed(items.popleft())
                progress = True
