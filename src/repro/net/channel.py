"""Unidirectional, in-order message channels with latency and bandwidth.

A :class:`Channel` delivers messages in FIFO order.  Each message of
``nbytes`` occupies the link for ``nbytes/bandwidth`` seconds (store-and-
forward) and arrives ``latency`` seconds after transmission completes.
Successive messages pipeline: transmission serializes, propagation
overlaps — the standard first-order model of a socket over a link.

A message goes out by :meth:`Channel.send`, a process step that ends
when the link is released, or by :meth:`Channel.post`, a plain call for
a sender whose next step is to wait for a reply: it schedules only the
delivery and releases the link without an event.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from typing import Any, Generator

from repro.sim import Environment, Store, Timeout, Waiter
from repro.sim.core import NORMAL, PENDING

__all__ = ["LinkSpec", "Channel", "AFUNIX_LINK", "TCP_GBE_LINK", "TCP_10GBE_LINK"]


@dataclasses.dataclass(frozen=True)
class LinkSpec:
    """Link parameters.

    Attributes
    ----------
    name:
        Human-readable label.
    latency_s:
        One-way propagation delay.
    bandwidth_bps:
        Bytes per second the link sustains.
    per_message_overhead_s:
        Fixed software cost per message (syscalls, marshalling).
    """

    name: str
    latency_s: float
    bandwidth_bps: float
    per_message_overhead_s: float = 0.0

    def transmit_seconds(self, nbytes: int) -> float:
        """Time the sender occupies the link for one message."""
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        return self.per_message_overhead_s + nbytes / self.bandwidth_bps


#: Same-host afunix socket (gVirtuS non-virtualized path): sub-µs latency,
#: memory-bandwidth-ish throughput, but a real per-call overhead — this is
#: the dominant component of the runtime's interception cost.
AFUNIX_LINK = LinkSpec(
    name="afunix", latency_s=2e-6, bandwidth_bps=4e9, per_message_overhead_s=8e-6
)

#: Gigabit Ethernet TCP (conservative inter-node path).
TCP_GBE_LINK = LinkSpec(
    name="tcp-1gbe", latency_s=100e-6, bandwidth_bps=0.110e9, per_message_overhead_s=20e-6
)

#: 10 GbE TCP (the HPC-cluster interconnect we assume for offloading).
TCP_10GBE_LINK = LinkSpec(
    name="tcp-10gbe", latency_s=50e-6, bandwidth_bps=1.1e9, per_message_overhead_s=15e-6
)


class _Delivery(Timeout):
    """Message propagation: ONE scheduled event per message.

    A timeout carrying the payload, whose callback hands the message
    straight to the inbox's first live getter — or queues it — at
    simulated time ``at``: ``latency_s`` after the transmission finished.
    Scheduled at an absolute time, so a posted message lands at exactly
    the float a sent one computes.
    """

    __slots__ = ("_channel", "_payload")

    def __init__(self, channel: "Channel", payload: Any, at: float):
        env = channel.env
        self.env = env
        self.callbacks = [_deliver_payload]
        self._value = PENDING
        self._ok = None
        self.defused = False
        self._cancelled = False
        self._on_cancel = None
        self._delay = at - env._now
        self._pending_value = None
        self._channel = channel
        self._payload = payload
        heapq.heappush(env._queue, (at, NORMAL, next(env._seq), self))


def _deliver_payload(event: "_Delivery") -> None:
    channel = event._channel
    env = channel.env
    inbox = channel._inbox
    getters = inbox._getters
    while getters:
        getter = getters.popleft()
        if getter._cancelled:  # purged lazily, like Store._settle
            continue
        if env.peek() > env._now:
            # Nothing else is scheduled at this instant, so a grant event
            # would be the very next pop: resume the receiver inside this
            # callback instead of scheduling its wake-up — same
            # timestamp, one heap event fewer per message.
            getter._ok = True
            getter._value = event._payload
            callbacks, getter.callbacks = getter.callbacks, None
            for callback in callbacks:
                callback(getter)
        else:
            # Same-tick company (e.g. an URGENT process start already in
            # the heap): it runs first, so wake the receiver through a
            # real grant event.
            getter.succeed(event._payload)
        break
    else:
        inbox.items.append(event._payload)


class Channel:
    """One direction of a socket: FIFO delivery with link timing."""

    def __init__(self, env: Environment, link: LinkSpec):
        self.env = env
        self.link = link
        self._inbox: Store = Store(env)
        #: Transmitter state: a plain busy flag plus a FIFO of waiting
        #: senders, woken one at a time — no heap event at all when
        #: nobody waits.
        self._tx_busy = False
        self._tx_waiters: deque = deque()
        #: When the transmission the last :meth:`post` started ends: the
        #: link is busy until then, with no event marking the release.
        self._tx_free_at = float("-inf")
        self.messages_sent = 0
        self.bytes_sent = 0
        self.closed = False

    def send(self, payload: Any, nbytes: int = 0) -> Generator:
        """Transmit ``payload``; completes when the link is released.

        The payload arrives at the receiver ``latency_s`` after the
        transmission finishes.
        """
        if self.closed:
            raise ConnectionError(f"channel over {self.link.name} is closed")
        env = self.env
        if env._now < self._tx_free_at:
            raise RuntimeError(
                f"send on channel over {self.link.name} while a posted "
                "message is still transmitting"
            )
        # Two heap events per message — the transmit timeout (popped
        # inline when it is next in the heap) and the _Delivery event,
        # which resumes a waiting receiver in its own callback when
        # nothing else is due at that instant.  Transmitter hand-off is
        # a flag plus a FIFO (one wake per release, only when contended).
        while self._tx_busy:
            waiter = Waiter(env)
            waiter._on_cancel = self._tx_waiters.remove
            self._tx_waiters.append(waiter)
            yield waiter
        self._tx_busy = True
        try:
            yield env.timeout(self.link.transmit_seconds(nbytes))
            self.messages_sent += 1
            self.bytes_sent += nbytes
            _Delivery(self, payload, env._now + self.link.latency_s)
        finally:
            self._tx_busy = False
            waiters = self._tx_waiters
            while waiters:
                nxt = waiters.popleft()
                if not nxt._cancelled:
                    nxt.succeed()
                    break

    def post(self, payload: Any, nbytes: int = 0) -> None:
        """Transmit ``payload`` on an idle link with one heap event.

        For a sender whose next step is to wait for a reply, which no
        one can observe releasing the link: the transmission ends at
        ``now + transmit`` and the payload arrives ``latency_s`` later,
        the same floats :meth:`send`'s timeout and delivery compute.
        Counted like :meth:`send` at once.  Every caller keeps one
        message in flight, so a busy link is an error, not a queue.
        """
        if self.closed:
            raise ConnectionError(f"channel over {self.link.name} is closed")
        now = self.env._now
        if self._tx_busy or now < self._tx_free_at:
            raise RuntimeError(f"post on busy channel over {self.link.name}")
        done = now + self.link.transmit_seconds(nbytes)
        self._tx_free_at = done
        self.messages_sent += 1
        self.bytes_sent += nbytes
        _Delivery(self, payload, done + self.link.latency_s)

    def recv(self):
        """Event yielding the next message (blocks while empty)."""
        return self._inbox.get()

    def try_recv(self) -> Any:
        """Non-blocking receive; returns None when empty."""
        if self._inbox.items:
            ev = self._inbox.get()
            return ev.value
        return None

    @property
    def pending(self) -> int:
        """Messages delivered but not yet received."""
        return len(self._inbox.items)

    def close(self) -> None:
        self.closed = True
