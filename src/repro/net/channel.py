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

from repro.sim import Environment, Timeout, Waiter
from repro.sim.core import NORMAL, PENDING, complete_now

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
    straight to the channel's first waiting receiver — or queues it — at
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
        self._delay = at - env.now
        self._pending_value = None
        self._channel = channel
        self._payload = payload
        heapq.heappush(env._queue, (at, NORMAL, next(env._seq), self))


def _deliver_payload(event: "_Delivery") -> None:
    channel = event._channel
    receivers = channel._receivers
    if not receivers:
        channel._messages.append(event._payload)
        return
    # A receiver that gave up waiting has already left the FIFO (its
    # waiter's cancel hook removed it), so the head is live.
    receiver = receivers.popleft()
    env = channel.env
    queue = env._queue
    if not queue or queue[0][0] > env.now or env.peek() > env.now:
        # Nothing else is scheduled at this instant, so a grant event
        # would be the very next pop: resume the receiver inside this
        # callback instead of scheduling its wake-up — same timestamp,
        # one heap event fewer per message.  (As in ``Lock.acquire``, a
        # heap head later than now needs no ``peek``.)
        receiver._ok = True
        receiver._value = event._payload
        callbacks, receiver.callbacks = receiver.callbacks, None
        for callback in callbacks:
            callback(receiver)
    else:
        # Same-tick company (e.g. an URGENT process start already in the
        # heap): it runs first, so wake the receiver through a real grant
        # event.
        receiver.succeed(event._payload)


class Channel:
    """One direction of a socket: FIFO delivery with link timing."""

    def __init__(self, env: Environment, link: LinkSpec):
        self.env = env
        self.link = link
        #: Delivered messages nobody has received yet, oldest first.
        self._messages: deque = deque()
        #: Receivers waiting for a message, oldest first.  A waiter whose
        #: process gives up (interrupt, lost ``any_of``) cancels itself
        #: and leaves the FIFO through ``_drop_receiver``.
        self._receivers: deque = deque()
        self._drop_receiver = self._receivers.remove
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
        if env.now < self._tx_free_at:
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
            _Delivery(self, payload, env.now + self.link.latency_s)
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
        now = self.env.now
        if self._tx_busy or now < self._tx_free_at:
            raise RuntimeError(f"post on busy channel over {self.link.name}")
        done = now + self.link.transmit_seconds(nbytes)
        self._tx_free_at = done
        self.messages_sent += 1
        self.bytes_sent += nbytes
        _Delivery(self, payload, done + self.link.latency_s)

    def recv(self) -> Waiter:
        """Event yielding the next message (blocks while empty).

        A queued message is granted as :meth:`Store.get` grants an item:
        at once when nothing else is due at this instant, through the
        heap otherwise, so the receiver never overtakes same-time events.
        """
        env = self.env
        messages = self._messages
        if messages:
            if env.peek() > env.now:
                return complete_now(Waiter(env), messages.popleft())
            return Waiter(env).succeed(messages.popleft())
        receiver = Waiter(env)
        receiver._on_cancel = self._drop_receiver
        self._receivers.append(receiver)
        return receiver

    def try_recv(self) -> Any:
        """Non-blocking receive; returns None when empty."""
        messages = self._messages
        return messages.popleft() if messages else None

    @property
    def pending(self) -> int:
        """Messages delivered but not yet received."""
        return len(self._messages)

    def close(self) -> None:
        self.closed = True
