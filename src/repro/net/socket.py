"""Bidirectional sockets over a pair of channels.

``connect(env, listener, link)`` creates a socket pair: the client end is
returned to the caller; the server end is delivered to whoever accepts on
the :class:`Listener`.  This mirrors the gVirtuS connection setup: each
application thread opens a separate connection to the runtime daemon
(paper §4.2).
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from repro.sim import Environment, Store
from repro.net.channel import Channel, LinkSpec, AFUNIX_LINK

__all__ = ["Socket", "Listener", "connect"]

_socket_ids = itertools.count(1)


class Socket:
    """One endpoint of an established connection."""

    def __init__(self, env: Environment, tx: Channel, rx: Channel, peer_name: str = ""):
        self.env = env
        self.socket_id = next(_socket_ids)
        self._tx = tx
        #: ``recv()``: event for the next incoming message.  The receiving
        #: channel's own method, so a receive runs no wrapper frame.
        self.recv = rx.recv
        self.peer_name = peer_name
        self.closed = False

    def send(self, payload: Any, nbytes: int = 0) -> Generator:
        """Transmit; completes when the message is on the wire.

        Returns the channel's generator directly instead of delegating
        through an extra ``yield from`` frame — the per-call overhead on
        the hottest path in the simulator."""
        if self.closed:
            raise ConnectionError("socket closed")
        return self._tx.send(payload, nbytes)

    def post(self, payload: Any, nbytes: int = 0) -> None:
        """Transmit on an idle link without a process step (see
        :meth:`Channel.post`)."""
        if self.closed:
            raise ConnectionError("socket closed")
        self._tx.post(payload, nbytes)

    @property
    def bytes_sent(self) -> int:
        return self._tx.bytes_sent

    def close(self) -> None:
        self.closed = True
        self._tx.close()

    def __repr__(self) -> str:
        return f"<Socket #{self.socket_id} peer={self.peer_name!r}>"


class Listener:
    """A listening endpoint; ``accept()`` yields server-side sockets.

    The backlog of un-accepted connections is unbounded, like the
    paper's connection manager, which accepts every connection (§4.2).
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._backlog: Store = Store(env)

    def accept(self):
        """Event for the next incoming connection's server-side socket."""
        return self._backlog.get()

    @property
    def backlog(self) -> int:
        return len(self._backlog.items)


def connect(
    env: Environment,
    listener: Listener,
    link: Optional[LinkSpec] = None,
    client_name: str = "",
) -> Socket:
    """Establish a connection; returns the client socket synchronously.

    Connection setup cost is one link round trip, charged to the first
    message instead of modelled separately (negligible at the call rates
    the experiments use).
    """
    link = link or AFUNIX_LINK
    c2s = Channel(env, link)
    s2c = Channel(env, link)
    client = Socket(env, tx=c2s, rx=s2c, peer_name=listener.name)
    server = Socket(env, tx=s2c, rx=c2s, peer_name=client_name)
    listener._backlog.put(server)
    return client
