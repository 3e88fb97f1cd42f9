"""Connection manager (paper §4.2).

The frontend library opens a separate connection for each application
thread, preserving the CUDA 3.2 one-context-per-thread semantics.  The
connection manager accepts incoming connections and enqueues them on the
pending-connections list, from which dispatcher threads (and the
inter-node offloader) dequeue them.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Environment, FifoQueue
from repro.net.socket import Listener, Socket
from repro.obs.events import QueueDepthChanged

__all__ = ["ConnectionManager"]


class ConnectionManager:
    """Accepts connections and maintains the pending-connections list."""

    def __init__(self, env: Environment, name: str = "runtime"):
        self.env = env
        self.listener = Listener(env, name=name)
        #: Pending connections (server-side sockets) awaiting a
        #: dispatcher thread.
        self.pending: FifoQueue = FifoQueue(env)
        self._accepting = False
        #: Tracing bus (repro.obs), injected by the runtime; pending-list
        #: depth changes are emitted as QueueDepthChanged events.
        self.obs = None

    @property
    def pending_count(self) -> int:
        return len(self.pending)

    def start(self) -> None:
        """Begin accepting (idempotent)."""
        if not self._accepting:
            self._accepting = True
            self.env.process(self._accept_loop(), name=f"connmgr-{self.listener.name}")

    def _accept_loop(self) -> Generator:
        while True:
            sock: Socket = yield self.listener.accept()
            self.pending.put(sock)
            if self.obs is not None and self.obs.enabled:
                self.obs.record(
                    QueueDepthChanged, queue="pending_connections", depth=len(self.pending)
                )

    def next_connection(self):
        """Event for the next pending connection (dispatcher side)."""
        return self.pending.get()
