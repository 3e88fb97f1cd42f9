"""Inter-node offloading (paper §4.7).

When a node's GPUs are overloaded, the runtime redirects application
threads from the pending-connections list to other nodes over TCP.  Only
the CUDA calls travel — the job's CPU phases stay on the origin node.

The load measure is contexts-per-vGPU (bound + waiting); a connection is
offloaded to the least-loaded peer when the local figure exceeds the
peer's by more than a configurable margin.  In the prototype, peers learn
each other's load through the same socket layer; here the query is a
direct method call on the peer object (one fewer message pair — noted in
DESIGN.md as a simulation simplification).
"""

from __future__ import annotations

import dataclasses
from typing import Generator, List, Optional, TYPE_CHECKING

from repro.net.channel import LinkSpec, TCP_10GBE_LINK
from repro.net.rpc import BatchRequest, Request, Response
from repro.net.socket import Socket, connect

from repro.core.protocol import CallType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import NodeRuntime

__all__ = ["OffloadManager", "Peer", "OFFLOAD_TAG"]

#: Connection-name suffix marking an already-offloaded connection.  The
#: receiving node must execute it locally — re-offloading would let two
#: loaded nodes bounce a connection forever.
OFFLOAD_TAG = "::offloaded"


@dataclasses.dataclass
class Peer:
    """A remote runtime reachable over TCP."""

    runtime: "NodeRuntime"
    link: LinkSpec = TCP_10GBE_LINK

    @property
    def name(self) -> str:
        return self.runtime.name


class OffloadManager:
    """Redirects pending connections to less-loaded peers."""

    def __init__(self, runtime: "NodeRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self.config = runtime.config
        self.peers: List[Peer] = []

    def add_peer(self, peer_runtime: "NodeRuntime", link: LinkSpec = TCP_10GBE_LINK) -> None:
        if peer_runtime is self.runtime:
            raise ValueError("a node cannot be its own offload peer")
        self.peers.append(Peer(peer_runtime, link))

    # ------------------------------------------------------------------
    def choose_peer(self) -> Optional[Peer]:
        """The least-loaded peer, if offloading is worthwhile.

        Offloading only makes sense when the local GPUs are overloaded
        (live application threads ≥ vGPU capacity) *and* a peer is
        sufficiently less loaded than this node would be after keeping
        the connection.
        """
        if not self.peers:
            return None
        runtime = self.runtime
        capacity = runtime.scheduler.total_vgpus
        live = len(runtime.dispatcher.contexts)
        if capacity > 0 and live < capacity:
            return None  # local GPUs not saturated: keep the job
        projected = (live + 1) / capacity if capacity else float("inf")
        best = min(self.peers, key=lambda p: p.runtime.load_per_vgpu())
        peer_load = best.runtime.load_per_vgpu()
        if projected > peer_load + self.config.offload_load_margin:
            return best
        return None

    # ------------------------------------------------------------------
    def proxy(self, app_sock: Socket, peer: Peer) -> Generator:
        """Forward every call of one connection to ``peer`` over TCP.

        Transparent to the application: it still talks to the local
        runtime's socket; the local runtime relays requests and responses
        (paying the network's latency and bandwidth on each call and on
        every data payload).
        """
        peer.runtime.stats.offloads_in += 1
        remote = connect(
            self.env,
            peer.runtime.connections.listener,
            link=peer.link,
            client_name=f"{self.runtime.name}{OFFLOAD_TAG}",
        )
        while True:
            req: Request = yield app_sock.recv()
            remote.post(req, nbytes=req.wire_bytes)
            resp: Response = yield remote.recv()
            yield from app_sock.send(resp, nbytes=resp.wire_bytes)
            # A batch frame ends the connection when its tail call does.
            tail = req.calls[-1] if isinstance(req, BatchRequest) else req
            if tail.method == CallType.EXIT:
                remote.close()
                return
