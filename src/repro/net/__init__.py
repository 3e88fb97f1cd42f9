"""Simulated communication substrate.

The paper's prototype uses the gVirtuS socket framework: afunix sockets
between application and runtime on the same host (or VM sockets in a
virtualized deployment), and TCP sockets between nodes for inter-node
offloading (§3, §4.7).  This package models both as latency+bandwidth
channels on the simulation clock.
"""

from repro.net.channel import Channel, LinkSpec, AFUNIX_LINK, TCP_GBE_LINK, TCP_10GBE_LINK
from repro.net.socket import Listener, Socket, connect
from repro.net.rpc import RpcClient, RpcServer, Request, Response

__all__ = [
    "AFUNIX_LINK",
    "Channel",
    "connect",
    "LinkSpec",
    "Listener",
    "Request",
    "Response",
    "RpcClient",
    "RpcServer",
    "Socket",
    "TCP_10GBE_LINK",
    "TCP_GBE_LINK",
]
