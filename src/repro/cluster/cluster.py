"""Cluster assembly: nodes + runtime peering.

Builds the multi-node topologies of §5.4: a head node (where TORQUE runs
and jobs are submitted) and compute nodes whose runtimes may be peered
for inter-node offloading over the cluster interconnect.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.net.channel import LinkSpec, TCP_10GBE_LINK
from repro.sim import Environment
from repro.simcuda.device import GPUSpec

from repro.cluster.node import ComputeNode
from repro.core.config import RuntimeConfig

__all__ = ["Cluster"]


class Cluster:
    """A set of compute nodes sharing an interconnect."""

    def __init__(self, env: Environment, interconnect: LinkSpec = TCP_10GBE_LINK):
        self.env = env
        self.interconnect = interconnect
        self.nodes: List[ComputeNode] = []

    def add_node(
        self,
        name: str,
        gpu_specs: List[GPUSpec],
        runtime_config: Optional[RuntimeConfig] = None,
    ) -> ComputeNode:
        node = ComputeNode(self.env, name, gpu_specs, runtime_config=runtime_config)
        self.nodes.append(node)
        return node

    def peer_runtimes(self) -> None:
        """Fully mesh the node runtimes for inter-node offloading."""
        with_runtime = [n for n in self.nodes if n.runtime is not None]
        for a in with_runtime:
            for b in with_runtime:
                if a is not b:
                    a.runtime.offloader.add_peer(b.runtime, link=self.interconnect)

    def start(self) -> Generator:
        """Boot every node."""
        for node in self.nodes:
            yield from node.start()

    @property
    def total_gpus(self) -> int:
        return sum(n.gpu_count for n in self.nodes)

    def __repr__(self) -> str:
        return f"<Cluster nodes={len(self.nodes)} gpus={self.total_gpus}>"
