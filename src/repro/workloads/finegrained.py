"""Many-small-kernel workloads (control-plane stress).

The Table 2 programs launch tens of kernels that each run hundreds of
milliseconds, so per-launch control-plane cost vanishes in execution
time.  Modern fine-grained workloads invert that ratio: graph traversal
frontiers and agent-pipeline stages launch *thousands* of kernels of a
few tens of microseconds each, making the per-launch round-trip — wire
framing, dispatcher scheduling, driver submission — the dominant term.
These two shapes are the benchmark targets for control-plane batching
and CUDA-Graph-style replay (``benchmarks/test_control_plane.py``).

They join the catalog by tag but deliberately stay out of the
short/long random-draw pools: the paper's figure methodology draws only
Table 2 programs.
"""

from __future__ import annotations

from repro.workloads.base import WorkloadSpec

__all__ = ["GRAPH_TRAVERSAL_FINE", "AGENT_PIPELINE", "FINE_GRAINED"]

MIB = 1024 * 1024

#: Level-synchronous graph traversal: one tiny frontier-expansion kernel
#: per level over a compact adjacency structure, ~25 µs of execution per
#: launch.  The first buffer (the adjacency lists) is read-only.
GRAPH_TRAVERSAL_FINE = WorkloadSpec(
    name="Fine-grained graph traversal",
    tag="GT-F",
    description="frontier-per-level BFS-style traversal, 2000 ~25 us kernels",
    kernel_calls=2000,
    gpu_seconds_c2050=0.05,
    buffer_bytes=(8 * MIB, 2 * MIB, 2 * MIB),
    read_only_buffers=(0,),
)

#: Agent simulation pipeline: a short per-stage kernel (sense, decide,
#: act) issued per tick over a small shared world state, ~30 µs each.
AGENT_PIPELINE = WorkloadSpec(
    name="Agent pipeline",
    tag="AP-F",
    description="per-tick agent stages, 1200 ~30 us kernels",
    kernel_calls=1200,
    gpu_seconds_c2050=0.036,
    buffer_bytes=(4 * MIB, 4 * MIB),
    read_only_buffers=(0,),
)

#: The many-small-kernel family as a pool (control-plane stress; not in
#: the random draw pools — the paper's figures draw Table 2 programs only).
FINE_GRAINED = [GRAPH_TRAVERSAL_FINE, AGENT_PIPELINE]
