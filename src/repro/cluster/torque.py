"""TORQUE-like cluster resource manager (paper §5.4).

Jobs are submitted at the head node and executed on compute nodes.  Two
modes reproduce the paper's integration scenarios:

``TorqueMode.NATIVE``
    TORQUE is GPU-aware but, relying on the bare CUDA runtime, cannot
    share GPUs across jobs: it enqueues jobs on the head node and submits
    one to a compute node only when one of that node's GPUs is free
    (strict serialization — one job per GPU).

``TorqueMode.OBLIVIOUS``
    The GPUs are hidden from TORQUE (the paper's configuration for its
    runtime): the scheduler divides the workload equally between the
    compute nodes — round-robin — and submits immediately; everything
    GPU-related is the node runtime's problem.  On an unbalanced cluster
    this overloads the smaller node, which is exactly what inter-node
    offloading then repairs.

``TorqueMode.GPU_AWARE``
    The paper's second interaction form (§2): "the node-level runtime may
    expose some information to the cluster-level scheduler (e.g.: number
    of GPUs, load level, etc.), so as to guide the cluster-level
    scheduling decisions."  Each job goes to the node whose runtime
    currently reports the lowest load per vGPU.
"""

from __future__ import annotations

import enum
from typing import Dict, Generator, List

from repro.sim import Environment, Store

from repro.cluster.jobs import Job, JobOutcome
from repro.cluster.node import ComputeNode
from repro.core.monitor import node_report

__all__ = ["Torque", "TorqueMode"]


class TorqueMode(enum.Enum):
    NATIVE = "native"        # GPU-aware, serializing (bare CUDA baseline)
    OBLIVIOUS = "oblivious"  # GPUs hidden; equal division among nodes
    GPU_AWARE = "gpu-aware"  # runtimes expose load; least-loaded placement


class Torque:
    """Head-node batch scheduler."""

    def __init__(
        self,
        env: Environment,
        nodes: List[ComputeNode],
        mode: TorqueMode = TorqueMode.OBLIVIOUS,
    ):
        if not nodes:
            raise ValueError("TORQUE needs at least one compute node")
        self.env = env
        self.nodes = nodes
        self.mode = mode
        self.outcomes: List[JobOutcome] = []
        self._rr = 0
        #: NATIVE mode: free GPU slots per node.
        self._free_slots: Dict[str, int] = {n.name: n.gpu_count for n in nodes}
        self._slot_freed: Store = Store(env)

    # ------------------------------------------------------------------
    def run_batch(self, jobs: List[Job]) -> Generator:
        """Submit a batch and wait for every job; returns the outcomes.

        A job that raises fails alone: its error is kept in its outcome
        and the rest of the batch runs on."""
        submitted_at = self.env.now
        if self.mode is TorqueMode.OBLIVIOUS:
            procs = [
                self.env.process(
                    self._run_job(job, self._next_node(), submitted_at),
                    name=f"torque-{job.name}",
                )
                for job in jobs
            ]
            for p in procs:
                yield p
        elif self.mode is TorqueMode.GPU_AWARE:
            procs = []
            for job in jobs:
                node = self._least_loaded_node()
                procs.append(
                    self.env.process(
                        self._run_job(job, node, submitted_at),
                        name=f"torque-{job.name}",
                    )
                )
                # Let the runtime register the new connection before the
                # next placement decision reads its load.
                yield self.env.timeout(1e-3)
            for p in procs:
                yield p
        else:
            yield from self._run_native(jobs, submitted_at)
        self.outcomes = [job.outcome for job in jobs]
        return self.outcomes

    # ------------------------------------------------------------------
    def _next_node(self) -> ComputeNode:
        node = self.nodes[self._rr % len(self.nodes)]
        self._rr += 1
        return node

    def _least_loaded_node(self) -> ComputeNode:
        """GPU-aware placement from the runtimes' exposed load metric.

        Placement goes through :func:`node_report` — the same snapshot a
        real head node would poll — rather than reaching into runtime
        internals, so anything the report exposes (queue depths, the
        ``metrics`` sub-dict) is available to richer policies.
        """
        def load(node: ComputeNode) -> float:
            if node.runtime is None:
                return float("inf")
            return node_report(node.runtime)["load_per_vgpu"]

        return min(self.nodes, key=load)

    def _run_job(self, job: Job, node: ComputeNode, submitted_at: float) -> Generator:
        try:
            yield from job.execute(node, submitted_at)
        except Exception:  # noqa: BLE001 - kept in job.outcome.error
            pass

    def _run_native(self, jobs: List[Job], submitted_at: float) -> Generator:
        """GPU-aware serialization: hold jobs at the head node until a
        GPU frees on some compute node."""
        pending = list(jobs)
        running = []
        while pending:
            node = self._node_with_free_slot()
            if node is None:
                yield self._slot_freed.get()  # wait for any completion
                continue
            job = pending.pop(0)
            self._free_slots[node.name] -= 1
            running.append(
                self.env.process(
                    self._run_native_job(job, node, submitted_at),
                    name=f"torque-{job.name}",
                )
            )
        for p in running:
            yield p

    def _run_native_job(self, job: Job, node: ComputeNode, submitted_at: float) -> Generator:
        try:
            yield from job.execute(node, submitted_at)
        except Exception:  # noqa: BLE001 - kept in job.outcome.error
            pass
        finally:
            self._free_slots[node.name] += 1
            self._slot_freed.put(node.name)

    def _node_with_free_slot(self):
        for node in self.nodes:
            if self._free_slots[node.name] > 0:
                return node
        return None

    # ------------------------------------------------------------------
    # metrics (the paper's "Total" and "Avg" bars)
    # ------------------------------------------------------------------
    @property
    def total_execution_time(self) -> float:
        """First submission → last completion."""
        if not self.outcomes:
            return 0.0
        start = min(o.submitted_at for o in self.outcomes)
        end = max(o.finished_at for o in self.outcomes if o.finished_at is not None)
        return end - start

    @property
    def average_turnaround(self) -> float:
        ts = [o.turnaround for o in self.outcomes if o.turnaround is not None]
        return sum(ts) / len(ts) if ts else 0.0
