"""Batch runners and result records.

The paper's metric: "the overall execution time for a batch of
concurrent jobs (the time elapsed between the first job starts and the
last job finishes processing)", plus the average per-job time for the
cluster experiments.  All reported times are *simulated* seconds; every
overhead the runtime introduces (interception, queueing, scheduling,
memory management, swapping) is inside them, exactly as in the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.jobs import Job
from repro.cluster.node import ComputeNode
from repro.cluster.torque import Torque, TorqueMode
from repro.core.config import RuntimeConfig
from repro.core.stats import RuntimeStats
from repro.obs import ObsCollector
from repro.sim import Environment
from repro.simcuda.device import GPUSpec

__all__ = ["BatchResult", "run_arrival_process", "run_cluster_batch", "run_node_batch"]

#: Let vGPU contexts finish booting before the batch starts; the paper's
#: measurements likewise exclude daemon start-up.
BOOT_GRACE_SECONDS = 5.0


@dataclasses.dataclass
class BatchResult:
    """Outcome of one batch run under one configuration."""

    label: str
    total_time: float
    avg_time: float
    job_times: List[float]
    stats: Dict[str, int]
    errors: int = 0
    #: workload tag -> per-job times (class breakdown, e.g. BS-L vs MM-L)
    tag_times: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    #: device name -> execution-engine busy fraction over the batch
    gpu_utilization: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: device name -> seconds its copy and exec engines ran concurrently
    #: (the overlap engine's win; always 0 without pipelined transfers)
    copy_overlap: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def total_copy_overlap(self) -> float:
        return sum(self.copy_overlap.values())

    def avg_by_tag(self) -> Dict[str, float]:
        return {
            tag: sum(ts) / len(ts) for tag, ts in self.tag_times.items() if ts
        }

    @property
    def mean_gpu_utilization(self) -> float:
        if not self.gpu_utilization:
            return 0.0
        return sum(self.gpu_utilization.values()) / len(self.gpu_utilization)

    @property
    def swaps(self) -> int:
        return self.stats.get("swaps_total", 0)

    @property
    def migrations(self) -> int:
        return self.stats.get("migrations", 0)

    @property
    def offloads(self) -> int:
        return self.stats.get("offloads_out", 0)


def _merge_stats(stats_list: List[RuntimeStats]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for stats in stats_list:
        for key, value in stats.as_dict().items():
            merged[key] = merged.get(key, 0) + value
    return merged


def run_node_batch(
    jobs: List[Job],
    gpu_specs: List[GPUSpec],
    config: Optional[RuntimeConfig],
    label: str = "",
    cpu_threads: int = 16,
    collector: Optional[ObsCollector] = None,
    profiler=None,
) -> BatchResult:
    """Run ``jobs`` concurrently on a single node.

    ``config=None`` runs on the bare CUDA runtime (the baseline);
    otherwise the node boots the paper's runtime with ``config``.
    Passing an :class:`ObsCollector` enables tracing on the node's
    runtime and leaves the collector holding the run's events/metrics.
    Passing a :class:`~repro.sim.SimProfiler` attaches it to the
    environment for the whole run (simulator self-profiling: event
    count, events/sec).
    """
    env = Environment()
    if profiler is not None:
        profiler.attach(env)
    node = ComputeNode(env, "node0", gpu_specs, cpu_threads=cpu_threads,
                       runtime_config=config)
    if collector is not None and node.runtime is not None:
        collector.attach(node.runtime)
    env.process(node.start())
    env.run(until=BOOT_GRACE_SECONDS)

    t0 = env.now
    busy0 = {d.name: d.busy_seconds for d in node.driver.devices}
    finish_times: List[float] = []
    tag_times: Dict[str, List[float]] = {}
    errors: List[BaseException] = []

    def run_job(job: Job):
        try:
            yield from job.execute(node, submitted_at=t0)
        except BaseException as exc:  # noqa: BLE001 - recorded per job
            errors.append(exc)
        finish_times.append(env.now)
        tag_times.setdefault(job.tag, []).append(env.now - t0)

    for job in jobs:
        env.process(run_job(job), name=f"job-{job.name}")
    env.run()
    if profiler is not None:
        profiler.detach()

    job_times = [t - t0 for t in finish_times]
    elapsed = max(job_times) if job_times else 0.0
    utilization = {
        d.name: min(1.0, (d.busy_seconds - busy0.get(d.name, 0.0)) / elapsed)
        if elapsed > 0
        else 0.0
        for d in node.driver.devices
    }
    stats = node.runtime.stats.as_dict() if node.runtime else {}
    return BatchResult(
        label=label,
        total_time=elapsed,
        avg_time=sum(job_times) / len(job_times) if job_times else 0.0,
        job_times=job_times,
        stats=stats,
        errors=len(errors),
        tag_times=tag_times,
        gpu_utilization=utilization,
        copy_overlap={
            d.name: d.copy_exec_overlap_seconds for d in node.driver.devices
        },
    )


def run_arrival_process(
    specs,
    gpu_specs: List[GPUSpec],
    config: Optional[RuntimeConfig],
    rng,
    arrival_rate_per_s: float,
    horizon_s: float,
    label: str = "",
    cpu_threads: int = 16,
    collector: Optional[ObsCollector] = None,
) -> BatchResult:
    """Open-loop experiment: jobs arrive as a Poisson process.

    The paper evaluates closed batches (all jobs present at t=0); a
    multi-tenant deployment sees arrivals over time instead.  Jobs are
    drawn uniformly from ``specs`` with exponential inter-arrival gaps at
    ``arrival_rate_per_s`` until ``horizon_s``; the run then drains.
    ``avg_time`` is the mean *response* time (arrival → completion) — the
    open-loop analogue of the paper's per-job metric.
    """
    from repro.workloads.generator import make_job

    env = Environment()
    node = ComputeNode(env, "node0", gpu_specs, cpu_threads=cpu_threads,
                       runtime_config=config)
    if collector is not None and node.runtime is not None:
        collector.attach(node.runtime)
    env.process(node.start())
    env.run(until=BOOT_GRACE_SECONDS)

    t0 = env.now
    response_times: List[float] = []
    tag_times: Dict[str, List[float]] = {}
    errors: List[BaseException] = []
    busy0 = {d.name: d.busy_seconds for d in node.driver.devices}

    def run_job(job: Job, arrived: float):
        try:
            yield from job.execute(node, submitted_at=arrived)
        except BaseException as exc:  # noqa: BLE001 - recorded per job
            errors.append(exc)
        response_times.append(env.now - arrived)
        tag_times.setdefault(job.tag, []).append(env.now - arrived)

    def arrivals():
        index = 0
        while env.now - t0 < horizon_s:
            gap = float(rng.exponential(1.0 / arrival_rate_per_s))
            yield env.timeout(gap)
            if env.now - t0 >= horizon_s:
                break
            spec = specs[int(rng.integers(0, len(specs)))]
            job = make_job(
                spec,
                name=f"{spec.tag}@{env.now:.2f}",
                use_runtime=config is not None,
                static_device=index if config is None else None,
            )
            index += 1
            env.process(run_job(job, env.now), name=f"arrival-{job.name}")

    env.process(arrivals(), name="arrival-process")
    env.run()

    makespan = env.now - t0
    utilization = {
        d.name: min(1.0, (d.busy_seconds - busy0.get(d.name, 0.0)) / makespan)
        if makespan > 0
        else 0.0
        for d in node.driver.devices
    }
    stats = node.runtime.stats.as_dict() if node.runtime else {}
    return BatchResult(
        label=label,
        total_time=makespan,
        avg_time=sum(response_times) / len(response_times) if response_times else 0.0,
        job_times=response_times,
        stats=stats,
        errors=len(errors),
        tag_times=tag_times,
        gpu_utilization=utilization,
        copy_overlap={
            d.name: d.copy_exec_overlap_seconds for d in node.driver.devices
        },
    )


def run_cluster_batch(
    jobs: List[Job],
    node_specs: List[List[GPUSpec]],
    config: Optional[RuntimeConfig],
    mode: TorqueMode = TorqueMode.OBLIVIOUS,
    label: str = "",
    cpu_threads: int = 16,
    collector: Optional[ObsCollector] = None,
) -> BatchResult:
    """Run ``jobs`` through TORQUE on a multi-node cluster.

    ``node_specs`` lists each node's GPUs.  With a runtime config whose
    ``offload_enabled`` is set, the node runtimes are peered for
    inter-node offloading.
    """
    env = Environment()
    cluster = Cluster(env)
    for i, specs in enumerate(node_specs):
        cluster.add_node(f"node{i}", specs, cpu_threads=cpu_threads,
                         runtime_config=config)
    if config is not None and config.offload_enabled:
        cluster.peer_runtimes()
    if collector is not None:
        for cluster_node in cluster.nodes:
            if cluster_node.runtime is not None:
                collector.attach(cluster_node.runtime)
    env.process(cluster.start())
    env.run(until=BOOT_GRACE_SECONDS)

    torque = Torque(env, cluster.nodes, mode=mode)
    p = env.process(torque.run_batch(jobs))
    env.run(until=p)
    env.run()  # drain any trailing bookkeeping events

    stats = _merge_stats([n.runtime.stats for n in cluster.nodes if n.runtime])
    job_times = [o.turnaround for o in torque.outcomes if o.turnaround is not None]
    return BatchResult(
        label=label,
        total_time=torque.total_execution_time,
        avg_time=torque.average_turnaround,
        job_times=job_times,
        stats=stats,
        errors=sum(1 for o in torque.outcomes if not o.ok),
    )
