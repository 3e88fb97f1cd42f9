"""The experiment runner, its entry points and their result records.

Every experiment boots a cluster, submits jobs and drains through
:func:`run_jobs`; an entry point is a submission rule plus a view of
the per-job outcomes (``replay_trace`` is the fourth, in
:mod:`repro.workloads.trace_replay`).

The paper's metric: "the overall execution time for a batch of
concurrent jobs (the time elapsed between the first job starts and the
last job finishes processing)", plus the average per-job time for the
cluster experiments.  All reported times are *simulated* seconds; every
overhead the runtime introduces (interception, queueing, scheduling,
memory management, swapping) is inside them, exactly as in the paper.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.jobs import Job, JobOutcome
from repro.cluster.node import ComputeNode
from repro.cluster.torque import Torque, TorqueMode
from repro.core.config import RuntimeConfig
from repro.obs import ObsCollector
from repro.sim import Environment
from repro.simcuda.device import GPUSpec

__all__ = [
    "BatchResult",
    "Run",
    "run_arrival_process",
    "run_cluster_batch",
    "run_jobs",
    "run_node_batch",
]

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


@dataclasses.dataclass
class Run:
    """One pass of :func:`run_jobs`: the cluster and its jobs' outcomes."""

    env: Environment
    cluster: Cluster
    #: when the boot grace ended and the submission rule ran
    t0: float
    #: one record per job, in the order the jobs finished (a TORQUE
    #: batch reports its jobs in submission order instead)
    outcomes: List[JobOutcome] = dataclasses.field(default_factory=list)
    #: every node runtime's ``RuntimeStats``, summed (empty when bare)
    stats: Dict[str, int] = dataclasses.field(default_factory=dict)

    def submit(self, node: ComputeNode, *jobs: Job) -> None:
        """Start ``jobs`` on ``node`` now, in order.  Each outcome joins
        :attr:`outcomes` when its job finishes; a job that raises records
        the error there instead of ending the run."""
        now = self.env.now
        for job in jobs:
            self.env.process(self._execute(job, node, now), name=f"job-{job.name}")

    def _execute(self, job: Job, node: ComputeNode, submitted_at: float) -> Generator:
        try:
            yield from job.execute(node, submitted_at)
        except Exception:  # noqa: BLE001 - kept in job.outcome.error
            pass
        self.outcomes.append(job.outcome)


def run_jobs(
    node_specs: Sequence[Sequence[GPUSpec]],
    config: Optional[RuntimeConfig],
    submit: Callable[[Run], None],
    collector: Optional[ObsCollector] = None,
    profiler=None,
) -> Run:
    """Boot a cluster, let ``submit`` start its jobs, and drain it.

    ``node_specs`` lists each node's GPUs (nodes ``node0``, ``node1``,
    …).  ``config=None`` runs every node on the bare CUDA runtime;
    otherwise each node boots the paper's runtime with ``config``, peered
    when ``config.offload_enabled``.  A ``collector`` enables tracing on
    every runtime and keeps the run's events/metrics; a ``profiler``
    (:class:`~repro.sim.SimProfiler`) watches the whole run.
    ``submit(run)`` is called once, :data:`BOOT_GRACE_SECONDS` after the
    boot starts, and starts jobs through :meth:`Run.submit`.
    """
    env = Environment()
    if profiler is not None:
        profiler.attach(env)
    cluster = Cluster(env)
    for i, gpu_specs in enumerate(node_specs):
        cluster.add_node(f"node{i}", gpu_specs, runtime_config=config)
    if config is not None and config.offload_enabled:
        cluster.peer_runtimes()
    if collector is not None:
        for node in cluster.nodes:
            if node.runtime is not None:
                collector.attach(node.runtime)
    env.process(cluster.start())
    env.run(until=BOOT_GRACE_SECONDS)

    run = Run(env, cluster, t0=env.now)
    submit(run)
    env.run()
    if profiler is not None:
        profiler.detach()
    for node in cluster.nodes:
        if node.runtime is not None:
            for key, value in node.runtime.stats.as_dict().items():
                run.stats[key] = run.stats.get(key, 0) + value
    return run


def run_node_batch(
    jobs: List[Job],
    gpu_specs: List[GPUSpec],
    config: Optional[RuntimeConfig],
    label: str = "",
    collector: Optional[ObsCollector] = None,
    profiler=None,
) -> BatchResult:
    """Run ``jobs`` concurrently on a single node, all submitted at t0.

    ``config=None`` runs on the bare CUDA runtime (the baseline);
    otherwise the node boots the paper's runtime with ``config``.
    ``collector`` and ``profiler`` are as for :func:`run_jobs`.
    """

    def submit(run: Run) -> None:
        run.submit(run.cluster.nodes[0], *jobs)

    return _node_result(label, run_jobs([gpu_specs], config, submit, collector, profiler))


def run_arrival_process(
    specs,
    gpu_specs: List[GPUSpec],
    config: Optional[RuntimeConfig],
    rng,
    arrival_rate_per_s: float,
    horizon_s: float,
    label: str = "",
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

    def submit(run: Run) -> None:
        env, node = run.env, run.cluster.nodes[0]

        def arrivals():
            index = 0
            while env.now - run.t0 < horizon_s:
                gap = float(rng.exponential(1.0 / arrival_rate_per_s))
                yield env.timeout(gap)
                if env.now - run.t0 >= horizon_s:
                    break
                spec = specs[int(rng.integers(0, len(specs)))]
                job = make_job(
                    spec,
                    name=f"{spec.tag}@{env.now:.2f}",
                    use_runtime=config is not None,
                    static_device=index if config is None else None,
                )
                index += 1
                run.submit(node, job)

        env.process(arrivals(), name="arrival-process")

    run = run_jobs([gpu_specs], config, submit, collector)
    return _node_result(label, run, elapsed=run.env.now - run.t0)


def _node_result(label: str, run: Run, elapsed: Optional[float] = None) -> BatchResult:
    """The single-node view: per-job times (submission → completion, in
    finish order) by tag, and each device's busy share of ``elapsed``
    (by default, until the last job finished).  No kernel runs before
    t0, so all of a device's busy time falls in the run."""
    job_times = [o.finished_at - o.submitted_at for o in run.outcomes]
    if elapsed is None:
        elapsed = max(job_times, default=0.0)
    tag_times: Dict[str, List[float]] = {}
    errors = 0
    for outcome, t in zip(run.outcomes, job_times):
        tag_times.setdefault(outcome.tag, []).append(t)
        errors += outcome.error is not None
    devices = run.cluster.nodes[0].driver.devices
    return BatchResult(
        label=label,
        total_time=elapsed,
        avg_time=sum(job_times) / len(job_times) if job_times else 0.0,
        job_times=job_times,
        stats=run.stats,
        errors=errors,
        tag_times=tag_times,
        gpu_utilization={d.name: d.utilization(elapsed) for d in devices},
        copy_overlap={d.name: d.copy_exec_overlap_seconds for d in devices},
    )


def run_cluster_batch(
    jobs: List[Job],
    node_specs: List[List[GPUSpec]],
    config: Optional[RuntimeConfig],
    mode: TorqueMode = TorqueMode.OBLIVIOUS,
    label: str = "",
    collector: Optional[ObsCollector] = None,
) -> BatchResult:
    """Run ``jobs`` through TORQUE on a multi-node cluster.

    ``node_specs`` lists each node's GPUs.  With a runtime config whose
    ``offload_enabled`` is set, the node runtimes are peered for
    inter-node offloading.
    """

    def submit(run: Run) -> None:
        torque = Torque(run.env, run.cluster.nodes, mode=mode)

        def batch():
            run.outcomes.extend((yield from torque.run_batch(jobs)))

        run.env.process(batch(), name="torque-batch")

    run = run_jobs(node_specs, config, submit, collector)
    job_times = [o.turnaround for o in run.outcomes]
    return BatchResult(
        label=label,
        total_time=max(job_times, default=0.0),
        avg_time=sum(job_times) / len(job_times) if job_times else 0.0,
        job_times=job_times,
        stats=run.stats,
        errors=sum(1 for o in run.outcomes if not o.ok),
    )
