"""Production trace replay at cluster scale.

The paper evaluates hand-picked benchmark batches per node; a deployed
multi-tenant service sees what production GPU traces (Alibaba
``cluster-trace-gpu-v2020``) record: thousands of jobs from competing
users and groups, arriving over hours, with heavy-tailed durations and
heterogeneous GPU demands (T4 inference boxes next to P100/V100
training boxes).  This module turns such a trace — real or synthetic —
into an open-loop replay against a multi-node cluster of the paper's
runtimes, so scheduling policies can be baked off under production
shape:

- :class:`TraceJob` — the schema (``job_id, user, group, submit_time,
  duration, num_gpus, gpu_type, mem_bytes``), loadable from CSV or
  JSON-lines (:func:`load_trace`) and writable back (:func:`save_trace`);
- :func:`synthetic_trace` — a deterministic, seedable generator of
  trace-shaped workload (Zipf users, per-group duration scales,
  lognormal heavy tails, diurnal arrival modulation), so CI needs no
  external data;
- :func:`replay_trace` — the harness: users map to ``repro.qos``
  tenants (with their group), ``gpu_type`` maps to heterogeneous
  :data:`~repro.simcuda.device.DEVICE_SPECS` nodes, jobs are submitted
  at trace-dictated times to the least-loaded type-matching node
  (the GPU-aware placement of :class:`~repro.cluster.torque.Torque`,
  read off the runtimes' load metric), and every completion feeds the
  shared :class:`~repro.core.estimator.RuntimeEstimator` the
  ``sjf_est`` policy consults;
- :class:`TraceReplayResult` — per-job records plus the rollups the
  bake-off reports: makespan, mean/p50/p99 JCT, queueing delay, and
  Jain's fairness index over per-user mean slowdown.

Replay submits application threads straight through the node runtimes
(the paper's Figure 2a data path); a :class:`~repro.cluster.vmcloud.
CloudManager` is mounted over the nodes for the cluster dashboard —
``result.node_reports`` is its monitoring view, the same snapshot a
head-node scheduler polls.  Simulated time is fully deterministic:
identical seed + trace ⇒ bit-identical metrics.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.cluster.jobs import Job, JobOutcome
from repro.cluster.node import ComputeNode
from repro.cluster.vmcloud import CloudManager
from repro.core.config import RuntimeConfig
from repro.core.estimator import RuntimeEstimator
from repro.core.frontend import Frontend
from repro.experiments.harness import Run, run_jobs
from repro.obs import ObsCollector
from repro.obs.report import nearest_rank_percentile as percentile
from repro.simcuda.device import DEVICE_SPECS, device_spec
from repro.simcuda.fatbin import FatBinary
from repro.simcuda.kernels import KernelDescriptor

__all__ = [
    "TraceJob",
    "TRACE_FIELDS",
    "load_trace",
    "loads_trace",
    "save_trace",
    "synthetic_trace",
    "jain_index",
    "percentile",
    "TraceReplayResult",
    "replay_trace",
    "REPLAY_SWAP_CAPACITY_BYTES",
]

MIB = 1024**2
GIB = 1024**3

#: Host swap per replay node.  Trace backlogs hold hundreds of queued
#: jobs' allocations per node, and the bake-off should measure
#: scheduling, not host-DRAM sizing.
REPLAY_SWAP_CAPACITY_BYTES = 256 * GIB

#: Column order of the CSV form (the cluster-trace-gpu-v2020 shape).
TRACE_FIELDS = (
    "job_id",
    "user",
    "group",
    "submit_time",
    "duration",
    "num_gpus",
    "gpu_type",
    "mem_bytes",
)


@dataclasses.dataclass(frozen=True)
class TraceJob:
    """One production-trace job record.

    ``duration`` is the job's GPU demand in seconds *on its requested
    gpu_type* (per GPU — a 2-GPU job occupies both for ``duration``);
    ``mem_bytes`` is its total device-memory footprint across GPUs.
    """

    job_id: str
    user: str
    group: str
    submit_time: float
    duration: float
    num_gpus: int = 1
    gpu_type: str = "V100"
    mem_bytes: int = 256 * MIB

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError(f"{self.job_id}: submit_time must be >= 0")
        if self.duration <= 0:
            raise ValueError(f"{self.job_id}: duration must be positive")
        if self.num_gpus < 1:
            raise ValueError(f"{self.job_id}: num_gpus must be >= 1")
        if self.mem_bytes <= 0:
            raise ValueError(f"{self.job_id}: mem_bytes must be positive")
        device_spec(self.gpu_type)  # fail at load time, not mid-replay

    def to_json(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_record(cls, record: Dict) -> "TraceJob":
        """Build from a loose dict (CSV row / JSON object); extra keys
        are ignored so real-trace exports with more columns load as-is."""
        missing = [f for f in TRACE_FIELDS if f not in record]
        if missing:
            raise ValueError(f"trace record missing fields {missing}: {record}")
        return cls(
            job_id=str(record["job_id"]),
            user=str(record["user"]),
            group=str(record["group"]),
            submit_time=float(record["submit_time"]),
            duration=float(record["duration"]),
            num_gpus=int(record["num_gpus"]),
            gpu_type=str(record["gpu_type"]),
            mem_bytes=int(record["mem_bytes"]),
        )


# ----------------------------------------------------------------------
# load / save
# ----------------------------------------------------------------------
def loads_trace(text: str) -> List[TraceJob]:
    """Parse trace text — CSV (with header) or JSON-lines, sniffed from
    the first non-blank character — into submit-time order."""
    stripped = text.lstrip()
    if not stripped:
        return []
    if stripped[0] == "{":
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    else:
        records = list(csv.DictReader(io.StringIO(text)))
    jobs = [TraceJob.from_record(r) for r in records]
    return sorted(jobs, key=lambda j: (j.submit_time, j.job_id))


def load_trace(path: str) -> List[TraceJob]:
    """Load a trace file (``.csv`` or JSON-lines) in submit-time order."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_trace(fh.read())


def save_trace(jobs: Sequence[TraceJob], path: str) -> None:
    """Write a trace; ``.csv`` extension selects CSV, else JSON-lines."""
    if os.path.splitext(path)[1].lower() == ".csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(TRACE_FIELDS))
            writer.writeheader()
            for job in jobs:
                writer.writerow(job.to_json())
    else:
        with open(path, "w", encoding="utf-8") as fh:
            for job in jobs:
                fh.write(json.dumps(job.to_json()) + "\n")


# ----------------------------------------------------------------------
# synthetic trace-shaped generator
# ----------------------------------------------------------------------
#: gpu_type mix of the synthetic generator (roughly the Alibaba 2020
#: fleet shape: many inference T4s, fewer training P100/V100s).
DEFAULT_GPU_TYPE_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("T4", 0.45),
    ("P100", 0.25),
    ("V100", 0.30),
)


def synthetic_trace(
    num_jobs: int,
    seed: int = 0,
    users: int = 24,
    groups: int = 4,
    arrival_rate_per_s: float = 10.0,
    mean_duration_s: float = 1.0,
    duration_sigma: float = 1.0,
    diurnal_period_s: float = 240.0,
    diurnal_amplitude: float = 0.6,
    zipf_s: float = 1.4,
    gpu_type_weights: Optional[Sequence[Tuple[str, float]]] = None,
    multi_gpu_fraction: float = 0.10,
    mem_median_bytes: int = 384 * MIB,
    mem_sigma: float = 0.9,
) -> List[TraceJob]:
    """Deterministic trace-shaped synthetic workload.

    Shape knobs mirror what production GPU traces exhibit:

    - **Zipf users**: user *r* (1-based popularity rank) submits with
      probability ∝ ``r**-zipf_s`` — a few users dominate traffic;
    - **heavy-tailed durations**: lognormal per job, multiplied by a
      per-user and a per-group lognormal scale (departments that train
      run long; departments that serve run short) — so user identity
      *predicts* runtime, which is exactly what the history estimator
      exploits;
    - **diurnal arrivals**: a nonhomogeneous Poisson process with rate
      ``λ(t) = arrival_rate_per_s · (1 + A·sin(2πt/period))`` — flash
      crowds at peak, slack at trough (period is compressed from 24 h
      to simulation scale);
    - **heterogeneous demands**: ``gpu_type`` drawn from the fleet mix
      biased by the group's preferred card, occasional multi-GPU jobs,
      lognormal memory footprints clipped to 60% of the card.

    Everything derives from one :func:`numpy.random.default_rng` stream:
    same arguments ⇒ identical trace, on any machine.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be >= 1")
    if users < 1 or groups < 1:
        raise ValueError("users and groups must be >= 1")
    import numpy as np

    rng = np.random.default_rng(seed)
    weights = list(gpu_type_weights or DEFAULT_GPU_TYPE_WEIGHTS)
    type_names = [t for t, _ in weights]
    type_p = np.array([w for _, w in weights], dtype=float)
    type_p = type_p / type_p.sum()

    group_names = [f"g{g:02d}" for g in range(groups)]
    user_names = [f"u{u:03d}" for u in range(users)]
    #: Popularity: rank r submits ∝ r^-s.
    user_p = np.array([1.0 / (r + 1) ** zipf_s for r in range(users)])
    user_p = user_p / user_p.sum()
    user_group = rng.integers(0, groups, size=users)
    #: Departments differ in how long they run and what they run on.
    group_scale = np.exp(rng.normal(0.0, 0.8, size=groups))
    user_scale = np.exp(rng.normal(0.0, 0.5, size=users))
    group_pref_type = [type_names[g % len(type_names)] for g in range(groups)]

    jobs: List[TraceJob] = []
    now = 0.0
    #: lognormal(-σ²/2, σ) has mean 1.0 — mean_duration_s stays honest.
    dur_mu = -duration_sigma**2 / 2.0
    for i in range(num_jobs):
        rate = arrival_rate_per_s * (
            1.0 + diurnal_amplitude * math.sin(2 * math.pi * now / diurnal_period_s)
        )
        rate = max(rate, 0.05 * arrival_rate_per_s)
        now += float(rng.exponential(1.0 / rate))

        u = int(rng.choice(users, p=user_p))
        g = int(user_group[u])
        duration = (
            mean_duration_s
            * float(group_scale[g])
            * float(user_scale[u])
            * float(np.exp(rng.normal(dur_mu, duration_sigma)))
        )
        duration = float(min(max(duration, 0.05), 30.0 * mean_duration_s))

        if rng.random() < 0.6:
            gpu_type = group_pref_type[g]
        else:
            gpu_type = type_names[int(rng.choice(len(type_names), p=type_p))]

        if rng.random() < multi_gpu_fraction:
            num_gpus = 2 if rng.random() < 0.75 else 4
        else:
            num_gpus = 1

        #: Bigger jobs tend to hold more memory (weak correlation).
        mem = mem_median_bytes * float(
            np.exp(rng.normal(0.0, mem_sigma))
        ) * (duration / mean_duration_s) ** 0.3
        cap = 0.6 * device_spec(gpu_type).memory_bytes
        mem_bytes = int(min(max(mem, 16 * MIB), cap)) // MIB * MIB

        jobs.append(
            TraceJob(
                job_id=f"job-{i:05d}",
                user=user_names[u],
                group=group_names[g],
                submit_time=round(now, 6),
                duration=round(duration, 6),
                num_gpus=num_gpus,
                gpu_type=gpu_type,
                mem_bytes=mem_bytes,
            )
        )
    return jobs


# ----------------------------------------------------------------------
# metrics helpers
# ----------------------------------------------------------------------
def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` — 1.0 is perfectly
    fair, 1/n is maximally unfair."""
    xs = [v for v in values if v > 0]
    if not xs:
        return 1.0
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares == 0:
        return 1.0
    return (total * total) / (len(xs) * squares)


# ----------------------------------------------------------------------
# replay harness
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TraceReplayResult:
    """Outcome of one trace replay under one policy/cluster shape."""

    label: str
    policy: str
    nodes: int
    gpus: int
    #: one record per trace job: job_id, user, group, gpu_type, node,
    #: submitted, finished, jct, duration, queue_delay, slowdown, ok
    records: List[Dict] = dataclasses.field(default_factory=list)
    stats: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: CloudManager dashboard snapshot at drain time (per-node
    #: node_report incl. tenant rollups and the metrics sub-dict).
    node_reports: Dict[str, Dict] = dataclasses.field(default_factory=dict)
    errors: int = 0

    # -- rollups -------------------------------------------------------
    @property
    def completed(self) -> List[Dict]:
        return [r for r in self.records if r["ok"]]

    @property
    def jcts(self) -> List[float]:
        return [r["jct"] for r in self.completed]

    @property
    def makespan(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return max(r["finished"] for r in done) - min(r["submitted"] for r in done)

    @property
    def mean_jct(self) -> float:
        jcts = self.jcts
        return sum(jcts) / len(jcts) if jcts else 0.0

    @property
    def p50_jct(self) -> float:
        return percentile(self.jcts, 50.0)

    @property
    def p99_jct(self) -> float:
        return percentile(self.jcts, 99.0)

    @property
    def mean_queue_delay(self) -> float:
        """Mean excess sojourn: JCT minus the job's own GPU demand —
        time spent queued for (or time-sharing) a device."""
        delays = [r["queue_delay"] for r in self.completed]
        return sum(delays) / len(delays) if delays else 0.0

    def per_user_slowdown(self) -> Dict[str, float]:
        """user → **median** slowdown (JCT / duration) over their jobs.

        The median is each user's *typical-job* experience.  Mean
        slowdown is notoriously dominated by a user's smallest jobs
        (tiny denominators), which turns the rollup into a measure of
        outlier luck rather than of the service the user actually
        receives."""
        sums: Dict[str, List[float]] = {}
        for r in self.completed:
            sums.setdefault(r["user"], []).append(r["slowdown"])
        return {u: percentile(v, 50.0) for u, v in sorted(sums.items())}

    @property
    def jain_fairness(self) -> float:
        """Jain's index over per-user median slowdown: does every user's
        typical job experience the same service quality, or do some
        users pay for others' throughput?"""
        return jain_index(list(self.per_user_slowdown().values()))

    def metrics(self) -> Dict[str, float]:
        """The bake-off row (what BENCH_trace.json records per policy)."""
        return {
            "jobs": len(self.records),
            "completed": len(self.completed),
            "errors": self.errors,
            "makespan_s": self.makespan,
            "mean_jct_s": self.mean_jct,
            "p50_jct_s": self.p50_jct,
            "p99_jct_s": self.p99_jct,
            "mean_queue_delay_s": self.mean_queue_delay,
            "jain_fairness": self.jain_fairness,
        }


def _node_type_plan(trace: Sequence[TraceJob], nodes: int) -> List[str]:
    """Deterministic node→gpu_type assignment proportional to the
    trace's demand mix (GPU-seconds per type, largest remainder), every
    present type getting at least one node."""
    demand: Dict[str, float] = {}
    for job in trace:
        key = job.gpu_type.strip().upper()
        demand[key] = demand.get(key, 0.0) + job.duration * job.num_gpus
    types = sorted(demand)
    if not types:
        raise ValueError("empty trace")
    if nodes < len(types):
        # Tiny cluster: host only the most-demanded types; jobs of the
        # dropped types fall back to the least-loaded node at placement.
        types = sorted(
            sorted(demand, key=lambda t: (-demand[t], t))[:nodes]
        )
        demand = {t: demand[t] for t in types}
    total = sum(demand.values())
    shares = {t: demand[t] / total * nodes for t in types}
    counts = {t: max(1, int(shares[t])) for t in types}
    while sum(counts.values()) > nodes:
        # Shed from the most-overrepresented type that can spare a node.
        victim = max(
            (t for t in types if counts[t] > 1),
            key=lambda t: (counts[t] - shares[t], t),
        )
        counts[victim] -= 1
    remainders = sorted(
        types, key=lambda t: (-(shares[t] - counts[t]), t)
    )
    i = 0
    while sum(counts.values()) < nodes:
        counts[remainders[i % len(remainders)]] += 1
        i += 1
    plan: List[str] = []
    for t in types:
        plan.extend([t] * counts[t])
    return plan


def _rank(node: ComputeNode, tj: TraceJob, rank_id: int,
          cpu_fraction: float) -> Generator:
    """One rank of ``tj``: a frontend connection demanding its GPU
    seconds over its share of the job's memory."""
    per_rank_bytes = max(MIB, tj.mem_bytes // tj.num_gpus)
    kernel_calls = max(2, min(8, int(tj.duration * 4)))
    flops_total = tj.duration * device_spec(tj.gpu_type).effective_gflops * 1e9
    kernel = KernelDescriptor(
        name=f"{tj.job_id}-kernel", flops=flops_total / kernel_calls
    )
    fatbin = FatBinary()
    fatbin.register_function(kernel)
    runtime = node.runtime
    frontend = Frontend(
        node.env,
        runtime.listener,
        name=f"{tj.job_id}/r{rank_id}",
        tenant=tj.user,
        batch_max_calls=runtime.config.batch_max_calls,
    )
    yield from frontend.open()
    handle = yield from frontend.register_fat_binary(fatbin)
    yield from frontend.register_function(handle, kernel)
    buf = yield from frontend.cuda_malloc(per_rank_bytes)
    yield from frontend.cuda_memcpy_h2d(buf, per_rank_bytes)
    cpu_gap = (
        cpu_fraction * tj.duration / kernel_calls if cpu_fraction > 0 else 0.0
    )
    for _ in range(kernel_calls):
        yield from frontend.launch_kernel(kernel, [buf])
        if cpu_gap > 0:
            yield from node.cpu_phase(cpu_gap)
    yield from frontend.cuda_memcpy_d2h(buf, per_rank_bytes)
    yield from frontend.cuda_free(buf)
    yield from frontend.cuda_thread_exit()


def _trace_job(index: int, tj: TraceJob, cpu_fraction: float,
               estimator: RuntimeEstimator) -> Job:
    """``tj`` as a cluster job: ``num_gpus`` ranks run concurrently on
    its node, and a job that completes feeds ``estimator``.  The job is
    named by ``index``, its position in the replayed trace, so that its
    outcome leads back to ``tj`` even where job ids repeat."""

    def guarded(node: ComputeNode, rank_id: int, failures: List) -> Generator:
        # Rank failures (quota/swap pressure) must surface as the
        # *job's* outcome, not as an unhandled process crash that
        # aborts the whole replay.
        try:
            yield from _rank(node, tj, rank_id, cpu_fraction)
        except BaseException as exc:  # noqa: BLE001 - re-raised by body
            failures.append(exc)

    def body(node: ComputeNode) -> Generator:
        if tj.num_gpus <= 1:
            yield from _rank(node, tj, 0, cpu_fraction)
        else:
            failures: List = []
            ranks = [
                node.env.process(
                    guarded(node, r, failures), name=f"{tj.job_id}/r{r}"
                )
                for r in range(tj.num_gpus)
            ]
            for p in ranks:
                yield p
            if failures:
                raise failures[0]
        # The head node's history: measured GPU demand per user — what
        # sjf_est predicts the *next* job from.
        estimator.observe(tj.user, tj.duration, group=tj.group)

    return Job(str(index), body, tag=tj.gpu_type)


def _record(outcome: JobOutcome, tj: TraceJob, t0: float) -> Dict:
    jct = outcome.turnaround
    return {
        "job_id": tj.job_id,
        "user": tj.user,
        "group": tj.group,
        "gpu_type": tj.gpu_type,
        "num_gpus": tj.num_gpus,
        "node": outcome.node,
        "submitted": outcome.submitted_at - t0,
        "finished": outcome.finished_at - t0,
        "jct": jct,
        "duration": tj.duration,
        "queue_delay": max(jct - tj.duration, 0.0),
        "slowdown": jct / tj.duration,
        "ok": outcome.error is None,
    }


def replay_trace(
    trace: Sequence[TraceJob],
    nodes: int = 8,
    gpus_per_node: int = 2,
    policy: str = "fcfs",
    config: Optional[RuntimeConfig] = None,
    cpu_fraction: float = 0.0,
    label: str = "",
    collector: Optional[ObsCollector] = None,
    estimator: Optional[RuntimeEstimator] = None,
    profiler=None,
) -> TraceReplayResult:
    """Open-loop replay of ``trace`` against a fresh simulated cluster.

    Builds ``nodes`` compute nodes (GPU types proportional to the
    trace's demand mix, each with ``gpus_per_node`` devices) through
    :func:`~repro.experiments.harness.run_jobs`, registers every trace
    user as a tenant (with its group) on every node, then submits each
    job at its ``submit_time`` to the least-loaded node of its
    ``gpu_type`` — falling back to the overall least-loaded node when no
    node carries the type.  Multi-GPU jobs run ``num_gpus`` ranks
    concurrently on their node, each a frontend connection demanding
    ``duration`` GPU seconds (calibrated to the requested card, so a
    V100 job landing on a slower card honestly runs longer) over
    ``mem_bytes/num_gpus`` of device memory.

    Every completion reports the job's measured GPU demand to the shared
    cluster-wide :class:`RuntimeEstimator` (created fresh unless passed
    in), which becomes every node's ``PolicyContext.estimator``: the
    history ``sjf_est`` reads and each node's dispatcher also feeds.

    Pure function of its inputs: no wall-clock, no global RNG — an
    identical call returns bit-identical simulated metrics.  An optional
    ``profiler`` (a :class:`~repro.sim.SimProfiler`) attaches to the
    replay's environment for wall-clock throughput measurement; it
    observes, never steers.
    """
    trace = sorted(trace, key=lambda j: (j.submit_time, j.job_id))
    if not trace:
        raise ValueError("empty trace")
    # Replay hosts get abundant swap by default.  An explicit ``config``
    # (e.g. the overload stress test) is honored verbatim.
    base = config or RuntimeConfig(
        host_swap_capacity_bytes=REPLAY_SWAP_CAPACITY_BYTES
    )
    plan = _node_type_plan(trace, nodes)
    shared_estimator = estimator or RuntimeEstimator()

    def submit(run: Run) -> None:
        env, cluster_nodes = run.env, run.cluster.nodes
        node_type = {n.name: t.strip().upper() for n, t in zip(cluster_nodes, plan)}
        users: Dict[str, str] = {}
        for tj in trace:
            users.setdefault(tj.user, tj.group)
        for node in cluster_nodes:
            runtime = node.runtime
            runtime.scheduler.policy_context.estimator = shared_estimator
            for user, group in users.items():
                runtime.qos.get_or_create(user, group=group)

        def place(tj: TraceJob) -> ComputeNode:
            wanted = tj.gpu_type.strip().upper()
            candidates = [n for n in cluster_nodes if node_type[n.name] == wanted]
            if not candidates:
                candidates = cluster_nodes
            return min(candidates, key=lambda n: (n.runtime.load_per_vgpu(), n.name))

        def arrivals() -> Generator:
            for index, tj in enumerate(trace):
                due = run.t0 + tj.submit_time
                if due > env.now:
                    yield env.timeout(due - env.now)
                node = place(tj)
                run.submit(node, _trace_job(index, tj, cpu_fraction, shared_estimator))

        env.process(arrivals(), name="trace-arrivals")

    run = run_jobs(
        [[device_spec(gpu_type)] * gpus_per_node for gpu_type in plan],
        dataclasses.replace(base, policy=policy),
        submit,
        collector,
        profiler,
    )
    # Each outcome is dropped as its record is made, so the replay never
    # holds both for every job.
    outcomes = run.outcomes
    outcomes.reverse()
    records = []
    while outcomes:
        outcome = outcomes.pop()
        records.append(_record(outcome, trace[int(outcome.name)], run.t0))
    records.sort(key=lambda r: r["job_id"])
    return TraceReplayResult(
        label=label or policy,
        policy=policy,
        nodes=len(run.cluster.nodes),
        gpus=run.cluster.total_gpus,
        records=records,
        stats=run.stats,
        node_reports=CloudManager(run.env, run.cluster.nodes).node_reports(),
        errors=sum(1 for r in records if not r["ok"]),
    )
