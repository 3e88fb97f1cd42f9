"""The benchmark's four workloads, their outputs, and the pinned outputs.

A workload is a list of batches.  Each batch is prepared (jobs and
config built, untimed) and then run through one harness call
(``run_node_batch`` or ``replay_trace``), which is what ``wall_s``
times.  Jobs are rebuilt for every pass because a :class:`Job` keeps
its outcome.

Only ``trace_cluster`` takes the seed.  The other three reproduce fixed
experiments of the paper and the ROADMAP, so every seed runs the same
inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import RuntimeConfig
from repro.experiments.figures import NODE_3GPU
from repro.experiments.harness import run_node_batch
from repro.obs import ObsCollector
from repro.simcuda.device import TESLA_C2050
from repro.simcuda.timing import CONTROL_PLANE_SECONDS
from repro.workloads.catalog import workload
from repro.workloads.finegrained import AGENT_PIPELINE, GRAPH_TRAVERSAL_FINE
from repro.workloads.generator import make_job
from repro.workloads.trace_replay import percentile, replay_trace, synthetic_trace

__all__ = [
    "DEFAULT_SEED",
    "EXPECTED_PATH",
    "WORKLOADS",
    "BatchRun",
    "Workload",
    "summarize",
    "pin_status",
]

DEFAULT_SEED = 2020
EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")
MIB = 1024 * 1024

FIG7_FRACTIONS = (0.0, 0.5, 1.0, 1.5, 2.0)
FIG8_MIXES = ((36, 0), (27, 9), (18, 18), (9, 27), (0, 36))
#: The synthetic trace's seed changes which jobs arrive when; without
#: these two rescalings it also swings the offered load (mean JCT ranged
#: 1.3–12 s over seeds 1–6) and the trace length, and with them the
#: host work of one replay.  Durations are rescaled to the generator's
#: nominal 1 s mean and arrivals to end at TRACE_SPAN_S.
TRACE_MEAN_DURATION_S = 1.0
TRACE_SPAN_S = 150.0


@dataclasses.dataclass
class BatchRun:
    """What one harness call produced, and the host time it took."""

    wall_s: float
    #: simulated seconds from the end of boot to the last completion
    sim_s: float
    makespan_s: float
    #: (batch-qualified job name, simulated finish time)
    finishes: List[Tuple[str, float]]
    jcts: List[float]
    errors: int
    stats: Dict[str, int]


class NodeBatch:
    """A closed batch on one node: every job is submitted at t=0."""

    def __init__(
        self,
        label: str,
        make_jobs: Callable[[], list],
        gpus: Sequence,
        make_config: Callable[[], RuntimeConfig],
    ):
        self.label = label
        self.make_jobs = make_jobs
        self.gpus = list(gpus)
        self.make_config = make_config

    def prepare(self):
        return self.make_jobs(), self.make_config()

    def run(self, prepared, profiler=None) -> BatchRun:
        jobs, config = prepared
        start = time.perf_counter()
        result = run_node_batch(jobs, self.gpus, config, label=self.label, profiler=profiler)
        wall = time.perf_counter() - start
        return BatchRun(
            wall_s=wall,
            sim_s=result.total_time,
            makespan_s=result.total_time,
            finishes=[(f"{self.label}/{j.name}", j.outcome.finished_at) for j in jobs],
            jcts=list(result.job_times),
            errors=sum(1 for j in jobs if j.outcome is None or not j.outcome.ok),
            stats=result.stats,
        )


class TraceBatch:
    """An open-loop trace replay on a cluster, every node traced."""

    def __init__(self, label: str, trace: list, nodes: int, gpus_per_node: int):
        self.label = label
        self.trace = trace
        self.nodes = nodes
        self.gpus_per_node = gpus_per_node

    def prepare(self):
        return ObsCollector()

    def run(self, collector, profiler=None) -> BatchRun:
        start = time.perf_counter()
        res = replay_trace(
            self.trace,
            nodes=self.nodes,
            gpus_per_node=self.gpus_per_node,
            policy="fcfs",
            collector=collector,
            profiler=profiler,
        )
        wall = time.perf_counter() - start
        return BatchRun(
            wall_s=wall,
            sim_s=max(r["finished"] for r in res.records),
            makespan_s=res.makespan,
            finishes=[(r["job_id"], r["finished"]) for r in res.records],
            jcts=[r["jct"] for r in res.records],
            errors=len(self.trace) - len(res.completed),
            stats=res.stats,
        )


# ----------------------------------------------------------------------
# the workloads (keyword sizes let the tests run shrunken copies)
# ----------------------------------------------------------------------
def fig7_swap(seed: int, jobs: int = 36, fractions: Sequence[float] = FIG7_FRACTIONS):
    """Figure 7's 4-vGPU series on the paper's 3-GPU node."""

    def batch(fraction):
        spec = workload("MM-L").with_cpu_fraction(fraction)
        return NodeBatch(
            f"cpu{fraction:g}",
            lambda: [make_job(spec, name=f"MM-L#{i}") for i in range(jobs)],
            NODE_3GPU,
            lambda: RuntimeConfig(vgpus_per_device=4),
        )

    return [batch(f) for f in fractions]


def fig8_paged(seed: int, mixes: Sequence[Tuple[int, int]] = FIG8_MIXES):
    """Figure 8's BS-L/MM-L mixes with chunked swap, partial cost-aware
    eviction and locality binding."""
    bsl = workload("BS-L")
    mml = workload("MM-L").with_cpu_fraction(1.0)

    def config():
        return RuntimeConfig(
            vgpus_per_device=4,
            swap_chunk_bytes=64 * MIB,
            eviction_mode="partial",
            eviction_policy="cost_aware",
            policy="locality",
            locality_binding=True,
        )

    def batch(n_bs, n_mm):
        def jobs():
            out = []
            # Interleaved, as in Figure 8, so placement mixes the classes.
            for i in range(max(n_bs, n_mm)):
                if i < n_bs:
                    out.append(make_job(bsl, name=f"BS-L#{i}"))
                if i < n_mm:
                    out.append(make_job(mml, name=f"MM-L#{i}"))
            return out

        return NodeBatch(f"bs{n_bs}-mm{n_mm}", jobs, NODE_3GPU, config)

    return [batch(n_bs, n_mm) for n_bs, n_mm in mixes]


def finegrained_rpc(seed: int, jobs: int = 32):
    """GT-F and AP-F alternating on one C2050 with 4 vGPUs, one RPC per
    intercepted call, each launch paying the control-plane charge."""
    specs = (GRAPH_TRAVERSAL_FINE, AGENT_PIPELINE)
    return [
        NodeBatch(
            "fine",
            lambda: [
                make_job(specs[i % 2], name=f"{specs[i % 2].tag}#{i}") for i in range(jobs)
            ],
            [TESLA_C2050],
            lambda: RuntimeConfig(
                vgpus_per_device=4, launch_control_plane_s=CONTROL_PLANE_SECONDS
            ),
        )
    ]


def normalized_trace(seed: int, jobs: int) -> list:
    """``synthetic_trace`` at 16 jobs/s, rescaled to a fixed mean
    duration and arrival span (see ``TRACE_SPAN_S``)."""
    trace = synthetic_trace(jobs, seed=seed, arrival_rate_per_s=16.0)
    mean = sum(j.duration for j in trace) / len(trace)
    last = trace[-1].submit_time
    return [
        dataclasses.replace(
            j,
            duration=j.duration * TRACE_MEAN_DURATION_S / mean,
            submit_time=j.submit_time * TRACE_SPAN_S / last,
        )
        for j in trace
    ]


def trace_cluster(seed: int, jobs: int = 3000, nodes: int = 32):
    """The synthetic production trace replayed with fcfs on 32 nodes x 2
    heterogeneous GPUs, with an ObsCollector on every node."""
    return [TraceBatch("trace", normalized_trace(seed, jobs), nodes, 2)]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: whether ``--seed`` changes the inputs
    seeded: bool
    build: Callable[..., list]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig7_swap", False, fig7_swap),
        Workload("fig8_paged", False, fig8_paged),
        Workload("finegrained_rpc", False, finegrained_rpc),
        Workload("trace_cluster", True, trace_cluster),
    )
}


# ----------------------------------------------------------------------
# outputs and pins
# ----------------------------------------------------------------------
def summarize(runs: Sequence[BatchRun]) -> Dict:
    """The simulated outputs of one pass over a workload's batches."""
    jcts = [t for run in runs for t in run.jcts]
    finishes = sorted((name, repr(t)) for run in runs for name, t in run.finishes)
    digest = hashlib.sha256(
        "\n".join(f"{name} {t}" for name, t in finishes).encode()
    ).hexdigest()
    return {
        "jobs": len(finishes),
        "sim_makespan_s": sum(run.makespan_s for run in runs),
        "sim_mean_jct_s": sum(jcts) / len(jcts),
        "sim_p99_jct_s": percentile(jcts, 99.0),
        "finish_sha256": digest,
    }


def load_pins(path: pathlib.Path = EXPECTED_PATH) -> Dict:
    return json.loads(path.read_text())


def pin_status(name: str, seed: int, outputs: Dict, pins: Optional[Dict] = None) -> str:
    """``"match"``, ``"mismatch"`` or ``"unpinned"``.

    The pins hold each workload's outputs at the default seed; a seeded
    workload at another seed has nothing to compare against.
    """
    if WORKLOADS[name].seeded and seed != DEFAULT_SEED:
        return "unpinned"
    pins = load_pins() if pins is None else pins
    return "match" if pins[name] == outputs else "mismatch"


def write_pins(pins: Dict, path: pathlib.Path = EXPECTED_PATH) -> None:
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
