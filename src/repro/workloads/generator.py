"""Job generation: turning workload specs into runnable cluster jobs."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.cluster.jobs import Job
from repro.cluster.node import ComputeNode
from repro.core.frontend import Frontend
from repro.simcuda.runtime_api import CudaRuntimeAPI
from repro.workloads.base import (
    Application,
    BareCudaAdapter,
    FrontendAdapter,
    WorkloadSpec,
)
from repro.workloads.catalog import SHORT_RUNNING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["make_job", "draw_short_jobs"]


def make_job(
    spec: WorkloadSpec,
    name: Optional[str] = None,
    use_runtime: bool = True,
    static_device: Optional[int] = None,
    deadline_s: Optional[float] = None,
) -> Job:
    """A cluster job running ``spec`` on whichever node it is placed on.

    ``use_runtime=True`` routes the application through the node's
    runtime daemon (the paper's system); ``False`` runs it on the bare
    CUDA runtime (the baseline).  CPU phases always execute on the
    node's own cores — offloading never moves them (§4.7).

    ``static_device`` models the programmer-defined GPU binding of the
    bare-CUDA baseline: the application issues ``cudaSetDevice(n % #GPUs)``
    before its first device call.  Under the paper's runtime the same call
    is intercepted and ignored (abstraction, §2) — so passing it is
    harmless there.
    """
    job_name = name or spec.tag

    def body(node: ComputeNode):
        app = Application(spec, instance=job_name)
        if use_runtime:
            if node.runtime is None:
                raise RuntimeError(f"{node.name} has no runtime daemon")
            cfg = node.runtime.config
            api = FrontendAdapter(
                Frontend(
                    node.env,
                    node.runtime.listener,
                    name=job_name,
                    estimated_gpu_seconds=spec.gpu_seconds_c2050,
                    deadline_s=deadline_s,
                    # The intercept library reads the node's control-plane
                    # batching knob; batch_max_calls=1 is the historic
                    # per-call RPC path, bit for bit.
                    batch_max_calls=cfg.batch_max_calls,
                )
            )
        else:
            cuda = CudaRuntimeAPI(node.driver, owner=job_name)
            if static_device is not None and node.driver.device_count() > 0:
                devices = node.driver.devices
                cuda.cuda_set_device(
                    devices[static_device % len(devices)].device_id
                )
            api = BareCudaAdapter(cuda)
        yield from app.run(api, cpu_phase=node.cpu_phase)

    return Job(job_name, body, tag=spec.tag)


def draw_short_jobs(
    rng: np.random.Generator,
    count: int,
    use_runtime: bool = True,
    pool: Optional[Sequence[WorkloadSpec]] = None,
) -> List[Job]:
    """Randomly draw ``count`` jobs from the short-running pool (the
    paper's Figures 5, 6 and 10 methodology)."""
    pool = list(pool or SHORT_RUNNING)
    picks = rng.integers(0, len(pool), size=count)
    return [
        make_job(pool[int(i)], name=f"{pool[int(i)].tag}#{n}", use_runtime=use_runtime)
        for n, i in enumerate(picks)
    ]
