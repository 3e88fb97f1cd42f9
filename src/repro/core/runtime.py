"""NodeRuntime: the per-node daemon (paper Figure 3).

Wires together the connection manager, dispatcher, scheduler (vGPUs),
memory manager, migration manager and offload manager, and exposes the
operational surface the experiments drive: start-up, GPU failure /
hotplug, and load metrics.
"""

from __future__ import annotations

import itertools
from typing import Generator, List, Optional, Set

from repro.sim import Environment
from repro.simcuda.device import GPUDevice, GPUSpec
from repro.simcuda.driver import CudaDriver

from repro.core.config import RuntimeConfig
from repro.core.connection import ConnectionManager
from repro.core.context import Context, ContextState
from repro.core.dispatcher import Dispatcher
from repro.core.estimator import RuntimeEstimator
from repro.core.memory.costmodel import TransferCostModel
from repro.core.memory.manager import MemoryManager
from repro.core.migration import MigrationManager
from repro.core.offload import OffloadManager
from repro.core.policies import PolicyContext, make_policy
from repro.core.scheduler import Scheduler
from repro.core.stats import RuntimeStats
from repro.obs import EngineSpan, MetricsRegistry, SLOMonitor, Tracer
from repro.qos import AdmissionController, TenantRegistry

__all__ = ["NodeRuntime"]

_runtime_seq = itertools.count()


class NodeRuntime:
    """The runtime daemon for one compute node."""

    def __init__(
        self,
        env: Environment,
        driver: CudaDriver,
        config: Optional[RuntimeConfig] = None,
        name: Optional[str] = None,
    ):
        self.env = env
        self.driver = driver
        self.config = config or RuntimeConfig()
        self.name = name or f"runtime{next(_runtime_seq)}"
        self.stats = RuntimeStats()
        #: Structured event bus (repro.obs); disabled unless configured.
        self.obs = Tracer(env, enabled=self.config.tracing, node=self.name)
        #: One consistent metrics schema over this node: wraps the flat
        #: RuntimeStats counters, adds live gauges and the histograms the
        #: hot paths feed.  Always on (snapshots are pull-based).
        self.metrics = MetricsRegistry(node=self.name)
        self.metrics.attach_stats(self.stats)
        self.memory = MemoryManager(env, self.config, self.stats, obs=self.obs,
                                    metrics=self.metrics)
        self.scheduler = Scheduler(
            env, self.config, driver, make_policy(self.config.policy), self.stats,
            obs=self.obs, metrics=self.metrics,
        )
        self.connections = ConnectionManager(env, name=self.name)
        self.connections.obs = self.obs
        #: Multi-tenant QoS (repro.qos): tenant registry + admission
        #: control.  Always constructed; both are inert no-ops until
        #: ``config.qos_enabled`` / a tenant name arrives on a handshake.
        self.qos = TenantRegistry()
        self.qos.on_register = self._on_tenant_registered
        self.admission = AdmissionController(
            env, self.config, self.qos, stats=self.stats, obs=self.obs
        )
        #: Per-tenant sliding-window turnaround/queue-wait accounting.
        #: Always on, like the metrics registry.
        self.slo = SLOMonitor(env)
        self.scheduler.queue_wait_hook = self.slo.observe_queue_wait
        self.dispatcher = Dispatcher(self)
        self.migration = MigrationManager(self)
        self.offloader = OffloadManager(self)
        self._failed_devices: Set[int] = set()
        self._started = False
        # Live gauges: pull-based, so node_report()/exports always see
        # current state without the hot paths pushing updates.
        self.metrics.gauge("vgpus_total", "usable vGPUs",
                           fn=lambda: self.scheduler.total_vgpus)
        self.metrics.gauge("vgpus_active", "vGPUs serving a context",
                           fn=lambda: sum(self.scheduler.active_per_device().values()))
        self.metrics.gauge("waiting_contexts", "contexts queued for a vGPU",
                           fn=lambda: self.scheduler.waiting_count)
        self.metrics.gauge("pending_connections", "accepted, un-dispatched connections",
                           fn=lambda: self.connections.pending_count)
        self.metrics.gauge("load_per_vgpu", "live application threads per vGPU",
                           fn=self.load_per_vgpu)
        self.metrics.gauge("swap_used_bytes", "host swap-area occupancy",
                           fn=lambda: self.memory.swap.used_bytes)
        self.metrics.gauge("swap_area_used_bytes", "host swap-area bytes allocated",
                           fn=lambda: self.memory.swap.used_bytes)
        self.metrics.gauge("swap_area_peak_bytes", "high-water mark of swap-area occupancy",
                           fn=lambda: self.memory.swap.peak_used)
        self.metrics.gauge("copy_exec_overlap_seconds",
                           "seconds the copy and exec engines ran concurrently",
                           fn=lambda: sum(d.copy_exec_overlap_seconds
                                          for d in self.driver.devices))
        self.metrics.gauge("listener_backlog", "un-accepted connections on the listener",
                           fn=lambda: self.connections.listener.backlog)
        self.metrics.gauge("admitted_contexts", "contexts past admission control",
                           fn=lambda: self.admission.admitted_count)
        # (call_latency_seconds / queue_wait_seconds / swap_*_bytes
        # histograms are created by the dispatcher, scheduler and memory
        # manager against this same registry.)
        # Wire the memory manager's collaboration points.
        self.memory.release_vgpu = self.scheduler.release
        self.memory.bound_contexts_on = self.scheduler.bound_contexts_on
        self.memory.devices_fn = lambda: [
            d for d in self.driver.devices if not d.failed
        ]
        # Memory-informed placement (§4.5 MemUsage/CapacityList).
        self.scheduler.mem_needed_fn = self.memory.page_table.total_bytes
        # Engine-occupancy tracing: the driver reports every copy/exec
        # span; forwarded onto the event bus when tracing is enabled.
        self.driver.span_hook = self._on_engine_span
        # Transfer-cost model (§4.4 cost-driven dynamic binding).  Always
        # constructed and fed kernel observations (via memory.cost_model)
        # so its EWMA is warm.  Partial eviction ranks victims with it
        # under ``eviction_policy="cost_aware"``; placement and migration
        # consult it only when wired below, under ``locality_binding`` or
        # the ``locality`` policy, keeping the default configuration
        # behavior-identical.
        self.cost_model = TransferCostModel(
            self.memory.page_table, self.memory.swap, self.scheduler
        )
        self.memory.cost_model = self.cost_model
        if self.config.locality_binding or self.config.policy == "locality":
            self.scheduler.cost_model = self.cost_model
        if self.config.locality_binding:
            self.migration.cost_model = self.cost_model
        # Everything the scheduling policy may read at a pick.  The
        # estimator is node-local history fed by the dispatcher at
        # context exit; the trace-replay harness replaces it with one
        # shared cluster-wide instance so every node sees the head
        # node's history.
        self.scheduler.policy_context = PolicyContext(
            env,
            estimator=RuntimeEstimator(),
            tenants=self.qos,
            cost_model=self.cost_model,
            idle_vgpus=self.scheduler.idle_vgpus,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Generator:
        """Spawn vGPUs (one CUDA context each) and begin serving."""
        if self._started:
            return
        self._started = True
        self.driver.concurrent_kernels = self.config.kernel_consolidation
        self.driver.launch_control_plane_s = self.config.launch_control_plane_s
        yield from self.scheduler.start()
        self.connections.start()
        self.dispatcher.start()
        if self.config.unbind_on_cpu_phase_s is not None:
            self._reaper_idle()

    @property
    def listener(self):
        """Where frontends connect."""
        return self.connections.listener

    # ------------------------------------------------------------------
    # device availability (upgrade / downgrade / failure, §4.6)
    # ------------------------------------------------------------------
    def fail_device(self, device: GPUDevice) -> None:
        """Inject a device failure (or hard removal)."""
        device.fail()
        self.note_device_failure(device)

    def note_device_failure(self, device: GPUDevice) -> None:
        """Idempotent: retire the device's vGPUs.  Contexts bound there
        discover the failure on their next call and go through the
        dispatcher's recovery path."""
        if device.device_id in self._failed_devices:
            return
        self._failed_devices.add(device.device_id)
        self.scheduler.retire_device(device)

    def add_device(self, spec: GPUSpec) -> Generator:
        """Dynamic upgrade: install a GPU and spawn vGPUs on it."""
        device = self.driver.add_device(spec)
        yield from self.scheduler.add_device(device)
        return device

    def remove_device_gracefully(self, device: GPUDevice) -> Generator:
        """Dynamic downgrade: drain the device, migrating its contexts.

        Bound contexts are swapped out and returned to the scheduler so
        they rebind elsewhere on their next launch; then the device is
        removed from the driver.
        """
        victims: List[Context] = list(self.scheduler.bound_contexts_on(device))
        for ctx in victims:
            yield ctx.lock.acquire()
            try:
                if ctx.bound and ctx.vgpu.device is device:
                    yield from self.memory.unbind(ctx, "device downgrade")
            finally:
                ctx.lock.release()
        for vgpu in self.scheduler.vgpus_on(device):
            vgpu.retire()
        self.driver.remove_device(device)
        self._failed_devices.add(device.device_id)

    # ------------------------------------------------------------------
    # collaboration points
    # ------------------------------------------------------------------
    def _on_tenant_registered(self, tenant) -> None:
        """Per-tenant observability: callback gauges so exports and
        node_report() always see live usage without push updates."""
        slug = "".join(c if c.isalnum() else "_" for c in tenant.name)
        self.metrics.gauge(
            f"tenant_gpu_seconds_{slug}",
            f"GPU seconds consumed by tenant {tenant.name}",
            fn=lambda t=tenant: t.gpu_seconds_used,
        )
        self.metrics.gauge(
            f"tenant_mem_bytes_{slug}",
            f"device memory held by tenant {tenant.name}",
            fn=lambda t=tenant: t.device_bytes(self.memory.page_table),
        )
        self.metrics.gauge(
            f"tenant_swap_out_bytes_{slug}",
            f"cumulative device-to-host swap traffic of tenant {tenant.name}",
            fn=lambda t=tenant: t.swap_bytes_out_total,
        )
        self.metrics.gauge(
            f"tenant_swap_in_bytes_{slug}",
            f"cumulative host-to-device swap traffic of tenant {tenant.name}",
            fn=lambda t=tenant: t.swap_bytes_in_total,
        )

    def _on_engine_span(
        self, device: GPUDevice, engine: str, op: str, nbytes: int,
        owner: str, begin_at: float,
    ) -> None:
        if self.obs.enabled:
            self.obs.record(
                EngineSpan,
                context=owner,
                engine=engine,
                op=op,
                nbytes=nbytes,
                begin_at=begin_at,
                duration=self.env.now - begin_at,
                device_id=device.device_id,
            )

    def _reaper_idle(self, _event=None) -> None:
        """CPU-phase reaper, idle half: unbind contexts lingering in CPU
        phases while others wait for a vGPU (time-sharing beyond memory
        pressure).  While nobody queues, park on the scheduler's
        ``waiting_added`` condition — a recurring rescan would keep the
        event queue alive past the last application."""
        if self.scheduler.waiting_count == 0:
            self.scheduler.waiting_added.wait().callbacks.append(self._reaper_idle)
            return
        threshold = self.config.unbind_on_cpu_phase_s
        self.env.timeout(max(threshold / 2, 1e-3)).callbacks.append(self._reaper_scan)

    def _reaper_scan(self, _event) -> None:
        """CPU-phase reaper, active half: one rescan, half a threshold
        after the idle half armed it."""
        threshold = self.config.unbind_on_cpu_phase_s
        if self.scheduler.waiting_count > 0:
            for ctx in self.scheduler.bound_contexts():
                if (
                    ctx.in_cpu_phase
                    and ctx.cpu_phase_duration(self.env.now) >= threshold
                    and not ctx.lock.locked
                    and not ctx.excluded_from_sharing
                    and ctx.state is ContextState.ASSIGNED
                ):
                    self.env.process(self._reap(ctx), name=f"reap-{ctx.owner}")
        self._reaper_idle()

    def _reap(self, ctx: Context) -> Generator:
        yield ctx.lock.acquire()
        try:
            if (
                ctx.bound
                and ctx.in_cpu_phase
                and self.scheduler.waiting_count > 0
                and ctx.state is ContextState.ASSIGNED
            ):
                yield from self.memory.unbind(ctx, "cpu-phase unbind", retain=True)
        finally:
            ctx.lock.release()

    # ------------------------------------------------------------------
    def load_per_vgpu(self) -> float:
        """Offload metric (§4.7): live application threads on this node —
        connections pending plus contexts not yet finished — per usable
        vGPU."""
        capacity = self.scheduler.total_vgpus
        if capacity == 0:
            return float("inf")
        return (
            len(self.dispatcher.contexts) + self.connections.pending_count
        ) / capacity

    def __repr__(self) -> str:
        return (
            f"<NodeRuntime {self.name} devices={self.driver.device_count()} "
            f"vgpus={self.scheduler.total_vgpus} waiting={self.scheduler.waiting_count}>"
        )
