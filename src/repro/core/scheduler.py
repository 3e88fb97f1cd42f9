"""Binding scheduler: grants vGPUs to contexts.

Keeps the dispatcher's three context lists (paper §4.3): *waiting*
contexts queue here for a vGPU; *assigned* contexts are the ones bound;
the *failed* list is managed by the dispatcher's recovery path but vGPU
retirement on device failure happens here.

The scheduling policy decides which waiting context is served when a vGPU
frees; the scheduler itself decides which idle vGPU a context is placed on.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.sim import Condition, Environment, Event
from repro.simcuda.device import GPUDevice
from repro.simcuda.driver import CudaDriver
from repro.simcuda.errors import CudaError, CudaRuntimeError

from repro.core.config import RuntimeConfig
from repro.core.context import Context, ContextState
from repro.core.policies import PolicyContext
from repro.core.stats import RuntimeStats
from repro.core.vgpu import VirtualGPU
from repro.obs import MetricsRegistry, QUEUE_WAIT_BUCKETS_S, Tracer

__all__ = ["Scheduler"]


class Scheduler:
    """Owns the vGPUs and the waiting-contexts list."""

    def __init__(
        self,
        env: Environment,
        config: RuntimeConfig,
        driver: CudaDriver,
        policy,
        stats: RuntimeStats,
        obs: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.config = config
        self.driver = driver
        #: Orders the waiting list (:mod:`repro.core.policies`).
        self.policy = policy
        #: What the policy reads at each pick; the runtime replaces this
        #: bare one with the node's fully wired context.
        self.policy_context = PolicyContext(env)
        self.stats = stats
        self.obs = obs or Tracer(env)
        metrics = metrics or MetricsRegistry()
        self._queue_wait = metrics.histogram(
            "queue_wait_seconds", "time from vGPU request to binding",
            buckets=QUEUE_WAIT_BUCKETS_S,
        )
        self.vgpus: List[VirtualGPU] = []
        #: waiting contexts, with the event each blocks on
        self._waiting: List[Context] = []
        self._waiting_events: Dict[Context, Event] = {}
        #: enqueue timestamps feeding the queue-wait histogram
        self._enqueued_at: Dict[Context, float] = {}
        #: observers notified when a vGPU becomes idle with no waiters
        #: (the migration manager hooks in here).
        self.idle_hooks: List[Callable[[VirtualGPU], None]] = []
        #: fired whenever a context joins the waiting list (wakes the
        #: CPU-phase reaper without busy polling).
        self.waiting_added = Condition(env)
        #: Wired by the runtime: bytes a context will need on a device
        #: (the paper's MemUsage-informed placement, §4.5: "whether
        #: binding an application thread to a GPU can potentially lead to
        #: exceeding its memory capacity").
        self.mem_needed_fn: Callable[[Context], int] = lambda c: 0
        #: Wired by the runtime under ``locality_binding`` (or the
        #: ``locality`` policy): the transfer-cost model.  When set,
        #: placement picks the idle vGPU with the cheapest modeled
        #: time-to-first-kernel instead of the load heuristic.
        self.cost_model = None
        #: Wired by the runtime: called with (ctx, wait_seconds) at every
        #: queue-wait observation, feeding the per-tenant SLO monitor.
        self.queue_wait_hook: Optional[Callable[[Context, float], None]] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Generator:
        """Spawn the configured vGPUs for every installed device."""
        for device in self.driver.devices:
            yield from self._spawn_vgpus(device)

    def _spawn_vgpus(self, device: GPUDevice) -> Generator:
        for index in range(self.config.vgpus_per_device):
            vgpu = VirtualGPU(self.env, self.driver, device, index)
            vgpu.obs = self.obs
            yield from vgpu.start()
            self.vgpus.append(vgpu)

    def add_device(self, device: GPUDevice) -> Generator:
        """Dynamic GPU upgrade: spawn vGPUs and serve waiting contexts."""
        yield from self._spawn_vgpus(device)
        self._grant_waiting()

    def retire_device(self, device: GPUDevice) -> List[Context]:
        """Dynamic downgrade / failure: retire the device's vGPUs.

        Returns the contexts that were bound there (the dispatcher moves
        them through recovery).
        """
        orphans: List[Context] = []
        for vgpu in self.vgpus:
            if vgpu.device is device:
                vgpu.retired = True
                if vgpu.bound_context is not None:
                    orphans.append(vgpu.bound_context)
        # Contexts queued for a binding would otherwise sleep forever on
        # their grant event: the retirement shrank (or emptied) the vGPU
        # pool they were waiting on.  Re-run a grant round if any healthy
        # device remains; fail every waiter if none does, so their
        # handlers can surface the error instead of hanging.
        if any(not d.failed for d in self.driver.devices):
            self._grant_waiting()
        elif self._waiting:
            waiters = list(self._waiting)
            self._waiting.clear()
            self._enqueued_at.clear()
            for ctx in waiters:
                ev = self._waiting_events.pop(ctx)
                ctx.state = ContextState.PENDING
                ev.fail(
                    CudaRuntimeError(
                        CudaError.cudaErrorDevicesUnavailable,
                        f"no healthy device to bind {ctx.owner}",
                    )
                )
            if self.obs.enabled:
                self.obs.queue_depth("waiting_contexts", 0)
        return orphans

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def total_vgpus(self) -> int:
        return sum(1 for v in self.vgpus if not v.retired)

    def idle_vgpus(self) -> List[VirtualGPU]:
        return [v for v in self.vgpus if v.idle and not getattr(v, "reserved", False)]

    def active_per_device(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for v in self.vgpus:
            if v.active:
                counts[v.device.device_id] = counts.get(v.device.device_id, 0) + 1
        return counts

    def bound_contexts(self) -> List[Context]:
        return [v.bound_context for v in self.vgpus if v.bound_context is not None]

    def bound_contexts_on(self, device: GPUDevice) -> List[Context]:
        return [
            v.bound_context
            for v in self.vgpus
            if v.device is device and v.bound_context is not None
        ]

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)

    def load_per_vgpu(self) -> float:
        """Bound + waiting contexts per usable vGPU (offload metric)."""
        capacity = self.total_vgpus
        if capacity == 0:
            return float("inf")
        return (len(self.bound_contexts()) + len(self._waiting)) / capacity

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def required_device(self, ctx: Context) -> Optional[GPUDevice]:
        """CUDA 4.0 semantics (§4.8): if a sibling thread of the same
        application is already bound, this context must use that device
        (the threads share data in one CUDA context on the GPU)."""
        if not self.config.cuda4_semantics or not ctx.application_id:
            return None
        for other in self.bound_contexts():
            if other is not ctx and other.application_id == ctx.application_id:
                return other.vgpu.device
        return None

    def _satisfying_idle(self, ctx: Context, idle: List[VirtualGPU]) -> List[VirtualGPU]:
        device = self.required_device(ctx)
        if device is None:
            return idle
        return [v for v in idle if v.device is device]

    def _share_capped(self, ctx: Context) -> bool:
        """vGPU-share gate (repro.qos): True when the context's tenant
        already holds its configured fraction of the node's vGPUs
        (rounded up to at least one) — the context must wait even if a
        vGPU is idle, leaving headroom for other tenants."""
        tenant = getattr(ctx, "tenant", None)
        if (
            not self.config.qos_enabled
            or tenant is None
            or tenant.vgpu_share is None
        ):
            return False
        cap = max(1, int(tenant.vgpu_share * self.total_vgpus))
        held = sum(
            1
            for c in self.bound_contexts()
            if getattr(c, "tenant", None) is tenant
        )
        return held >= cap

    def request_binding(self, ctx: Context, front: bool = False) -> Generator:
        """Block until ``ctx`` is bound to a vGPU.

        Raises
        ------
        CudaRuntimeError
            ``cudaErrorDevicesUnavailable`` when the node has no healthy
            device left — immediately, or when the last one retires while
            this context waits.  Queueing would otherwise sleep forever on
            a grant that can never come.
        """
        if ctx.bound:
            return
        if not any(not d.failed for d in self.driver.devices):
            raise CudaRuntimeError(
                CudaError.cudaErrorDevicesUnavailable,
                f"no healthy device to bind {ctx.owner}",
            )
        idle = self._satisfying_idle(ctx, self.idle_vgpus())
        if idle and not self._waiting and not self._share_capped(ctx):
            self._queue_wait.observe(0.0)
            if self.queue_wait_hook is not None:
                self.queue_wait_hook(ctx, 0.0)
            self._bind(ctx, self._choose_vgpu(ctx, idle))
            return
        ctx.state = ContextState.WAITING
        ev = Event(self.env)
        self._waiting_events[ctx] = ev
        self._enqueued_at[ctx] = self.env.now
        if front:
            self._waiting.insert(0, ctx)
        else:
            self._waiting.append(ctx)
        if self.obs.enabled:
            self.obs.queue_depth("waiting_contexts", len(self._waiting))
        self.waiting_added.notify_all()
        # A vGPU may be idle while waiters exist (policy reordering);
        # try a grant round before blocking.
        self._grant_waiting()
        span = getattr(ctx, "span", None)
        if span is not None:
            span.push("bind_wait")
        try:
            yield ev
        finally:
            if span is not None:
                span.pop()
        assert ctx.bound

    def release(self, ctx: Context, reason: str = "") -> None:
        """Unbind ``ctx`` from its vGPU and serve the next waiter."""
        vgpu = ctx.vgpu
        if vgpu is None:
            return
        vgpu.unbind(ctx, reason)
        if ctx.state is ContextState.ASSIGNED:
            ctx.state = ContextState.PENDING
        self.stats.unbindings += 1
        self._grant_waiting()
        if vgpu.idle and not self._waiting:
            for hook in self.idle_hooks:
                hook(vgpu)

    def cancel_wait(self, ctx: Context) -> None:
        """Remove a context from the waiting list (exit while queued)."""
        if ctx in self._waiting:
            self._waiting.remove(ctx)
            self._waiting_events.pop(ctx, None)
            self._enqueued_at.pop(ctx, None)
            if self.obs.enabled:
                self.obs.queue_depth("waiting_contexts", len(self._waiting))

    # ------------------------------------------------------------------
    def _choose_vgpu(self, ctx: Context, idle: List[VirtualGPU]) -> VirtualGPU:
        """Placement: the cost model's cheapest candidate when wired, else
        keep active vGPU counts uniform across devices (the paper's load
        balancing), avoid devices that cannot hold the context's data
        right now, then favour faster devices."""
        mem_needed = self.mem_needed_fn(ctx)
        active = self.active_per_device()
        if self.cost_model is not None:
            scored = self.cost_model.score_candidates(ctx, idle, active, mem_needed)
            if scored:
                chosen, _cost = min(
                    scored,
                    key=lambda s: (s[1], s[0].device.device_id, s[0].index),
                )
                if self.obs.enabled:
                    self.obs.binding_decision(ctx, chosen, scored)
                return chosen

        def key(vgpu: VirtualGPU):
            device = vgpu.device
            memory_short = 1 if device.allocator.free_bytes < mem_needed else 0
            # Load per unit of compute: on homogeneous devices this is the
            # paper's uniform-active-vGPU balancing; on heterogeneous
            # nodes it avoids oversubscribing the slow GPU.
            load = active.get(device.device_id, 0)
            weighted_load = (load + 1) / device.spec.effective_gflops
            return (
                memory_short,
                weighted_load,
                -device.spec.effective_gflops,
                device.device_id,
                vgpu.index,
            )

        return min(idle, key=key)

    def _bind(self, ctx: Context, vgpu: VirtualGPU) -> None:
        vgpu.bind(ctx)
        ctx.state = ContextState.ASSIGNED
        self.stats.bindings += 1

    def _grant_waiting(self) -> None:
        while self._waiting:
            idle = self.idle_vgpus()
            if not idle:
                return
            # Serve in policy order, skipping contexts whose device
            # affinity (CUDA 4.0 sibling constraint) cannot currently be
            # satisfied — they must not block unconstrained waiters.
            candidates = list(self._waiting)
            granted = False
            while candidates:
                ctx = self.policy.pick_next(candidates, self.policy_context)
                if self._share_capped(ctx):
                    # Tenant at its vGPU share: like an unsatisfiable
                    # affinity, it must not block other waiters.
                    candidates.remove(ctx)
                    continue
                usable = self._satisfying_idle(ctx, idle)
                if usable:
                    self._waiting.remove(ctx)
                    ev = self._waiting_events.pop(ctx)
                    enqueued = self._enqueued_at.pop(ctx, self.env.now)
                    self._queue_wait.observe(self.env.now - enqueued)
                    if self.queue_wait_hook is not None:
                        self.queue_wait_hook(ctx, self.env.now - enqueued)
                    if self.obs.enabled:
                        self.obs.queue_depth("waiting_contexts", len(self._waiting))
                    self._bind(ctx, self._choose_vgpu(ctx, usable))
                    ev.succeed()
                    granted = True
                    break
                candidates.remove(ctx)
            if not granted:
                return
