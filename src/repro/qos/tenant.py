"""Tenant identity and the per-node tenant registry.

The paper's runtime time-shares GPUs between *applications*; production
multi-tenancy needs one more level: the **tenant** that owns a group of
application threads and against which resource limits are expressed
(§2's "quality of service requirements").  A :class:`Tenant` carries the
QoS contract — scheduling weight, device-memory and swap quotas, a vGPU
share and an optional deadline class — plus the live counters the
weighted-fair policy and the monitoring rollup read.

Tenants are node-side configuration: the operator registers them on the
runtime's :class:`TenantRegistry` (or lets them default-register on
first connection with no limits), and the frontend handshake names the
tenant a connection belongs to.  Resource usage is computed on demand
from the page table over the tenant's live contexts rather than
incrementally — swap, eviction, failure-recovery and free paths all move
bytes, and a derived view cannot drift.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = ["Tenant", "TenantRegistry"]


class Tenant:
    """One tenant's QoS contract and live accounting.

    Attributes
    ----------
    weight:
        Share of GPU time under the ``wfq`` scheduling policy: a tenant's
        accumulated GPU seconds are normalized by this weight, so a
        weight-2 tenant receives twice the GPU time of a weight-1 tenant
        under contention.
    device_quota_bytes:
        Cap on the tenant's *resident* device memory across all of its
        contexts.  Soft at the working-set level: a launch over quota
        first evicts the tenant's own least-recently-used entries; if the
        launch's working set alone exceeds the quota it still runs (the
        kernel could not otherwise make progress).
    swap_quota_bytes:
        Cap on the tenant's total allocations (every allocation is swap
        backed); ``cudaMalloc`` beyond it fails with
        ``TENANT_QUOTA_EXCEEDED``.
    vgpu_share:
        Fraction of the node's vGPUs the tenant may hold concurrently
        (rounded up to at least one), enforced at binding time.
    max_concurrent_contexts:
        Admission-control cap on simultaneously admitted connections.
    deadline_class:
        Free-form QoS class label (e.g. ``"batch"``/``"interactive"``),
        surfaced in the monitoring rollup for cluster-level schedulers.
    group:
        Share group this tenant belongs to (production traces: the
        user's department/team).  The ``fairshare`` policy equalizes
        GPU time across groups before users, and the runtime estimator
        falls back to group history for cold-start users.  ``None``
        keeps the tenant flat (no group level).
    """

    def __init__(
        self,
        name: str,
        weight: float = 1.0,
        device_quota_bytes: Optional[int] = None,
        swap_quota_bytes: Optional[int] = None,
        vgpu_share: Optional[float] = None,
        max_concurrent_contexts: Optional[int] = None,
        deadline_class: Optional[str] = None,
        group: Optional[str] = None,
    ):
        if not name:
            raise ValueError("a tenant needs a name")
        if weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {weight}")
        if vgpu_share is not None and not 0 < vgpu_share <= 1:
            raise ValueError(f"vgpu_share must be in (0, 1], got {vgpu_share}")
        self.name = name
        self.weight = weight
        self.group = group
        self.device_quota_bytes = device_quota_bytes
        self.swap_quota_bytes = swap_quota_bytes
        self.vgpu_share = vgpu_share
        self.max_concurrent_contexts = max_concurrent_contexts
        self.deadline_class = deadline_class
        #: Live (connected, not yet exited) contexts of this tenant.
        self.contexts: List[Any] = []
        #: GPU seconds consumed across all contexts ever (wfq input).
        self.gpu_seconds_used = 0.0
        #: Times a context of this tenant was preempted at quantum expiry.
        self.preemptions = 0
        #: Cumulative swap traffic across all contexts ever (the derived
        #: ``swap_bytes`` view covers only *live* allocations; rollups
        #: and the per-tenant gauges want total data moved).
        self.swap_bytes_out_total = 0
        self.swap_bytes_in_total = 0

    # ------------------------------------------------------------------
    def attach(self, ctx: Any) -> None:
        if ctx not in self.contexts:
            self.contexts.append(ctx)

    def detach(self, ctx: Any) -> None:
        if ctx in self.contexts:
            self.contexts.remove(ctx)

    # ------------------------------------------------------------------
    def device_bytes(self, page_table: Any) -> int:
        """Resident device memory across the tenant's live contexts,
        summed from the page table on each call (never incrementally
        maintained, so it cannot drift)."""
        return sum(page_table.allocated_bytes(c) for c in self.contexts)

    def swap_bytes(self, page_table: Any) -> int:
        """Swap-backed allocation bytes across the tenant's live
        contexts, summed from the page table on each call."""
        return sum(
            p.size
            for c in self.contexts
            for p in page_table.entries_for(c)
            if p.swap_ptr is not None
        )

    def __repr__(self) -> str:
        return (
            f"<Tenant {self.name!r} weight={self.weight} "
            f"contexts={len(self.contexts)} gpu_s={self.gpu_seconds_used:.3f}>"
        )


class TenantRegistry:
    """Per-node tenant table: operator-registered contracts plus
    default-created tenants for connections naming an unknown tenant."""

    def __init__(self) -> None:
        self._tenants: Dict[str, Tenant] = {}
        #: Called with each newly registered tenant (the runtime hooks
        #: per-tenant gauges in here).
        self.on_register: Optional[Callable[[Tenant], None]] = None

    def register(self, tenant: Tenant) -> Tenant:
        if tenant.name in self._tenants:
            raise ValueError(f"tenant {tenant.name!r} already registered")
        self._tenants[tenant.name] = tenant
        if self.on_register is not None:
            self.on_register(tenant)
        return tenant

    def get(self, name: str) -> Optional[Tenant]:
        return self._tenants.get(name)

    def get_or_create(self, name: str, **kwargs) -> Tenant:
        """The handshake path: unknown tenants default-register with no
        limits (weight 1.0), so naming a tenant is never an error."""
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self.register(Tenant(name, **kwargs))
        return tenant

    def tenants(self) -> List[Tenant]:
        return list(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    # ------------------------------------------------------------------
    def rollup(self, page_table: Optional[Any] = None) -> Dict[str, Dict[str, Any]]:
        """Monitoring view for ``node_report()`` (consumed by the
        GPU-aware Torque mode and the cloud manager's dashboard), built
        fresh on each call.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for tenant in self._tenants.values():
            out[tenant.name] = {
                "weight": tenant.weight,
                "group": tenant.group,
                "deadline_class": tenant.deadline_class,
                "contexts": len(tenant.contexts),
                "gpu_seconds": tenant.gpu_seconds_used,
                "device_bytes": (
                    tenant.device_bytes(page_table) if page_table is not None else 0
                ),
                "swap_bytes": (
                    tenant.swap_bytes(page_table) if page_table is not None else 0
                ),
                "device_quota_bytes": tenant.device_quota_bytes,
                "swap_quota_bytes": tenant.swap_quota_bytes,
                "preemptions": tenant.preemptions,
                "swap_bytes_out_total": tenant.swap_bytes_out_total,
                "swap_bytes_in_total": tenant.swap_bytes_in_total,
            }
        return out
