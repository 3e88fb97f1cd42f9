"""Admission control at the dispatcher's front door.

The paper's connection manager accepts every connection and lets the
waiting list grow without bound; the first overloaded tenant then
degrades everyone.  The admission controller bounds what gets *in*:

- per-tenant concurrent contexts (``Tenant.max_concurrent_contexts``);
- node-wide concurrent contexts (``RuntimeConfig.admission_max_contexts``);
- node-wide admitted footprint, summing the ``estimated_bytes`` hints
  declared in the handshake (``RuntimeConfig.admission_max_footprint_bytes``).

Two modes (``RuntimeConfig.admission_mode``):

``"queue"`` (default)
    The handshake blocks until a slot frees — backpressure the
    application feels as a slow ``open()``, not an error.
``"reject"``
    The handshake fails immediately with a typed
    ``ADMISSION_REJECTED`` error marshalled back over the RPC, so the
    application (or the cluster scheduler above it) can retry elsewhere
    instead of camping on an unbounded backlog.

Admission happens at the handshake (where tenant identity first becomes
known) inside ``Dispatcher._serve_connection``'s call loop; the slot is
returned at application exit.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.sim import Condition, Environment

from repro.core.config import RuntimeConfig
from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.stats import RuntimeStats
from repro.obs.events import TenantAdmission
from repro.qos.tenant import Tenant, TenantRegistry

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounds admitted contexts per tenant and node-wide."""

    def __init__(
        self,
        env: Environment,
        config: RuntimeConfig,
        registry: TenantRegistry,
        stats: Optional[RuntimeStats] = None,
        obs: Any = None,
    ):
        self.env = env
        self.config = config
        self.registry = registry
        self.stats = stats or RuntimeStats()
        self.obs = obs
        #: Contexts currently holding an admission slot.
        self._admitted: List[Any] = []
        #: Fired on every slot release; queued handshakes re-check.
        self._released = Condition(env)

    # ------------------------------------------------------------------
    @property
    def admitted_count(self) -> int:
        return len(self._admitted)

    def admitted_footprint(self) -> int:
        """Sum of the declared ``estimated_bytes`` hints of admitted
        contexts (undeclared contexts count zero — the hint is advisory,
        quotas are the enforcement layer)."""
        return sum(getattr(c, "estimated_bytes", None) or 0 for c in self._admitted)

    def tenant_admitted(self, tenant: Tenant) -> int:
        return sum(1 for c in self._admitted if getattr(c, "tenant", None) is tenant)

    # ------------------------------------------------------------------
    def _refusal(self, ctx: Any, tenant: Tenant) -> Optional[str]:
        """Why ``ctx`` cannot be admitted right now (None = admissible)."""
        cap = tenant.max_concurrent_contexts
        if cap is not None and self.tenant_admitted(tenant) >= cap:
            return f"tenant {tenant.name!r} at its {cap}-context cap"
        node_cap = self.config.admission_max_contexts
        if node_cap is not None and len(self._admitted) >= node_cap:
            return f"node at its {node_cap}-context cap"
        budget = self.config.admission_max_footprint_bytes
        if budget is not None:
            estimated = getattr(ctx, "estimated_bytes", None) or 0
            if self.admitted_footprint() + estimated > budget:
                return (
                    f"admitted footprint would exceed {budget} bytes"
                )
        return None

    def admit(self, ctx: Any) -> Generator:
        """Admit ``ctx`` (blocking in queue mode), or raise
        :class:`RuntimeApiError` with ``ADMISSION_REJECTED`` in reject
        mode.  No-op when QoS is disabled or the context has no tenant.
        """
        tenant = getattr(ctx, "tenant", None)
        if not self.config.qos_enabled or tenant is None:
            return
        requested_at = self.env.now
        reason = self._refusal(ctx, tenant)
        if reason is None:
            self._admitted.append(ctx)
            self._observe(ctx, tenant, "admitted", 0.0)
            return
        if self.config.admission_mode == "reject":
            self.stats.admission_rejects += 1
            tenant.admission_rejects += 1
            self._observe(ctx, tenant, "rejected", 0.0)
            raise RuntimeApiError(
                RuntimeErrorCode.ADMISSION_REJECTED,
                f"{ctx.owner}: {reason}",
            )
        # Queue mode: backpressure through the handshake.
        self.stats.admission_queued += 1
        self._observe(ctx, tenant, "queued", 0.0)
        while True:
            yield self._released.wait()
            if self._refusal(ctx, tenant) is None:
                break
        self._admitted.append(ctx)
        self._observe(ctx, tenant, "admitted", self.env.now - requested_at)

    def release(self, ctx: Any) -> None:
        """Return ``ctx``'s slot (idempotent); wakes queued handshakes."""
        if ctx in self._admitted:
            self._admitted.remove(ctx)
            self._released.notify_all()

    # ------------------------------------------------------------------
    def _observe(self, ctx: Any, tenant: Tenant, decision: str, waited_s: float) -> None:
        if self.obs is not None and getattr(self.obs, "enabled", False):
            self.obs.record(
                TenantAdmission, ctx, tenant=tenant.name, decision=decision, waited_s=waited_s
            )
