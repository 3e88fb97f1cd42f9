"""Admission control at the dispatcher's front door.

The paper's connection manager accepts every connection and lets the
waiting list grow without bound; the first overloaded tenant then
degrades everyone.  With QoS on, the admission controller bounds each
tenant's concurrent contexts (``Tenant.max_concurrent_contexts``): a
handshake over the cap blocks until one of the tenant's slots frees —
backpressure the application feels as a slow ``open()``, not an error.

Admission happens at the handshake (where tenant identity first becomes
known) inside ``Dispatcher._serve_connection``'s call loop; the slot is
returned at application exit.
"""

from __future__ import annotations

from typing import Any, Generator, List

from repro.sim import Condition, Environment

from repro.core.config import RuntimeConfig
from repro.core.stats import RuntimeStats
from repro.obs.events import TenantAdmission
from repro.qos.tenant import Tenant, TenantRegistry

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounds admitted contexts per tenant."""

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

    def tenant_admitted(self, tenant: Tenant) -> int:
        return sum(1 for c in self._admitted if getattr(c, "tenant", None) is tenant)

    # ------------------------------------------------------------------
    def _at_cap(self, tenant: Tenant) -> bool:
        cap = tenant.max_concurrent_contexts
        return cap is not None and self.tenant_admitted(tenant) >= cap

    def admit(self, ctx: Any) -> Generator:
        """Admit ``ctx``, blocking while its tenant is at its context
        cap.  No-op when QoS is disabled or the context has no tenant.
        """
        tenant = getattr(ctx, "tenant", None)
        if not self.config.qos_enabled or tenant is None:
            return
        requested_at = self.env.now
        if not self._at_cap(tenant):
            self._admitted.append(ctx)
            self._observe(ctx, tenant, "admitted", 0.0)
            return
        self.stats.admission_queued += 1
        self._observe(ctx, tenant, "queued", 0.0)
        while True:
            yield self._released.wait()
            if not self._at_cap(tenant):
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
