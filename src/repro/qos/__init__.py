"""Multi-tenant QoS: tenant identity, admission control, quotas and
preemptive time-slicing (the resource-governance layer the paper's §2
"quality of service requirements" calls for).

- :mod:`repro.qos.tenant` — :class:`Tenant` contracts (weight, quotas,
  vGPU share) and the per-node :class:`TenantRegistry`;
- :mod:`repro.qos.admission` — the :class:`AdmissionController` queueing
  handshakes over a tenant's concurrent-context cap.

Enforcement lives where the resources live: quota checks in the memory
manager, the vGPU-share gate in the scheduler, quantum preemption in the
dispatcher, and the ``wfq`` ordering in :mod:`repro.core.policies`.
Everything is gated on ``RuntimeConfig.qos_enabled`` (plus
``vgpu_quantum_s`` for time-slicing) and fully inert by default.
"""

from repro.qos.admission import AdmissionController
from repro.qos.tenant import Tenant, TenantRegistry

__all__ = ["AdmissionController", "Tenant", "TenantRegistry"]
