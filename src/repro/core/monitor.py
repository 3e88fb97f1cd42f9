"""Runtime monitoring: the node snapshot a cluster scheduler polls.

The paper's dispatcher "may expose some information to the cluster-level
scheduler (e.g.: number of GPUs, load level, etc.) so as to guide the
cluster-level scheduling decisions" (§2).  :func:`node_report` is that
introspection surface: vGPU occupancy, queue lengths, memory state,
tenant and SLO rollups and the metrics snapshot, taken on demand.
"""

from __future__ import annotations

from typing import Dict

from repro.core.runtime import NodeRuntime

__all__ = ["node_report"]


def node_report(runtime: NodeRuntime) -> Dict[str, object]:
    """Instantaneous node summary (what the runtime would expose to a
    GPU-aware cluster scheduler)."""
    devices = runtime.driver.devices
    return {
        "node": runtime.name,
        "gpus": len(devices),
        "gpu_names": [d.name for d in devices],
        "vgpus_total": runtime.scheduler.total_vgpus,
        "vgpus_active": sum(runtime.scheduler.active_per_device().values()),
        "waiting": runtime.scheduler.waiting_count,
        "pending_connections": runtime.connections.pending_count,
        "load_per_vgpu": runtime.load_per_vgpu(),
        "free_memory_bytes": {d.device_id: d.free_memory for d in devices},
        "swap_used_bytes": runtime.memory.swap.used_bytes,
        "tenants": runtime.qos.rollup(runtime.memory.page_table),
        "slo": runtime.slo.rollup(),
        "metrics": runtime.metrics.snapshot(),
    }
