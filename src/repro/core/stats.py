"""Runtime statistics.

Every figure in the paper annotates bars with operation counts (swap
operations in Figures 7/8, migrations in Figure 9); these counters are
their source in the reproduction.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

__all__ = ["RuntimeStats"]


@dataclasses.dataclass
class RuntimeStats:
    """Counters accumulated by one NodeRuntime."""

    connections_accepted: int = 0
    calls_served: int = 0
    kernels_launched: int = 0
    #: Intra-application swap-outs (single PTE evicted to make room for
    #: the same application's kernel).
    swaps_intra: int = 0
    #: Inter-application swap operations (a victim application's entire
    #: device state written back and the victim unbound).
    swaps_inter: int = 0
    #: PTE-granularity device→host write-backs performed by swaps.
    swap_bytes_out: int = 0
    swap_bytes_in: int = 0
    #: Launch attempts that found no memory and no victim (unbind+retry).
    swap_retries: int = 0
    #: Device-wide partial evictions (eviction_mode="partial"): loop
    #: invocations, bytes of device memory they freed, and dirty bytes
    #: they had to write back to free them.
    evictions_partial: int = 0
    eviction_bytes_freed: int = 0
    eviction_writeback_bytes: int = 0
    #: Job migrations between devices (dynamic binding, Figure 9).
    migrations: int = 0
    #: Migrations that used direct GPU-to-GPU transfers (CUDA 4.0, §4.8).
    migrations_p2p: int = 0
    p2p_bytes: int = 0
    #: Connections redirected to peer nodes (§4.7).
    offloads_out: int = 0
    offloads_in: int = 0
    #: Contexts recovered after device failure.
    failures_recovered: int = 0
    #: Kernel launches replayed during recovery.
    replayed_kernels: int = 0
    checkpoints: int = 0
    #: cudaMemcpy H2D calls intercepted vs bulk transfers actually issued
    #: to the device (the coalescing benefit of §4.5).
    h2d_requests: int = 0
    h2d_device_transfers: int = 0
    d2h_requests: int = 0
    #: Entries staged onto the device during CPU phases by the overlap
    #: engine's prefetch hook, and how many of them the next launch
    #: actually referenced (a hit saves that launch one bulk transfer).
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    prefetch_bytes: int = 0
    #: Bad calls detected in the runtime without touching the GPU.
    bad_calls_detected: int = 0
    #: Bindings performed (context granted a vGPU).
    bindings: int = 0
    unbindings: int = 0
    #: Multi-tenant QoS (repro.qos): handshakes queued by admission
    #: control, quantum-expiry preemptions, and evictions of a tenant's
    #: own entries to honor its device-memory quota.
    admission_queued: int = 0
    preemptions: int = 0
    quota_evictions: int = 0
    quota_eviction_bytes: int = 0
    #: Locality-aware binding (§4.4 cost model): rebinds that found the
    #: retained working set resident (and the fault-in bytes they
    #: avoided), plus retained caches reclaimed to relieve another
    #: context's memory pressure (and the bytes those reclaims freed).
    locality_hits: int = 0
    locality_bytes_avoided: int = 0
    locality_reclaims: int = 0
    locality_reclaim_bytes: int = 0
    #: Control-plane batching: batch frames executed and the calls they
    #: carried (ratio = average batch size actually achieved).
    batches_submitted: int = 0
    batched_calls: int = 0
    #: CUDA-Graph-style replay: graphs instantiated (explicit capture or
    #: journal auto-detection), whole-graph replays, kernels those
    #: replays issued, and replays that found their cached translations
    #: stale (a journaled buffer moved between replays).
    graphs_instantiated: int = 0
    graph_replays: int = 0
    graph_replayed_kernels: int = 0
    graphs_invalidated: int = 0

    @property
    def swaps_total(self) -> int:
        """The per-bar swap count reported in Figures 7 and 8."""
        return self.swaps_intra + self.swaps_inter

    def as_dict(self) -> Dict[str, int]:
        d = dataclasses.asdict(self)
        d["swaps_total"] = self.swaps_total
        return d
