"""Transfer-cost model for locality-aware dynamic binding (§4.4).

Dynamic binding lets the runtime rebind a context to *any* vGPU between
kernel calls — but a rebinding that lands on the "wrong" device silently
pays the full fault-in of the context's working set through the swap
area.  :class:`TransferCostModel` makes that cost explicit: for any
``(ctx, vGPU)`` pair it estimates the *time to first kernel* —

- bytes of the context's journaled working set already resident on the
  candidate device (per-device residency accounting in the page table,
  chunk-aware) versus bytes that must fault in over the slower of PCIe
  and the swap area's host-memcpy bandwidth;
- the expected queue/execution wait from contexts already active on the
  device (an EWMA of observed kernel work stands in for a profile);
- the write-back cost of evicting victims when the candidate device
  lacks free memory, weighted by how dirty its resident data is;
- a fixed sticky-affinity hysteresis (``MIGRATION_PENALTY_S``)
  charged to any candidate off the context's affinity device, so two
  near-equal devices do not ping-pong the context (and its cache).

The same model prices migrations (modeled benefit must exceed modeled
transfer cost) and re-faults for the ``cost_aware`` partial-eviction
policy, so placement, migration and eviction all see one consistent
notion of what a byte of data movement costs.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Tuple

from repro.simcuda import timing

__all__ = ["TransferCostModel"]

#: Weight of the newest observation in the kernel-work EWMA.
_EWMA_ALPHA = 0.25

#: Sticky-affinity hysteresis: the modeled extra cost charged to binding
#: or migrating a context away from the device holding its residency
#: cache.  Prevents ping-pong when two devices score nearly equal.
MIGRATION_PENALTY_S = 0.02


class TransferCostModel:
    """Estimates data-movement and queueing costs for binding decisions.

    Pure with respect to simulation state: every method only *reads* the
    page table, allocators and scheduler — scoring a candidate never
    advances the clock or mutates an entry.
    """

    def __init__(self, page_table: Any, swap: Any, scheduler: Any):
        self.page_table = page_table
        self.swap = swap
        self.scheduler = scheduler
        #: EWMA of per-launch kernel work (flops) observed node-wide.
        self._ewma_flops = 0.0
        # Memoized whole-table aggregates, valid for exactly one page
        # table residency epoch: any PTE state transition or entry
        # create/remove bumps the epoch and flushes them.
        self._memo_epoch = -1
        self._ws_cache: dict = {}
        self._split_cache: dict = {}
        self._dirty_frac_cache: dict = {}

    def _sync_memo(self) -> None:
        # Tables without an epoch (test doubles) get no memoization.
        epoch = getattr(self.page_table, "epoch", None)
        if epoch != self._memo_epoch or epoch is None:
            self._memo_epoch = epoch
            self._ws_cache.clear()
            self._split_cache.clear()
            self._dirty_frac_cache.clear()

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def observe_kernel(self, flops: float) -> None:
        """Feed one executed launch's work into the EWMA."""
        if flops <= 0:
            return
        if self._ewma_flops == 0.0:
            self._ewma_flops = flops
        else:
            self._ewma_flops += _EWMA_ALPHA * (flops - self._ewma_flops)

    # ------------------------------------------------------------------
    # working set and residency
    # ------------------------------------------------------------------
    def working_set(self, ctx: Any) -> List[Any]:
        """Predicted next-launch entries: the journaled last-launch
        working set when available (kernels overwhelmingly iterate on the
        same buffers), else everything the context allocated.

        Memoized per residency epoch; treat the returned list as
        read-only."""
        self._sync_memo()
        vptrs = ctx.last_launch_vptrs
        key = (id(ctx), tuple(vptrs) if vptrs else None)
        ws = self._ws_cache.get(key)
        if ws is None:
            ws = self._working_set_uncached(ctx)
            self._ws_cache[key] = ws
        return ws

    def _working_set_uncached(self, ctx: Any) -> List[Any]:
        entries = self.page_table.entries_for(ctx)
        if ctx.last_launch_vptrs:
            wanted = set(ctx.last_launch_vptrs)
            chosen = [p for p in entries if p.virtual_ptr in wanted]
            if chosen:
                return chosen
        return entries

    @staticmethod
    def _transfer_bw(device: Any, swap: Any) -> float:
        """A fault-in streams swap → host staging → PCIe; the slower leg
        bounds throughput."""
        return min(device.spec.pcie_gbps * 1e9, swap.host_memcpy_bps)

    def _resident_split(
        self, ws: List[Any], device: Any
    ) -> Tuple[int, int, int]:
        """(total, resident-on-device, bytes-needing-device-allocation)
        over the working set, chunk-aware.

        Memoized per residency epoch, keyed by the working-set list's
        identity — safe because the lists themselves come from the
        epoch-scoped ``working_set`` cache."""
        self._sync_memo()
        key = (id(ws), device.device_id)
        cached = self._split_cache.get(key)
        if cached is not None:
            return cached
        total = resident = need_alloc = 0
        for p in ws:
            total += p.size
            if p.is_allocated and p.device_id == device.device_id:
                resident += p.size - p.fault_bytes()
            else:
                need_alloc += p.size
        result = (total, resident, need_alloc)
        self._split_cache[key] = result
        return result

    def _affinity_device(self, ctx: Any) -> Optional[Any]:
        """The device the context's data gravity points at: the vGPU
        holding its residency cache, or its current binding."""
        vgpu = ctx.cache_vgpu if ctx.cache_vgpu is not None else ctx.vgpu
        if vgpu is None or vgpu.device.failed:
            return None
        return vgpu.device

    def _device_dirty_fraction(self, device: Any) -> float:
        """How dirty the device's resident data is — the expected
        write-back bytes per byte a victim eviction frees.

        O(all PTEs) to compute, so memoized per residency epoch — the
        dominant saving when score_candidates prices every device on
        every binding decision."""
        self._sync_memo()
        cached = self._dirty_frac_cache.get(device.device_id)
        if cached is not None:
            return cached
        allocated = dirty = 0
        for ctx in self.page_table.contexts():
            for p in self.page_table.entries_for(ctx):
                if p.is_allocated and p.device_id == device.device_id:
                    allocated += p.size
                    dirty += p.dirty_bytes()
        frac = dirty / allocated if allocated else 0.0
        self._dirty_frac_cache[device.device_id] = frac
        return frac

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind_cost(
        self,
        ctx: Any,
        vgpu: Any,
        active_per_device: Optional[dict] = None,
    ) -> float:
        """Modeled time-to-first-kernel for binding ``ctx`` to ``vgpu``."""
        device = vgpu.device
        ws = self.working_set(ctx)
        total, resident, need_alloc = self._resident_split(ws, device)
        # Residency cached on a *different* vGPU's CUDA context cannot be
        # revived by this binding — the pointers belong to that context
        # and would be dropped, so the whole working set faults in.
        owner = ctx.cache_vgpu if ctx.cache_vgpu is not None else ctx.vgpu
        if resident and owner is not vgpu:
            need_alloc += total - need_alloc
            resident = 0
        bw = self._transfer_bw(device, self.swap)
        cost = 0.0
        missing = max(0, total - resident)
        if missing:
            cost += timing.COPY_LATENCY_SECONDS + missing / bw
        # Queue wait + first-kernel execution from the EWMA work profile:
        # contexts already active on the device share its exec engine.
        if self._ewma_flops:
            if active_per_device is None:
                active_per_device = self.scheduler.active_per_device()
            active = active_per_device.get(device.device_id, 0)
            per_kernel_s = self._ewma_flops / (device.spec.effective_gflops * 1e9)
            cost += (active + 1) * per_kernel_s
        # Eviction pressure: bytes this binding must displace, each
        # costing a write-back of the device's expected dirty share plus
        # the victim's eventual re-fault is not ours to pay — count only
        # the write-back leg.
        overflow = max(0, need_alloc - device.allocator.free_bytes)
        if overflow:
            cost += overflow * self._device_dirty_fraction(device) / bw
        # Sticky-affinity hysteresis against ping-pong.
        affinity = self._affinity_device(ctx)
        if affinity is not None and device is not affinity:
            cost += MIGRATION_PENALTY_S
        return cost

    def score_candidates(
        self,
        ctx: Any,
        vgpus: Iterable[Any],
        active_per_device: Optional[dict] = None,
    ) -> List[Tuple[Any, float]]:
        """(vgpu, modeled cost) for every candidate, for BindingDecision
        tracing and min-cost selection."""
        if active_per_device is None:
            active_per_device = self.scheduler.active_per_device()
        return [(v, self.bind_cost(ctx, v, active_per_device)) for v in vgpus]

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def _remaining_flops(self, ctx: Any, src_device: Any) -> float:
        """Work the context still has: the SJF profiling hint when
        present, else the node-wide EWMA (one more typical kernel)."""
        if ctx.estimated_gpu_seconds is not None:
            remaining_s = max(0.0, ctx.estimated_gpu_seconds - ctx.gpu_seconds_used)
            return remaining_s * src_device.spec.effective_gflops * 1e9
        return self._ewma_flops

    def migration_gain_s(self, ctx: Any, src_device: Any, dst_device: Any) -> float:
        """Modeled seconds saved by running the remaining work on ``dst``
        instead of ``src`` (negative when ``dst`` is slower)."""
        flops = self._remaining_flops(ctx, src_device)
        if flops <= 0:
            return 0.0
        src_bps = src_device.spec.effective_gflops * 1e9
        dst_bps = dst_device.spec.effective_gflops * 1e9
        return flops / src_bps - flops / dst_bps

    def migration_cost_s(self, ctx: Any, dst_device: Any) -> float:
        """Modeled cost of moving the context's device state to ``dst``:
        write back what is dirty on the source, re-fault what was valid
        on the destination, plus the sticky-affinity penalty."""
        src_device = ctx.vgpu.device if ctx.vgpu is not None else None
        dirty = valid = 0
        for p in self.page_table.entries_for(ctx):
            if p.is_allocated:
                dirty += p.dirty_bytes()
                valid += p.valid_bytes()
        cost = MIGRATION_PENALTY_S
        if dirty and src_device is not None:
            cost += (
                timing.COPY_LATENCY_SECONDS
                + dirty / self._transfer_bw(src_device, self.swap)
            )
        if valid:
            cost += (
                timing.COPY_LATENCY_SECONDS
                + valid / self._transfer_bw(dst_device, self.swap)
            )
        return cost

    def migration_worthwhile(self, ctx: Any, dst_device: Any) -> bool:
        """Gate for the migration manager: modeled benefit must exceed
        modeled transfer cost."""
        if ctx.vgpu is None:
            return True
        src_device = ctx.vgpu.device
        return self.migration_gain_s(ctx, src_device, dst_device) > (
            self.migration_cost_s(ctx, dst_device)
        )

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evict_cost(self, ctx: Any, pte: Any, now: float) -> float:
        """Modeled cost of evicting one entry: its dirty write-back now,
        plus the expected re-fault of its valid data later — discounted
        by how long the entry has gone unreferenced (stale data is
        unlikely to be needed again soon)."""
        device = ctx.vgpu.device if ctx.vgpu is not None else None
        if device is None and ctx.cache_vgpu is not None:
            device = ctx.cache_vgpu.device
        if device is None:
            return 0.0
        bw = self._transfer_bw(device, self.swap)
        writeback_s = pte.dirty_bytes() / bw
        refault_s = pte.valid_bytes() / bw
        age = max(0.0, now - pte.last_use)
        return writeback_s + refault_s / (1.0 + age)
