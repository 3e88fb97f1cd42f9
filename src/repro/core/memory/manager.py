"""The memory manager (paper §4.5): virtual memory for GPUs.

Responsibilities, mirroring Table 1 and Figure 4:

``malloc``   create a PTE, allocate swap — no device interaction;
``copy_HD``  validate the PTE, stage data into the swap area (deferred
             mode) or transfer immediately when bound (overlap mode);
``copy_DH``  write back the device copy if it is the authoritative one,
             then serve from swap;
``free``     release swap and (if resident) device memory;
``launch``   the on-demand path: allocate device memory for every entry
             the kernel references — swapping intra-application, then
             inter-application when needed — perform the deferred bulk
             transfers, translate virtual→device pointers, execute;
``swap``     write back + release one entry (intra) or a whole context
             (inter/migration/unbind).

The memory manager also detects badly-written applications (transfers
beyond an allocation's bounds, launches referencing unknown pointers)
*before* they reach the CUDA runtime, and coalesces repeated host→device
copies into one bulk transfer per entry at launch time.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.sim import Condition, Environment, Event
from repro.simcuda.device import GPUDevice
from repro.simcuda.errors import CudaError, CudaRuntimeError
from repro.simcuda.kernels import KernelLaunch

from repro.core.config import RuntimeConfig
from repro.core.context import Context, ContextState
from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.memory.nested import NestedStructure
from repro.core.memory.page_table import EntryType, PageTable, PageTableEntry
from repro.core.memory.swap import SwapArea
from repro.core.stats import RuntimeStats
from repro.obs import (
    BYTES_BUCKETS,
    CheckpointTaken,
    Eviction,
    MetricsRegistry,
    SwapIn,
    SwapOut,
    Tracer,
)

__all__ = ["MemoryManager", "NeedRetry"]


class NeedRetry(Exception):
    """Launch could not obtain device memory and found no swap victim:
    the calling context must unbind and retry later (§4.5)."""

    def __init__(self, required_bytes: int):
        self.required_bytes = required_bytes
        super().__init__(f"need {required_bytes} bytes; no victim available")


class _span_phase:
    """Attribute simulated time spent inside the block to phase ``name``
    of the context's live call span.  No-op between calls and with
    tracing off (``ctx.span`` is None); the launch attempt, the hottest
    path, builds one only when ``ctx.span`` is set.  Only used where
    ``ctx`` is the context *being served* — work done to a victim
    accrues to the requester's phase, never to the victim's span.

    A hand-rolled context manager (not ``@contextmanager``): this sits on
    every launch/copy path, and the generator machinery costs more than
    the phase accounting itself.
    """

    __slots__ = ("span", "name")

    def __init__(self, ctx: Context, name: str):
        self.span = ctx.span
        self.name = name

    def __enter__(self) -> None:
        if self.span is not None:
            self.span.push(self.name)

    def __exit__(self, *exc) -> bool:
        if self.span is not None:
            self.span.pop()
        return False


def _lru_key(candidate: Tuple[Context, PageTableEntry]) -> Tuple[float, int]:
    """Least recently launched entry first, allocation order on ties."""
    pte = candidate[1]
    return pte.last_use, pte.seq


class MemoryManager:
    """Virtual-memory abstraction over the node's GPUs."""

    def __init__(
        self,
        env: Environment,
        config: RuntimeConfig,
        stats: Optional[RuntimeStats] = None,
        obs: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.env = env
        self.config = config
        self.stats = stats or RuntimeStats()
        self.obs = obs if obs is not None else Tracer(env)
        metrics = metrics or MetricsRegistry()
        self._swap_out_bytes = metrics.histogram(
            "swap_out_bytes", "device→host write-back size per swapped entry",
            buckets=BYTES_BUCKETS,
        )
        self._swap_in_bytes = metrics.histogram(
            "swap_in_bytes", "host→device bulk-transfer size per faulted entry",
            buckets=BYTES_BUCKETS,
        )
        self.page_table = PageTable()
        self.swap = SwapArea(config.host_swap_capacity_bytes)
        #: parent virtual ptr -> registration
        self.nested: Dict[int, NestedStructure] = {}
        #: Wired by the runtime: hand a context's vGPU back to the
        #: scheduler (``Scheduler.release``) — the last step of :meth:`unbind`.
        self.release_vgpu: Callable[[Context, str], None] = lambda c, r: None
        #: Wired by the runtime: contexts currently bound to a device.
        self.bound_contexts_on: Callable[[GPUDevice], List[Context]] = lambda d: []
        #: Fired whenever device memory is released anywhere on the node;
        #: contexts blocked in the unbind-and-retry path wake on it
        #: instead of polling.
        self.memory_freed = Condition(env)
        #: Wired by the runtime: the node's healthy devices, consulted to
        #: decide whether a too-large working set could fit *some* GPU
        #: (rebind) or none at all (application error).
        self.devices_fn: Callable[[], List[GPUDevice]] = lambda: []
        #: Overlap engine: per-context barrier events for in-flight
        #: asynchronous write-backs (checkpoints running behind the call
        #: path).  Every consumer of the dirty flags drains these first.
        self._pending_writebacks: Dict[Context, List[Event]] = {}
        #: Wired by the runtime: the node's transfer-cost model
        #: (repro.core.memory.costmodel).  Fed kernel observations from
        #: the launch path; consulted nowhere in this class, so leaving
        #: it unwired changes nothing.
        self.cost_model = None

    # ------------------------------------------------------------------
    # swap-traffic accounting (one helper per direction, so the stats
    # counter, the histogram and the trace event can never disagree)
    # ------------------------------------------------------------------
    def _account_swap_out(self, ctx: Context, nbytes: int) -> None:
        """One device→host write-back of authoritative device data."""
        self.stats.swap_bytes_out += nbytes
        self._swap_out_bytes.observe(nbytes)
        tenant = ctx.tenant
        if tenant is not None:
            tenant.swap_bytes_out_total += nbytes
        if self.obs.enabled:
            self.obs.record(SwapOut, ctx, nbytes=nbytes)

    def _account_swap_in(self, ctx: Context, nbytes: int) -> None:
        """One host→device bulk transfer of authoritative swap data."""
        self.stats.h2d_device_transfers += 1
        self.stats.swap_bytes_in += nbytes
        self._swap_in_bytes.observe(nbytes)
        tenant = ctx.tenant
        if tenant is not None:
            tenant.swap_bytes_in_total += nbytes
        if self.obs.enabled:
            self.obs.record(SwapIn, ctx, nbytes=nbytes)

    def _drain_writebacks(self, ctx: Context) -> Generator:
        """Barrier: wait until every in-flight asynchronous write-back of
        ``ctx`` has landed *and* its bookkeeping has run.  Required before
        reading dirty flags, freeing device memory, or launching.  Only
        overlap mode's :meth:`checkpoint` queues write-backs, so in every
        other mode this returns at once."""
        while self._pending_writebacks.get(ctx):
            yield self._pending_writebacks[ctx][0]

    # ------------------------------------------------------------------
    # the transfer rules every operation below shares
    # ------------------------------------------------------------------
    def _write_back(self, ctx: Context, pte: PageTableEntry) -> Generator:
        """Synchronous write-back of every device-dirty run of ``pte``
        through the bound vGPU; returns the bytes written.  Accounting
        belongs to the write-back, not to a release: a clean entry moves
        no data and observes neither the histogram nor a trace event."""
        written = 0
        for run in pte.writeback_runs():
            yield from ctx.vgpu.memcpy_d2h(pte.device_ptr + run[0], run[1])
            pte.complete_writeback(run)
            self._account_swap_out(ctx, run[1])
            written += run[1]
        return written

    @staticmethod
    def _stage(ctx: Context, ptes: Sequence[PageTableEntry], d2h: bool) -> list:
        """Enqueue every write-back (``d2h``) or fault-in run of ``ptes``
        on the bound vGPU's copy stream before any is awaited, keeping
        the copy engine busy back-to-back; returns ``(pte, run, event)``
        triples for :meth:`_land`."""
        copy = ctx.vgpu.memcpy_d2h_async if d2h else ctx.vgpu.memcpy_h2d_async
        return [
            (pte, run, copy(pte.device_ptr + run[0], run[1]))
            for pte in ptes
            for run in (pte.writeback_runs() if d2h else pte.fault_runs())
        ]

    def _land(
        self, ctx: Context, staged: list, d2h: bool,
        on_land: Optional[Callable[[PageTableEntry, Tuple[int, int]], None]] = None,
    ) -> Generator:
        """Await :meth:`_stage`'d transfers in order, marking and
        accounting each run as it lands (then calling ``on_land``)."""
        for pte, run, ev in staged:
            yield ev
            if d2h:
                pte.complete_writeback(run)
                self._account_swap_out(ctx, run[1])
            else:
                pte.complete_fault(run)
                self._account_swap_in(ctx, run[1])
            if on_land is not None:
                on_land(pte, run)

    def _release_device(self, ctx: Context, pte: PageTableEntry) -> Generator:
        """Free ``pte``'s device memory without write-back; returns
        whether a device free ran.  A retained cache is freed through the
        caching vGPU (the pointer's owner, wherever the context is bound
        now), and simply lost if that device has failed; a bound entry is
        freed on its vGPU, where a failed device raises into recovery."""
        cache = ctx.cache_vgpu
        freed = False
        if cache is not None:
            if cache.cuda_context is not None and not cache.device.failed:
                yield from cache.free(pte.device_ptr)
                freed = True
        else:
            assert ctx.bound, "resident allocation implies a bound context"
            yield from ctx.vgpu.free(pte.device_ptr)
            freed = True
        pte.discard_device_dirty()
        pte.release_device()
        return freed

    @staticmethod
    def _fits(device: GPUDevice, required_bytes: int, min_contiguous: int) -> bool:
        """``device`` has ``required_bytes`` free, in a block of at least
        ``min_contiguous``."""
        allocator = device.allocator
        return (
            allocator.free_bytes >= required_bytes
            and allocator.largest_free_block >= min_contiguous
        )

    # ------------------------------------------------------------------
    # Table 1: Malloc
    # ------------------------------------------------------------------
    def malloc(
        self,
        ctx: Context,
        size: int,
        entry_type: EntryType = EntryType.LINEAR,
        params=None,
    ) -> int:
        """Create a PTE and its swap backing; returns the virtual address.

        No CUDA runtime action is triggered (transfer deferral): device
        memory is allocated on demand at the first kernel launch that
        references the entry.
        """
        if size <= 0:
            raise RuntimeApiError(
                RuntimeErrorCode.SWAP_ALLOCATION_FAILED, f"invalid size {size}"
            )
        tenant = ctx.tenant
        if (
            self.config.qos_enabled
            and tenant is not None
            and tenant.swap_quota_bytes is not None
        ):
            # Every allocation is swap backed, so the swap quota caps the
            # tenant's total footprint at allocation time — before any
            # device or swap-area resource is consumed.
            used = tenant.swap_bytes(self.page_table)
            if used + size > tenant.swap_quota_bytes:
                raise RuntimeApiError(
                    RuntimeErrorCode.TENANT_QUOTA_EXCEEDED,
                    f"tenant {tenant.name!r}: {used} + {size} bytes exceeds "
                    f"the {tenant.swap_quota_bytes}-byte swap quota",
                )
        pte = self.page_table.create_entry(ctx, size, entry_type, params)
        pte.configure_chunks(self.config.swap_chunk_bytes)
        try:
            pte.swap_ptr = self.swap.allocate(size)
        except RuntimeApiError:
            self.page_table.remove_entry(ctx, pte)
            raise
        return pte.virtual_ptr

    # ------------------------------------------------------------------
    # runtime extension: nested-structure registration
    # ------------------------------------------------------------------
    def register_nested(
        self,
        ctx: Context,
        parent_vptr: int,
        member_vptrs: Sequence[int],
        pointer_offsets: Sequence[int],
    ) -> None:
        parent = self.page_table.lookup(ctx, parent_vptr)
        members = [self.page_table.lookup(ctx, v) for v in member_vptrs]
        reg = NestedStructure(parent, members, list(pointer_offsets))
        self.nested[parent_vptr] = reg
        parent.nested = reg
        # A launch naming the parent now reaches its members too.
        self.page_table.translation_epoch += 1

    # ------------------------------------------------------------------
    # Table 1: Copy_HD
    # ------------------------------------------------------------------
    def copy_h2d(self, ctx: Context, vptr: int, nbytes: int) -> Generator:
        """Stage application data; defers the device transfer by default."""
        try:
            pte = self.page_table.lookup(ctx, vptr)
        except RuntimeApiError:
            self.stats.bad_calls_detected += 1
            raise
        if nbytes > pte.size:
            # Bad memory operation caught in the runtime, never reaching
            # the CUDA stack (§4.5).
            self.stats.bad_calls_detected += 1
            raise RuntimeApiError(
                RuntimeErrorCode.SWAP_SIZE_MISMATCH,
                f"copy of {nbytes} bytes into {pte.size}-byte allocation",
            )
        self.stats.h2d_requests += 1
        # An asynchronous write-back may still be reading this entry's
        # device copy into swap; the host overwrite must order after it,
        # or the stale write-back would clobber the fresh data.
        with _span_phase(ctx, "writeback_drain"):
            yield from self._drain_writebacks(ctx)
        with _span_phase(ctx, "fault_in"):
            # Host-side staging into the swap area.
            yield self.env.timeout(self.swap.write_seconds(nbytes))
            pte.host_write(nbytes)
            if (
                not self.config.defer_transfers
                and ctx.bound
                and pte.is_allocated
                and (ctx.cache_vgpu is None or ctx.cache_vgpu is ctx.vgpu)
            ):
                # Overlap mode: push the data now.  (A residency cache held
                # by a *different* vGPU owns the device pointer — that case
                # stays staged and resolves at the next launch's reconcile.)
                # A whole entry pushes exactly the bytes just written, not
                # its one fault run covering the whole allocation.
                for run in pte.fault_runs():
                    yield from ctx.vgpu.memcpy_h2d(
                        pte.device_ptr + run[0], run[1] if pte.chunked else nbytes
                    )
                    pte.complete_fault(run)
                    self.stats.h2d_device_transfers += 1

    # ------------------------------------------------------------------
    # Table 1: Copy_DH
    # ------------------------------------------------------------------
    def copy_d2h(self, ctx: Context, vptr: int, nbytes: int) -> Generator:
        """Serve a device→host read, writing back from the device if the
        device copy is the authoritative one."""
        try:
            pte = self.page_table.lookup(ctx, vptr)
        except RuntimeApiError:
            self.stats.bad_calls_detected += 1
            raise
        if nbytes > pte.size:
            self.stats.bad_calls_detected += 1
            raise RuntimeApiError(
                RuntimeErrorCode.SWAP_SIZE_MISMATCH,
                f"read of {nbytes} bytes from {pte.size}-byte allocation",
            )
        self.stats.d2h_requests += 1
        with _span_phase(ctx, "writeback_drain"):
            # An asynchronous checkpoint may still be writing this data
            # back; the dirty flags are only meaningful once it lands.
            yield from self._drain_writebacks(ctx)
            if pte.to_copy_2swap:
                assert ctx.bound, "dirty device data implies a bound context"
                yield from self._write_back(ctx, pte)
                self._maybe_clear_journal(ctx)
            yield self.env.timeout(self.swap.read_seconds(nbytes))

    # ------------------------------------------------------------------
    # Table 1: Free
    # ------------------------------------------------------------------
    def free(self, ctx: Context, vptr: int) -> Generator:
        try:
            pte = self.page_table.lookup(ctx, vptr)
        except RuntimeApiError:
            self.stats.bad_calls_detected += 1
            raise
        # Never free device memory out from under an in-flight D2H.
        with _span_phase(ctx, "writeback_drain"):
            yield from self._drain_writebacks(ctx)
        if pte.is_allocated:
            yield from self._release_device(ctx, pte)
            self.memory_freed.notify_all()
        if pte.swap_ptr is not None:
            self.swap.release(pte.swap_ptr)
            pte.swap_ptr = None
        self.page_table.remove_entry(ctx, pte)
        self.nested.pop(vptr, None)

    # ------------------------------------------------------------------
    # Table 1: Launch (+ internal Swap)
    # ------------------------------------------------------------------
    def prepare_and_launch(
        self, ctx: Context, launch: KernelLaunch, control_plane: bool = True
    ) -> Generator:
        """Execute one kernel on the context's bound vGPU.

        ``launch`` carries *virtual* pointers; its ``read_only`` is read
        as a set (order and repeats do not matter).  The record itself
        is appended to ``ctx.replay_journal`` — the journal names the
        caller's record, it does not copy it, so records must stay
        immutable (``KernelLaunch`` is frozen).  A launch equal to the
        journal's last record appends that record again instead.

        ``control_plane=False`` marks a launch issued as part of an
        instantiated graph replay: the driver's per-launch control-plane
        charge was already paid (once, for the whole graph).

        Returns the kernel's execution-engine seconds (used for automatic
        checkpointing and credit accounting).

        Raises
        ------
        NeedRetry
            Device memory could not be obtained and no swap victim was
            available; the caller must unbind + retry.
        RuntimeApiError
            The launch references an invalid virtual pointer, or the
            kernel's working set cannot fit the device at all.
        """
        assert ctx.bound, "launch requires a bound context"
        device = ctx.vgpu.device
        # Barrier: pending asynchronous write-backs must land before the
        # dirty flags below are read (and before the kernel can re-dirty
        # the entries being written back).  A traced call enters the
        # phase even when nothing is pending.
        if ctx.span is not None:
            with _span_phase(ctx, "writeback_drain"):
                yield from self._drain_writebacks(ctx)
        elif self._pending_writebacks.get(ctx):
            yield from self._drain_writebacks(ctx)
        if ctx.cache_vgpu is not None:
            # Locality retention (§4.4): revive the residency cache if
            # this binding landed on the caching vGPU, drop it otherwise
            # — before anything below touches device pointers.
            yield from self._reconcile_cache(ctx)

        kernel = launch.kernel
        arg_vptrs = launch.arg_pointers
        cached = ctx.launch_translation
        if (
            cached is not None
            and cached[0] is launch
            and cached[1] == self.page_table.translation_epoch
            and cached[2] is device
            and cached[4].control_plane == control_plane
        ):
            # The context's last launch again, and no translation in the
            # table changed since it ran on this device: the same entries,
            # which passed the size check below, all still resident at the
            # same device pointers.
            ptes, translated = cached[3], cached[4]
            resident = True
        else:
            translated = None
            ptes, working_set, resident = self._resolve_launch_entries(ctx, arg_vptrs)
            if working_set > self._usable_bytes(device):
                # The working set cannot fit *this* device.  If some other
                # healthy GPU could hold it, rebind there (dynamic
                # binding); only when no device on the node can is it the
                # application's error ("the memory footprint of each
                # application fits the most capable GPU" is the paper's §6
                # assumption).
                if any(
                    working_set <= self._usable_bytes(d)
                    for d in self.devices_fn()
                    if not d.failed and d is not device
                ):
                    self.stats.swap_retries += 1
                    raise NeedRetry(working_set)
                raise RuntimeApiError(
                    RuntimeErrorCode.KERNEL_FOOTPRINT_TOO_LARGE,
                    f"kernel {kernel.name!r} needs {working_set} bytes; "
                    f"no device offers that much",
                )

        for pte in ptes:
            if pte.prefetched:
                pte.prefetched = False
                if pte.is_allocated and not pte.to_copy_2dev:
                    # The CPU-phase prefetch staged exactly this entry:
                    # the bulk transfer below is already done.
                    self.stats.prefetch_hits += 1

        if self.config.qos_enabled:
            # Device-memory quota (repro.qos): a launch that would push
            # its tenant over quota evicts the tenant's *own* entries
            # first, before _ensure_resident may pressure other tenants.
            # It evicts nothing the launch references, so ``resident``
            # still holds afterwards.
            with _span_phase(ctx, "eviction_stall"):
                yield from self._enforce_tenant_quota(ctx, ptes)
        # Steady-state guard: with every entry resident _ensure_resident
        # is a strict no-op (it would yield nothing and mutate nothing),
        # so skipping it changes neither timestamps nor event order — it
        # only avoids spinning up a generator frame on the hottest path.
        if not resident:
            yield from self._ensure_resident(ctx, ptes)
        if ctx.span is None:
            yield from self._fault_in(ctx, ptes)
        else:
            with _span_phase(ctx, "fault_in"):
                yield from self._fault_in(ctx, ptes)

        if translated is None:
            # The driver reads no read-only hint, so the translated record
            # carries none; the hint acts below, on the entries' dirty
            # flags.
            translated = KernelLaunch(
                kernel=kernel,
                grid=launch.grid,
                block=launch.block,
                arg_pointers=tuple([p.device_ptr for p in ptes]),
                control_plane=control_plane,
            )
            ctx.launch_translation = (
                launch, self.page_table.translation_epoch, device, ptes, translated
            )
        t0 = self.env.now
        if ctx.span is None:
            yield from ctx.vgpu.launch(translated)
        else:
            with _span_phase(ctx, "exec"):
                yield from ctx.vgpu.launch(translated)
        duration = self.env.now - t0
        if self.cost_model is not None:
            self.cost_model.observe_kernel(kernel.flops)

        now = self.env.now
        read_only = launch.read_only or ()
        for pte in ptes:
            if pte.virtual_ptr in read_only:
                pte.kernel_read(now)
            else:
                pte.kernel_write(now)
        journal = ctx.replay_journal
        if journal and journal[-1] is not launch and journal[-1] == launch:
            # A repeat of the last launch: journal that record again, so
            # a run of identical launches holds one object, not one each.
            launch = journal[-1]
        journal.append(launch)
        ctx.last_launch_vptrs = arg_vptrs
        self.stats.kernels_launched += 1
        ctx.kernels_launched += 1
        ctx.gpu_seconds_used += duration
        ctx.quantum_used_s += duration
        if ctx.tenant is not None:
            ctx.tenant.gpu_seconds_used += duration
        return duration

    def _usable_bytes(self, device: GPUDevice) -> int:
        return (
            device.memory_capacity
            - device.spec.context_reservation_bytes * self.config.vgpus_per_device
        )

    def _resolve_launch_entries(
        self, ctx: Context, arg_vptrs: Sequence[int]
    ) -> Tuple[List[PageTableEntry], int, bool]:
        """Translate launch arguments, expanding nested structures.

        Returns the entries, their total size (the working set) and
        whether every one is device-resident, all in this one pass."""
        ptes: List[PageTableEntry] = []
        seen = set()
        working_set = 0
        resident = True
        for vptr in arg_vptrs:
            try:
                pte = self.page_table.lookup(ctx, vptr)
            except RuntimeApiError:
                self.stats.bad_calls_detected += 1
                raise
            reg = self.nested.get(vptr)
            for p in (pte,) if reg is None else reg.closure():
                if p.virtual_ptr not in seen:
                    seen.add(p.virtual_ptr)
                    ptes.append(p)
                    working_set += p.size
                    if not p.is_allocated:
                        resident = False
        return ptes, working_set, resident

    def _fault_in(self, ctx: Context, ptes: List[PageTableEntry]) -> Generator:
        """Make the resident entries current: the deferred bulk
        transfers, nested-pointer patches and, in overlap mode, the
        copy-stream sync."""
        for pte in ptes:
            if pte.to_copy_2dev:
                yield from self._perform_deferred_transfers(ctx, ptes)
                break
        if self.nested:
            yield from self._patch_nested_parents(ctx, ptes)
        if self.config.overlap_transfers:
            # Kernels bypass the copy stream; make every staged transfer
            # visible before execution (the one sync point of the
            # pipelined launch path).
            yield from ctx.vgpu.synchronize()

    def _ensure_resident(self, ctx: Context, ptes: List[PageTableEntry]) -> Generator:
        """Allocate device memory for every entry, swapping as needed."""
        launch_set = {p.virtual_ptr for p in ptes}
        for pte in ptes:
            while not pte.is_allocated:
                try:
                    if ctx.span is None:
                        address = yield from ctx.vgpu.malloc(pte.size)
                    else:
                        with _span_phase(ctx, "fault_in"):
                            address = yield from ctx.vgpu.malloc(pte.size)
                except CudaRuntimeError as exc:
                    if exc.code != CudaError.cudaErrorMemoryAllocation:
                        raise
                    # Making room on the device — including the victims'
                    # write-backs — is the requester's eviction stall.
                    if ctx.span is None:
                        yield from self._make_room(ctx, ptes, launch_set)
                    else:
                        with _span_phase(ctx, "eviction_stall"):
                            yield from self._make_room(ctx, ptes, launch_set)
                    continue
                pte.allocate_device(address, ctx.vgpu.device.device_id)

    def _make_room(
        self, ctx: Context, ptes: List[PageTableEntry], launch_set: set
    ) -> Generator:
        """Free device memory for the launch's unallocated entries: one
        of the context's own entries outside the launch if intra-swap
        finds one, else another application's (raises NeedRetry when
        neither can)."""
        if self.config.enable_intra_swap:
            if (yield from self._intra_swap_one(ctx, launch_set)):
                return
        unallocated = [p.size for p in ptes if not p.is_allocated]
        yield from self._inter_swap(ctx, sum(unallocated), max(unallocated))

    def _perform_deferred_transfers(
        self, ctx: Context, ptes: List[PageTableEntry]
    ) -> Generator:
        """One bulk H2D per entry whose swap copy is authoritative —
        however many copy_HD calls preceded it (coalescing, §4.5)."""
        if self.config.overlap_transfers:
            # Pipelined, so the copy engine stays busy while other
            # tenants' kernels hold the execution engine.  Chunked entries
            # enqueue one transfer per contiguous run — finer pipelining
            # units for the same total bytes.
            yield from self._land(ctx, self._stage(ctx, ptes, d2h=False), d2h=False)
            return
        for pte in ptes:
            for run in pte.fault_runs():
                yield from ctx.vgpu.memcpy_h2d(pte.device_ptr + run[0], run[1])
                pte.complete_fault(run)
                self._account_swap_in(ctx, run[1])

    def _patch_nested_parents(self, ctx: Context, ptes: List[PageTableEntry]) -> Generator:
        """Rewrite embedded device pointers inside nested parents whose
        members may have moved (consistency of nested structures)."""
        for pte in ptes:
            reg = self.nested.get(pte.virtual_ptr)
            if reg is not None and reg.patch_bytes:
                yield from ctx.vgpu.memcpy_h2d(pte.device_ptr, reg.patch_bytes)

    # ------------------------------------------------------------------
    # swapping
    # ------------------------------------------------------------------
    def _intra_swap_one(self, ctx: Context, launch_set: set) -> Generator:
        """Evict one of the context's own resident entries that the
        current launch does not reference (LRU order).  Returns True if
        an entry was evicted."""
        candidates = [
            p
            for p in self.page_table.entries_for(ctx)
            if p.is_allocated and p.virtual_ptr not in launch_set
        ]
        if not candidates:
            return False
        victim = min(candidates, key=lambda p: (p.last_use, p.seq))
        yield from self._swap_entry(ctx, victim)
        self.stats.swaps_intra += 1
        self._maybe_clear_journal(ctx)
        return True

    def _swap_entry(
        self, ctx: Context, pte: PageTableEntry, notify: bool = True
    ) -> Generator:
        """Table 1 'Swap': write back if dirty, then release device memory.

        ``notify=False`` suppresses the memory-freed wake-up — used when a
        *failed* launch swaps itself out, so that stuck contexts do not
        wake each other in a retry storm.
        """
        # An in-flight asynchronous write-back may target this entry.
        yield from self._drain_writebacks(ctx)
        if pte.to_copy_2swap:
            yield from self._write_back(ctx, pte)
        yield from ctx.vgpu.free(pte.device_ptr)
        pte.release_device()
        pte.prefetched = False
        if notify:
            self.memory_freed.notify_all()

    def _inter_swap(
        self, ctx: Context, required_bytes: int, min_contiguous: int = 0
    ) -> Generator:
        """Ask another application on the same GPU to swap (§4.5).

        A victim must be in a CPU phase with no pending device request,
        hold at least ``required_bytes`` of device memory, and not be
        excluded from sharing.  If none exists (or the feature is off),
        :class:`NeedRetry` propagates to the dispatcher, which unbinds the
        caller and retries later.  Swaps never cascade over multiple
        victims ("to reduce complexity and avoid inefficiencies").
        """
        if self.config.locality_binding:
            # Retained residency caches of unbound contexts are clean by
            # construction — reclaiming them moves no data, so they are
            # always the cheapest memory on the device.  Try them before
            # disturbing any live victim.
            device = ctx.vgpu.device
            yield from self._reclaim_cached(ctx, device, required_bytes,
                                            min_contiguous)
            if self._fits(device, required_bytes, min_contiguous):
                return
        if not self.config.enable_inter_swap:
            self.stats.swap_retries += 1
            raise NeedRetry(required_bytes)
        if self.config.eviction_mode == "partial":
            yield from self._evict_partial(ctx, required_bytes, min_contiguous)
            return
        victim = self.find_swap_victim(ctx.vgpu.device, required_bytes, exclude=ctx)
        if victim is None:
            self.stats.swap_retries += 1
            raise NeedRetry(required_bytes)
        yield victim.lock.acquire()
        try:
            # Re-check under the lock: the victim may have resumed.
            if not self._victim_eligible(victim, ctx.vgpu.device, required_bytes):
                self.stats.swap_retries += 1
                raise NeedRetry(required_bytes)
            yield from self.unbind(victim, "inter-application swap")
            # Counted only once the swap-out succeeded.
            victim.swaps_suffered += 1
            self.stats.swaps_inter += 1
        finally:
            victim.lock.release()

    def find_swap_victim(
        self, device: GPUDevice, required_bytes: int, exclude: Optional[Context] = None
    ) -> Optional[Context]:
        """A single context on ``device`` able to free ``required_bytes``."""
        best: Optional[Context] = None
        for other in self.bound_contexts_on(device):
            if other is exclude:
                continue
            if self._victim_eligible(other, device, required_bytes):
                # Prefer the victim idle the longest: eviction order is a
                # recency decision (the policy layer's LRU default), not
                # an accidental most-allocated-bytes heuristic.
                if best is None or (
                    (other.cpu_phase_since, other.context_id)
                    < (best.cpu_phase_since, best.context_id)
                ):
                    best = other
        return best

    def _victim_context_eligible(self, victim: Context, device: GPUDevice) -> bool:
        """Context-level eligibility shared by whole-context and partial
        eviction: bound here, idle in a CPU phase, willing to share."""
        return (
            victim.bound
            and victim.vgpu.device is device
            and victim.in_cpu_phase
            and not victim.excluded_from_sharing
            and victim.state is ContextState.ASSIGNED
        )

    def _victim_eligible(
        self, victim: Context, device: GPUDevice, required_bytes: int
    ) -> bool:
        return (
            self._victim_context_eligible(victim, device)
            and self.page_table.allocated_bytes(victim) >= required_bytes
        )

    def _evict_partial(
        self, ctx: Context, required_bytes: int, min_contiguous: int = 0
    ) -> Generator:
        """Device-wide eviction loop (eviction_mode="partial"): free only
        the bytes the faulting launch still needs, in
        :meth:`_eviction_order`, across however many eligible victims
        that takes.  Victims stay bound — they lose entries, not
        their vGPU — so a resumed victim simply faults its data back in.

        ``min_contiguous`` is the largest single allocation the requester
        still has to place: freeing bytes is not enough if they land in
        scattered holes, so the loop also runs until the allocator has a
        block that large (whole-context eviction gets this for free by
        clearing everything).
        """
        device = ctx.vgpu.device
        # Memory already free counts toward the requester's need.
        if self._fits(device, required_bytes, min_contiguous):
            return
        candidates = [
            (other, pte)
            for other in self.bound_contexts_on(device)
            if other is not ctx and self._victim_context_eligible(other, device)
            for pte in self.page_table.entries_for(other)
            if pte.is_allocated
        ]
        freed, dirty_written, touched = yield from self._evict_entries(
            ctx,
            self._eviction_order(candidates),
            lambda: self._fits(device, required_bytes, min_contiguous),
            device,
        )
        for victim in touched:
            victim.swaps_suffered += 1
            self.stats.swaps_inter += 1
        if freed == 0:
            self.stats.swap_retries += 1
            raise NeedRetry(required_bytes)
        self.stats.evictions_partial += 1
        self.stats.eviction_bytes_freed += freed
        self.stats.eviction_writeback_bytes += dirty_written
        if self.obs.enabled:
            self.obs.record(
                Eviction,
                ctx,
                policy=self.config.eviction_policy,
                bytes_freed=freed,
                dirty_bytes=dirty_written,
                victims=len(touched),
            )

    def _evict_entries(
        self,
        ctx: Context,
        ordered: Sequence[Tuple[Context, PageTableEntry]],
        done: Callable[[], bool],
        device: Optional[GPUDevice] = None,
    ) -> Generator:
        """Swap out ``(owner, entry)`` pairs in order until ``done()``;
        returns ``(freed, dirty_written, victims)``, the distinct other
        owners that lost an entry.

        The requester's own entries are taken directly (it holds its own
        lock) and wake no waiters.  Another owner is locked and re-checked
        first — it may have resumed or freed the entry while we waited —
        and must still be an eligible victim on ``device`` (the
        requester's), or with no ``device`` on its own current one.
        """
        freed = dirty_written = 0
        victims: List[Context] = []
        for victim, pte in ordered:
            if done():
                break
            other = victim is not ctx
            if other:
                yield victim.lock.acquire()
            try:
                if other and not self._victim_context_eligible(
                    victim, device if device is not None else victim.device
                ):
                    continue
                if not pte.is_allocated:
                    continue
                dirty_written += pte.dirty_bytes()
                yield from self._swap_entry(victim, pte, notify=other)
                freed += pte.size
                if other:
                    if victim not in victims:
                        victims.append(victim)
                    self._maybe_clear_journal(victim)
            finally:
                if other:
                    victim.lock.release()
        return freed, dirty_written, victims

    def _eviction_order(
        self, candidates: List[Tuple[Context, PageTableEntry]]
    ) -> List[Tuple[Context, PageTableEntry]]:
        """Partial eviction's victim order: ``"cost_aware"`` by modeled
        eviction cost, ``"lru"`` by launch recency; allocation order
        breaks ties."""
        if self.config.eviction_policy == "cost_aware":
            cost = self._modeled_evict_cost
            return sorted(candidates, key=lambda c: (cost(c[0], c[1]), c[1].seq))
        return sorted(candidates, key=_lru_key)

    def _modeled_evict_cost(self, ctx: Context, pte: PageTableEntry) -> float:
        """The ``cost_aware`` eviction key: write-back now plus
        recency-discounted re-fault later."""
        return self.cost_model.evict_cost(ctx, pte, self.env.now)

    # ------------------------------------------------------------------
    # tenant quotas (repro.qos)
    # ------------------------------------------------------------------
    def _enforce_tenant_quota(
        self, ctx: Context, ptes: List[PageTableEntry]
    ) -> Generator:
        """Evict the offending tenant's own entries until the upcoming
        launch fits its device quota.

        Candidates are the requester's own resident entries outside the
        launch's working set, plus resident entries of the tenant's
        *other* contexts that are eviction-eligible (idle in a CPU
        phase), LRU-ordered across all of them.  The quota is soft at
        the working-set level: if the launch's working set alone exceeds
        it, the launch still runs once every evictable entry is gone,
        and the tenant stays over quota until its working set shrinks.
        """
        tenant = ctx.tenant
        if tenant is None or tenant.device_quota_bytes is None:
            return
        launch_set = {p.virtual_ptr for p in ptes}
        incoming = sum(p.size for p in ptes if not p.is_allocated)

        def overage() -> int:
            return (
                tenant.device_bytes(self.page_table)
                + incoming
                - tenant.device_quota_bytes
            )

        if overage() <= 0:
            return
        candidates: List[Tuple[Context, PageTableEntry]] = []
        for member in list(tenant.contexts):
            if member is ctx:
                candidates += [
                    (member, p)
                    for p in self.page_table.entries_for(member)
                    if p.is_allocated and p.virtual_ptr not in launch_set
                ]
            elif member.bound and self._victim_context_eligible(
                member, member.vgpu.device
            ):
                candidates += [
                    (member, p)
                    for p in self.page_table.entries_for(member)
                    if p.is_allocated
                ]
        freed, dirty_written, _ = yield from self._evict_entries(
            ctx,
            sorted(candidates, key=_lru_key),
            lambda: overage() <= 0,
        )
        if freed:
            self.stats.quota_evictions += 1
            self.stats.quota_eviction_bytes += freed
            self._maybe_clear_journal(ctx)
            if self.obs.enabled:
                self.obs.record(
                    Eviction,
                    ctx,
                    policy="tenant_quota",
                    bytes_freed=freed,
                    dirty_bytes=dirty_written,
                    victims=1,
                )

    def swap_out_context(self, ctx: Context, notify: bool = True) -> Generator:
        """Write back and release every resident entry of ``ctx``.

        Afterwards the swap area captures the full device state of the
        application, so its failure-replay journal can be cleared.
        """
        yield from self._drain_writebacks(ctx)
        resident = [p for p in self.page_table.entries_for(ctx) if p.is_allocated]
        if self.config.overlap_transfers:
            # Pipelined: every write-back lands before the first free,
            # instead of one call/return round trip per entry; the frees
            # below then find clean entries and wake waiters once.
            yield from self._land(ctx, self._stage(ctx, resident, d2h=True), d2h=True)
            for pte in resident:
                yield from self._swap_entry(ctx, pte, notify=False)
            if notify and resident:
                self.memory_freed.notify_all()
        else:
            # One entry at a time: each is written back, freed and
            # announced before the next.
            for pte in resident:
                yield from self._swap_entry(ctx, pte, notify=notify)
        if ctx.cache_vgpu is ctx.vgpu:
            ctx.cache_vgpu = None
        ctx.replay_journal.clear()

    def unbind(
        self, ctx: Context, reason: str, retain: bool = False, notify: bool = True
    ) -> Generator:
        """Unbind ``ctx`` (§4.4): capture its device state in the swap
        area, then hand its vGPU back to the scheduler.

        ``retain=True`` (quantum expiry, the CPU-phase reaper) keeps the
        device copy as a clean residency cache under ``locality_binding``
        (:meth:`unbind_retain`) instead of swapping out.  ``notify=False``
        is for a context unbinding itself after a failed launch, so stuck
        contexts do not wake each other in a retry storm.
        """
        if retain and self.config.locality_binding:
            yield from self.unbind_retain(ctx)
        else:
            yield from self.swap_out_context(ctx, notify=notify)
        self.release_vgpu(ctx, reason)

    # ------------------------------------------------------------------
    # locality retention (§4.4 + the transfer-cost model)
    # ------------------------------------------------------------------
    def unbind_retain(self, ctx: Context) -> Generator:
        """Unbind-with-retain: checkpoint the context's dirty device
        state, then leave its device allocations in place as a *clean*
        residency cache owned by the current vGPU's CUDA context.

        The swap area ends up holding a complete copy (so the replay
        journal clears and every later consumer of the swap state stays
        correct), while a rebinding that lands back on the caching vGPU
        finds the working set resident and skips the fault-in entirely.
        :meth:`unbind` then releases the vGPU, exactly as after a
        swap-out.
        """
        assert ctx.bound, "unbind_retain requires a bound context"
        assert ctx.cache_vgpu is None or ctx.cache_vgpu is ctx.vgpu, (
            "a stale cache must be reconciled before the context launches"
        )
        yield from self._drain_writebacks(ctx)
        cached = False
        for pte in self.page_table.entries_for(ctx):
            if pte.is_allocated:
                yield from self._write_back(ctx, pte)
                cached = True
        ctx.replay_journal.clear()
        if cached:
            ctx.cache_vgpu = ctx.vgpu

    def _reconcile_cache(self, ctx: Context) -> Generator:
        """Resolve retained residency at the first device operation after
        a rebind: rebinding to the caching vGPU revives the entries in
        place (a locality hit — the fault-in is avoided); anywhere else
        the pointers belong to a foreign CUDA context and the cache is
        dropped before any device operation can touch them."""
        cache = ctx.cache_vgpu
        if cache is None:
            return
        if ctx.vgpu is cache:
            ctx.cache_vgpu = None
            reused = sum(
                p.size - p.fault_bytes()
                for p in self.page_table.entries_for(ctx)
                if p.is_allocated
            )
            if reused > 0:
                self.stats.locality_hits += 1
                self.stats.locality_bytes_avoided += reused
            return
        yield from self.drop_cache(ctx)

    def drop_cache(self, ctx: Context) -> Generator:
        """Free the retained residency cache of ``ctx``; returns the
        bytes it covered.

        The page-table release is synchronous — no other simulation step
        can observe a half-dropped cache — while the driver frees (which
        take simulated time) run afterwards against the caching vGPU's
        CUDA context, which owns the pointers regardless of where the
        context is bound now.  If that vGPU's device has failed or been
        removed, the device state is simply lost (no device operation).
        """
        vgpu = ctx.cache_vgpu
        ctx.cache_vgpu = None
        if vgpu is None:
            return 0
        ptrs: List[int] = []
        freed = 0
        for pte in self.page_table.entries_for(ctx):
            if pte.is_allocated:
                ptrs.append(pte.device_ptr)
                freed += pte.size
                pte.prefetched = False
                pte.release_device()
        if ptrs and vgpu.cuda_context is not None and not vgpu.device.failed:
            for ptr in ptrs:
                yield from vgpu.free(ptr)
            self.memory_freed.notify_all()
        return freed

    def _reclaim_cached(
        self, ctx: Context, device: GPUDevice, required_bytes: int,
        min_contiguous: int,
    ) -> Generator:
        """Reclaim other contexts' retained caches on ``device`` until
        the requester's need fits (or no cache remains).

        Never blocks on a victim's lock: a locked owner is mid-call —
        possibly waiting for the very vGPU the requester holds — and
        waiting here could deadlock.  The lock check and the cache's
        synchronous release happen atomically (no intervening yield), so
        a skipped victim simply keeps its cache.
        """
        freed = 0
        for victim in list(self.page_table.contexts()):
            if self._fits(device, required_bytes, min_contiguous):
                break
            if victim is ctx or victim.bound:
                continue
            cache = victim.cache_vgpu
            if cache is None or cache.device is not device or victim.lock.locked:
                continue
            freed += yield from self.drop_cache(victim)
        if freed:
            self.stats.locality_reclaims += 1
            self.stats.locality_reclaim_bytes += freed

    def migrate_context_p2p(self, ctx: Context, dst_vgpu) -> Generator:
        """CUDA 4.0 dynamic binding (§4.8): move a context's resident
        entries to ``dst_vgpu``'s device with direct GPU-to-GPU copies,
        avoiding the host round trip of the swap path.

        Returns True on success.  On destination OOM, everything placed
        so far is rolled back and False is returned — the caller falls
        back to the swap-based path.
        """
        src_vgpu = ctx.vgpu
        assert src_vgpu is not None and src_vgpu.device is not dst_vgpu.device
        # The peer copies below read device memory directly; pending
        # asynchronous write-backs must land first.
        yield from self._drain_writebacks(ctx)
        moved = []  # (pte, old_device_ptr, new_device_ptr)
        entries = [p for p in self.page_table.entries_for(ctx) if p.is_allocated]
        try:
            for pte in entries:
                new_ptr = yield from dst_vgpu.malloc(pte.size)
                moved.append((pte, pte.device_ptr, new_ptr))
        except CudaRuntimeError as exc:
            if exc.code != CudaError.cudaErrorMemoryAllocation:
                raise
            for _pte, _old, new_ptr in moved:
                yield from dst_vgpu.free(new_ptr)
            return False
        driver = dst_vgpu.driver
        for pte, old_ptr, new_ptr in moved:
            # Carry over the runs whose device copy is current (dirty or
            # in sync); swap-authoritative runs stay to_copy_2dev and
            # fault in from the host on the new device.
            for off, nbytes in pte.device_current_runs():
                yield from driver.memcpy_peer(
                    src_vgpu.cuda_context, old_ptr + off,
                    dst_vgpu.cuda_context, new_ptr + off,
                    nbytes,
                )
                self.stats.p2p_bytes += nbytes
            yield from src_vgpu.free(old_ptr)
            pte.relocate_device(new_ptr, dst_vgpu.device.device_id)
        return True

    # ------------------------------------------------------------------
    # checkpoint / failure support (§4.6)
    # ------------------------------------------------------------------
    def checkpoint(self, ctx: Context) -> Generator:
        """Write dirty entries back to swap, keeping them resident.

        In overlap mode the write-backs run *behind* the caller: they are
        enqueued on the context's copy stream and a completer process
        finishes the bookkeeping as they land, so the application returns
        to its CPU phase immediately and the copies hide under it.  A
        barrier event in :attr:`_pending_writebacks` lets every consumer
        of the dirty flags wait for the completer first.
        """
        if self.config.overlap_transfers and ctx.bound:
            with _span_phase(ctx, "writeback_drain"):
                yield from self._drain_writebacks(ctx)
            staged = self._stage(ctx, self.page_table.entries_for(ctx), d2h=True)
            barrier = self.env.event()
            self._pending_writebacks.setdefault(ctx, []).append(barrier)
            self.env.process(
                self._finish_checkpoint(ctx, staged, barrier),
                name=f"ckpt-{ctx.owner}",
            )
            return
        written = 0
        with _span_phase(ctx, "writeback_drain"):
            for pte in self.page_table.entries_for(ctx):
                written += yield from self._write_back(ctx, pte)
        ctx.replay_journal.clear()
        self.stats.checkpoints += 1
        if self.obs.enabled:
            self.obs.record(CheckpointTaken, ctx, nbytes=written)

    def _finish_checkpoint(
        self,
        ctx: Context,
        staged: list,
        barrier: Event,
    ) -> Generator:
        """Completer for an asynchronous checkpoint: marks entries clean
        as their write-backs land, then clears the replay journal."""
        try:
            yield from self._land(ctx, staged, d2h=True)
            if ctx.state is not ContextState.FAILED:
                ctx.replay_journal.clear()
                self.stats.checkpoints += 1
                if self.obs.enabled:
                    self.obs.record(
                        CheckpointTaken, ctx, nbytes=sum(run[1] for _, run, _ in staged)
                    )
        except CudaRuntimeError:
            # Device died mid-write-back; the swap copies already landed
            # stay valid, recovery owns the rest.
            pass
        finally:
            # Remove before succeeding so woken drainers see the barrier
            # gone when they re-check the pending list.
            pending = self._pending_writebacks.get(ctx)
            if pending is not None:
                pending.remove(barrier)
                if not pending:
                    del self._pending_writebacks[ctx]
            barrier.succeed()

    def reset_after_failure(self, ctx: Context) -> None:
        """Drop the (lost) device side of every entry without device
        operations; swap-resident data becomes authoritative and the
        journal will re-create what the device held exclusively."""
        ctx.cache_vgpu = None
        for pte in self.page_table.entries_for(ctx):
            pte.prefetched = False
            if pte.is_allocated:
                pte.drop_device_state()

    # ------------------------------------------------------------------
    # overlap engine: CPU-phase prefetch
    # ------------------------------------------------------------------
    def prefetch(self, ctx: Context, vptrs: Sequence[int]) -> Generator:
        """Stage the predicted next-launch working set during a CPU phase.

        Deliberately conservative: only entries that fit the device's
        currently *free* memory are touched — prefetch never evicts and
        never swaps, it just moves work the next launch would have done
        into a window where the GPU's copy engine is otherwise idle.  The
        caller holds ``ctx.lock`` and this generator awaits every transfer
        it enqueued before returning, so a swap-out (which also takes the
        lock) can never race an in-flight prefetch copy.
        """
        assert ctx.bound, "prefetch requires a bound context"
        if ctx.cache_vgpu is not None:
            # Same reconcile as the launch path: never touch device
            # pointers a foreign CUDA context owns.
            yield from self._reconcile_cache(ctx)
        device = ctx.vgpu.device
        staged = []
        # Each entry is staged right after its own allocation.
        for vptr in vptrs:
            try:
                pte = self.page_table.lookup(ctx, vptr)
            except RuntimeApiError:
                continue  # freed since the last launch; not an error here
            if not pte.is_allocated:
                if pte.size > device.allocator.free_bytes:
                    continue
                try:
                    address = yield from ctx.vgpu.malloc(pte.size)
                except CudaRuntimeError as exc:
                    if exc.code != CudaError.cudaErrorMemoryAllocation:
                        raise
                    continue
                pte.allocate_device(address, ctx.vgpu.device.device_id)
            staged += self._stage(ctx, (pte,), d2h=False)
        yield from self._land(ctx, staged, d2h=False, on_land=self._count_prefetch)

    def _count_prefetch(self, pte: PageTableEntry, run: Tuple[int, int]) -> None:
        self.stats.prefetch_bytes += run[1]
        if not pte.prefetched:
            pte.prefetched = True
            self.stats.prefetch_issued += 1

    # ------------------------------------------------------------------
    def release_context(self, ctx: Context) -> Generator:
        """Application exit: free everything it still holds."""
        # Never release device memory under an in-flight write-back.
        yield from self._drain_writebacks(ctx)
        released_device_memory = False
        for pte in self.page_table.entries_for(ctx):
            if pte.is_allocated:
                if (yield from self._release_device(ctx, pte)):
                    released_device_memory = True
            if pte.swap_ptr is not None:
                self.swap.release(pte.swap_ptr)
                pte.swap_ptr = None
            self.nested.pop(pte.virtual_ptr, None)
        ctx.cache_vgpu = None
        ctx.launch_translation = None
        self.page_table.drop_context(ctx)
        if released_device_memory:
            self.memory_freed.notify_all()

    # ------------------------------------------------------------------
    def _maybe_clear_journal(self, ctx: Context) -> None:
        """The journal exists to regenerate device-only state; once no
        entry is device-dirty, the swap area is a complete checkpoint."""
        if not any(p.to_copy_2swap for p in self.page_table.entries_for(ctx)):
            ctx.replay_journal.clear()
