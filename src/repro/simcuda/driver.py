"""The simulated CUDA driver.

One driver instance exists per node; it owns the node's GPUs and mediates
every device operation.  All operations are simulation *sub-processes*:
call them with ``yield from`` inside a process (or wrap in
``env.process``).  They consume simulated time per :mod:`repro.simcuda.timing`
and contend on each device's execution/copy engines exactly like CUDA 3.x:

- kernel launches from different contexts are served FCFS, one at a time
  per device;
- H2D/D2H copies serialize on the device's DMA engine but can overlap a
  running kernel;
- a device failure surfaces as ``cudaErrorDevicesUnavailable`` on every
  subsequent (and in-flight) operation.

Pointers are checked against the device's allocator, the one record of
what is allocated where (a context keeps only the bases it allocated).
A copy (H2D, D2H, peer) may start inside one of the context's
allocations, as a chunked page-table entry's runs do; an address in no
allocation or in another context's is ``cudaErrorInvalidDevicePointer``,
and a copy past the allocation's end is ``cudaErrorInvalidValue``.
``free`` and kernel pointer arguments take an allocation's base only.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.sim import Environment
from repro.simcuda import timing
from repro.simcuda.allocator import OutOfMemory
from repro.simcuda.context import CudaContext
from repro.simcuda.device import GPUDevice, GPUSpec
from repro.simcuda.errors import CudaError, CudaRuntimeError
from repro.simcuda.kernels import KernelLaunch

__all__ = ["CudaDriver"]


class CudaDriver:
    """Node-level CUDA driver over a set of :class:`GPUDevice`\\ s."""

    def __init__(self, env: Environment, specs: Optional[List[GPUSpec]] = None):
        self.env = env
        #: Kernel consolidation (space-sharing): when True, launches with
        #: a partial ``sm_demand`` may co-run on a device instead of
        #: serializing — the Ravi et al. integration enabled by the
        #: runtime's delayed binding (§6).  Off = CUDA 3.x behaviour.
        self.concurrent_kernels = False
        #: Per-launch control-plane cost (CPU-side submission work charged
        #: before the launch contends for an engine).  Defaults to 0.0 —
        #: no timeout event is even scheduled then, so prior results stay
        #: bit-for-bit identical.  Wired from
        #: ``RuntimeConfig.launch_control_plane_s`` by the node runtime;
        #: see ``timing.CONTROL_PLANE_SECONDS`` for a reference value.
        self.launch_control_plane_s = 0.0
        #: Optional observability hook called at the end of every engine
        #: occupancy — ``hook(device, engine, op, nbytes, owner, begin_at)``.
        #: Wired by the node runtime to emit EngineSpan trace events; the
        #: driver itself never consumes simulated time calling it.
        self.span_hook: Optional[Callable[..., None]] = None
        self.devices: List[GPUDevice] = []
        #: device -> live contexts on it
        self._contexts: Dict[int, List[CudaContext]] = {}
        for spec in specs or []:
            self.add_device(spec)

    # ------------------------------------------------------------------
    # device management
    # ------------------------------------------------------------------
    def add_device(self, spec: GPUSpec) -> GPUDevice:
        """Install a GPU (system startup or dynamic upgrade)."""
        device = GPUDevice(self.env, spec)
        self.devices.append(device)
        self._contexts[device.device_id] = []
        return device

    def remove_device(self, device: GPUDevice) -> None:
        """Remove a GPU (dynamic downgrade).  Live contexts on it start
        failing with ``cudaErrorDevicesUnavailable``."""
        device.fail()
        self.devices.remove(device)

    def device_count(self) -> int:
        return len(self.devices)

    def get_device(self, device_id: int) -> GPUDevice:
        for device in self.devices:
            if device.device_id == device_id:
                return device
        raise CudaRuntimeError(CudaError.cudaErrorInvalidDevice, f"no device {device_id}")

    def contexts_on(self, device: GPUDevice) -> List[CudaContext]:
        return list(self._contexts.get(device.device_id, []))

    # ------------------------------------------------------------------
    # contexts
    # ------------------------------------------------------------------
    def create_context(
        self, device: GPUDevice, owner: Optional[str] = None
    ) -> Generator:
        """Create a context on ``device``; returns the context.

        Enforces the concurrent-context limit the paper measured and the
        per-context device-memory reservation.
        """
        self._check_alive(device)
        live = self._contexts[device.device_id]
        if len(live) >= device.spec.max_contexts:
            raise CudaRuntimeError(
                CudaError.cudaErrorTooManyContexts,
                f"{device.name} already has {len(live)} contexts "
                f"(limit {device.spec.max_contexts})",
            )
        ctx = CudaContext(device, owner=owner)
        try:
            ctx.reservation_address = device.allocator.allocate(
                device.spec.context_reservation_bytes
            )
        except OutOfMemory as exc:
            raise CudaRuntimeError(
                CudaError.cudaErrorMemoryAllocation,
                f"context reservation failed on {device.name}: {exc}",
            ) from exc
        live.append(ctx)
        yield self.env.timeout(timing.CONTEXT_CREATE_SECONDS)
        self._check_alive(device)
        return ctx

    def destroy_context(self, ctx: CudaContext) -> Generator:
        """Destroy a context, releasing every allocation it made."""
        if ctx.destroyed:
            return
        allocator = ctx.device.allocator
        for address in ctx.bases:
            allocator.free(address)
        ctx.bases.clear()
        if ctx.reservation_address is not None:
            allocator.free(ctx.reservation_address)
        ctx.reservation_address = None
        ctx.destroyed = True
        live = self._contexts.get(ctx.device.device_id)
        if live and ctx in live:
            live.remove(ctx)
        yield self.env.timeout(timing.CONTEXT_DESTROY_SECONDS)

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def malloc(self, ctx: CudaContext, size: int) -> Generator:
        """cudaMalloc: returns a device address."""
        self._check_context(ctx)
        if size <= 0:
            raise CudaRuntimeError(CudaError.cudaErrorInvalidValue, f"size={size}")
        yield self.env.timeout(timing.MALLOC_OVERHEAD_SECONDS)
        self._check_context(ctx)
        try:
            address = ctx.device.allocator.allocate(size)
        except OutOfMemory as exc:
            raise CudaRuntimeError(CudaError.cudaErrorMemoryAllocation, str(exc)) from exc
        ctx.bases.add(address)
        return address

    def free(self, ctx: CudaContext, address: int) -> Generator:
        """cudaFree."""
        self._check_context(ctx)
        if address not in ctx.bases:
            raise CudaRuntimeError(
                CudaError.cudaErrorInvalidDevicePointer, f"0x{address:x} not owned by context"
            )
        yield self.env.timeout(timing.FREE_OVERHEAD_SECONDS)
        ctx.device.allocator.free(address)
        ctx.bases.remove(address)

    def memcpy_h2d(self, ctx: CudaContext, address: int, nbytes: int) -> Generator:
        """Host→device transfer of ``nbytes`` to ``address``, a base or
        an interior pointer of one of the context's allocations."""
        yield from self._memcpy(ctx, address, nbytes, "h2d")

    def memcpy_d2h(self, ctx: CudaContext, address: int, nbytes: int) -> Generator:
        """Device→host transfer."""
        yield from self._memcpy(ctx, address, nbytes, "d2h")

    def _memcpy(self, ctx: CudaContext, address: int, nbytes: int, kind: str) -> Generator:
        self._check_context(ctx)
        if nbytes < 0:
            raise CudaRuntimeError(CudaError.cudaErrorInvalidValue, f"nbytes={nbytes}")
        self._check_span(ctx, address, nbytes, kind)
        device = ctx.device
        with device.copy_engine.request() as req:
            yield req
            self._check_context(ctx)
            duration = timing.copy_seconds(device.spec, nbytes)
            begin_at = self.env.now
            device.engine_begin("copy")
            try:
                yield self.env.timeout(duration)
            finally:
                device.engine_end("copy")
            self._check_context(ctx)
            device.bytes_copied += nbytes
            device.copy_busy_seconds += duration
            if self.span_hook is not None:
                self.span_hook(
                    device, "copy", f"memcpy_{kind}", nbytes, ctx.owner, begin_at
                )

    def memcpy_peer(
        self,
        src_ctx: CudaContext,
        src_address: int,
        dst_ctx: CudaContext,
        dst_address: int,
        nbytes: int,
    ) -> Generator:
        """Direct GPU-to-GPU transfer (CUDA 4.0 peer access, paper §4.8).

        Occupies both devices' copy engines; bandwidth is bounded by the
        slower PCIe link (data crosses the host bridge once instead of
        being staged through host memory twice).
        """
        self._check_context(src_ctx)
        self._check_context(dst_ctx)
        if src_ctx.device is dst_ctx.device:
            raise CudaRuntimeError(
                CudaError.cudaErrorInvalidValue, "peer copy within one device"
            )
        self._check_span(src_ctx, src_address, nbytes, "peer")
        self._check_span(dst_ctx, dst_address, nbytes, "peer")
        bandwidth = min(src_ctx.device.spec.pcie_gbps, dst_ctx.device.spec.pcie_gbps)
        src_req = src_ctx.device.copy_engine.request()
        dst_req = dst_ctx.device.copy_engine.request()
        try:
            yield src_req
            yield dst_req
            self._check_context(src_ctx)
            self._check_context(dst_ctx)
            duration = timing.COPY_LATENCY_SECONDS + nbytes / (bandwidth * 1e9)
            begin_at = self.env.now
            src_ctx.device.engine_begin("copy")
            dst_ctx.device.engine_begin("copy")
            try:
                yield self.env.timeout(duration)
            finally:
                src_ctx.device.engine_end("copy")
                dst_ctx.device.engine_end("copy")
            self._check_context(src_ctx)
            self._check_context(dst_ctx)
            src_ctx.device.bytes_copied += nbytes
            dst_ctx.device.bytes_copied += nbytes
            src_ctx.device.copy_busy_seconds += duration
            dst_ctx.device.copy_busy_seconds += duration
            if self.span_hook is not None:
                self.span_hook(
                    src_ctx.device, "copy", "memcpy_peer", nbytes,
                    src_ctx.owner, begin_at,
                )
                self.span_hook(
                    dst_ctx.device, "copy", "memcpy_peer", nbytes,
                    dst_ctx.owner, begin_at,
                )
        finally:
            src_ctx.device.copy_engine.release(src_req)
            dst_ctx.device.copy_engine.release(dst_req)

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def launch(self, ctx: CudaContext, launch: KernelLaunch) -> Generator:
        """cudaLaunch: execute a kernel FCFS on the context's device.

        Every pointer argument must be the base of an allocation owned
        by ``ctx`` — the bare CUDA runtime offers no virtual addressing.
        """
        self._check_context(ctx)
        bases = ctx.bases
        for ptr in launch.arg_pointers:
            if ptr not in bases:
                raise CudaRuntimeError(
                    CudaError.cudaErrorLaunchFailure,
                    f"kernel {launch.kernel.name!r} dereferences invalid pointer 0x{ptr:x}",
                )
        if self.launch_control_plane_s > 0.0 and launch.control_plane:
            yield self.env.timeout(self.launch_control_plane_s)
            self._check_context(ctx)
        device = ctx.device
        if self.concurrent_kernels:
            yield from self._launch_space_shared(ctx, launch)
            return
        with device.exec_engine.request() as req:
            yield req
            self._check_context(ctx)
            duration = timing.kernel_seconds(device.spec, launch.kernel)
            begin_at = self.env.now
            device.engine_begin("exec")
            try:
                yield self.env.timeout(duration)
            finally:
                device.engine_end("exec")
            # A failure mid-kernel is detected at kernel end, as on real
            # hardware (the launch errors rather than completing).
            self._check_context(ctx)
            device.busy_seconds += duration
            device.kernels_executed += 1
            if self.span_hook is not None:
                self.span_hook(
                    device, "exec", launch.kernel.name, 0, ctx.owner, begin_at
                )

    def _launch_space_shared(self, ctx: CudaContext, launch: KernelLaunch) -> Generator:
        """Consolidated execution: the launch occupies only the SMs it
        can fill; co-running kernels slow nothing down as long as the
        aggregate demand fits the device."""
        device = ctx.device
        sm_count = device.spec.sm_count
        demand = launch.kernel.sm_demand
        granted = sm_count if demand is None else max(1, min(demand, sm_count))
        yield device.sm_slots.get(granted)
        try:
            self._check_context(ctx)
            fraction = granted / sm_count
            duration = timing.kernel_seconds(device.spec, launch.kernel)
            begin_at = self.env.now
            device.engine_begin("exec")
            try:
                yield self.env.timeout(duration)
            finally:
                device.engine_end("exec")
            self._check_context(ctx)
            device.busy_seconds += duration * fraction
            device.kernels_executed += 1
            if self.span_hook is not None:
                self.span_hook(
                    device, "exec", launch.kernel.name, 0, ctx.owner, begin_at
                )
        finally:
            device.sm_slots.put(granted)

    # ------------------------------------------------------------------
    def _check_span(self, ctx: CudaContext, address: int, nbytes: int, kind: str) -> None:
        """A copy of ``nbytes`` at ``address`` must lie inside one of the
        context's allocations; ``address`` may be past its base."""
        block = ctx.device.allocator.block_containing(address)
        if block is None or block[0] not in ctx.bases:
            raise CudaRuntimeError(
                CudaError.cudaErrorInvalidDevicePointer,
                f"memcpy_{kind} at 0x{address:x} not owned by context",
            )
        base, size = block
        if address - base + nbytes > size:
            raise CudaRuntimeError(
                CudaError.cudaErrorInvalidValue,
                f"memcpy_{kind} of {nbytes} bytes at offset {address - base} exceeds "
                f"allocation ({size} bytes)",
            )

    def _check_alive(self, device: GPUDevice) -> None:
        if device.failed:
            raise CudaRuntimeError(
                CudaError.cudaErrorDevicesUnavailable, f"{device.name} failed/removed"
            )

    def _check_context(self, ctx: CudaContext) -> None:
        if ctx.destroyed:
            raise CudaRuntimeError(CudaError.cudaErrorInvalidValue, "context destroyed")
        if ctx.device.failed:
            # Tested here first: every memory and launch step runs this
            # check, and a healthy device should cost no further call.
            self._check_alive(ctx.device)
