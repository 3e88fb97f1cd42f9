"""Virtual GPUs (paper §4.4).

A configurable number of vGPUs is spawned for each physical GPU; each is
a worker statically bound to its device (``cudaSetDevice`` at system
startup) that issues application calls to the CUDA runtime, serving one
application thread at a time.  Because the CUDA runtime spawns a context
per vGPU — not per application — the number of live CUDA contexts stays
bounded regardless of how many applications arrive, which is what lets
the runtime operate beyond the bare runtime's ~8-context limit.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, Optional, TYPE_CHECKING

from repro.sim import Environment, Event
from repro.simcuda.context import CudaContext
from repro.simcuda.driver import CudaDriver
from repro.simcuda.device import GPUDevice
from repro.simcuda.kernels import KernelLaunch
from repro.simcuda.streams import Stream

from repro.obs.events import Bind, Unbind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import Context

__all__ = ["PoolCounts", "VirtualGPU"]

_vgpu_seq = itertools.count(1)


class PoolCounts:
    """The state of a vGPU pool that placement reads, kept as counts.

    The pool's vGPUs update it where the state changes: ``total`` when
    the scheduler adds a vGPU and when :meth:`VirtualGPU.retire` runs,
    ``active`` (device id -> bound vGPUs, devices with none left out) in
    :meth:`VirtualGPU.bind` and :meth:`VirtualGPU.unbind`.
    """

    __slots__ = ("total", "active")

    def __init__(self) -> None:
        self.total = 0
        self.active: Dict[int, int] = {}


class VirtualGPU:
    """One time-sharing slot on a physical GPU."""

    def __init__(self, env: Environment, driver: CudaDriver, device: GPUDevice, index: int):
        self.env = env
        self.driver = driver
        self.device = device
        self.index = index
        self.name = f"vGPU{device.device_id}.{index}"
        self.seq = next(_vgpu_seq)
        #: The CUDA context this vGPU works in (created at startup).
        self.cuda_context: Optional[CudaContext] = None
        #: In-order async copy stream (created at startup); the overlap
        #: engine routes bulk transfers and write-backs through it so they
        #: can run behind the caller and overlap kernel execution.
        self.copy_stream: Optional[Stream] = None
        #: The application context currently bound (None = idle).
        self.bound_context: Optional["Context"] = None
        self.total_bound_seconds = 0.0
        self._bound_at: Optional[float] = None
        self.retired = False
        #: Held for an in-flight migration (repro.core.migration): idle
        #: but not grantable to waiters.
        self.reserved = False
        #: Tracing bus (repro.obs), injected by the scheduler at spawn so
        #: every bind/unbind — scheduler grant, migration, recovery — is
        #: observed at this single choke point.
        self.obs = None
        #: The owning pool's counts, injected by the scheduler when it
        #: adds this vGPU; the same choke point keeps them current.
        self.counts: Optional[PoolCounts] = None

    # ------------------------------------------------------------------
    def start(self) -> Generator:
        """Create the vGPU's CUDA context (static cudaSetDevice binding)."""
        self.cuda_context = yield from self.driver.create_context(
            self.device, owner=self.name
        )
        self.copy_stream = Stream(self.driver, self.cuda_context)

    def shutdown(self) -> Generator:
        """Destroy the CUDA context (device removal / node shutdown)."""
        self.retire()
        if self.cuda_context is not None:
            yield from self.driver.destroy_context(self.cuda_context)
            self.cuda_context = None

    def retire(self) -> None:
        """Take the vGPU out of service for good (its device failed or
        left the node); a bound context stays bound until it unbinds."""
        if not self.retired:
            self.retired = True
            if self.counts is not None:
                self.counts.total -= 1

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.bound_context is None and not self.retired and not self.device.failed

    def bind(self, ctx: "Context") -> None:
        if self.bound_context is not None:
            raise RuntimeError(f"{self.name} already serves {self.bound_context!r}")
        if self.retired:
            raise RuntimeError(f"{self.name} is retired")
        self.bound_context = ctx
        self._bound_at = self.env.now
        ctx.vgpu = self
        if self.counts is not None:
            active = self.counts.active
            device_id = self.device.device_id
            active[device_id] = active.get(device_id, 0) + 1
        # Time-slicing (repro.qos): the quantum covers one binding, so it
        # restarts here — the single choke point every bind path crosses
        # (scheduler grant, migration, recovery).
        ctx.quantum_used_s = 0.0
        if self.obs is not None and self.obs.enabled:
            self.obs.record(Bind, ctx, vgpu=self.name, device_id=self.device.device_id)

    def unbind(self, ctx: "Context", reason: str = "") -> None:
        if self.bound_context is not ctx:
            raise RuntimeError(f"{self.name} does not serve {ctx!r}")
        if self.obs is not None and self.obs.enabled:
            self.obs.record(
                Unbind, ctx, vgpu=self.name, device_id=self.device.device_id, reason=reason
            )
        self.bound_context = None
        if self._bound_at is not None:
            self.total_bound_seconds += self.env.now - self._bound_at
            self._bound_at = None
        ctx.vgpu = None
        if self.counts is not None:
            active = self.counts.active
            device_id = self.device.device_id
            if active[device_id] == 1:
                del active[device_id]
            else:
                active[device_id] -= 1

    # ------------------------------------------------------------------
    # device operations, issued within this vGPU's CUDA context.  Each
    # returns the driver's generator itself (as ``Socket.send`` returns
    # its channel's), so a caller's ``yield from`` runs no extra frame.
    # ------------------------------------------------------------------
    def malloc(self, size: int) -> Generator:
        return self.driver.malloc(self.cuda_context, size)

    def free(self, address: int) -> Generator:
        return self.driver.free(self.cuda_context, address)

    def memcpy_h2d(self, address: int, nbytes: int) -> Generator:
        return self.driver.memcpy_h2d(self.cuda_context, address, nbytes)

    def memcpy_d2h(self, address: int, nbytes: int) -> Generator:
        return self.driver.memcpy_d2h(self.cuda_context, address, nbytes)

    def memcpy_h2d_async(self, address: int, nbytes: int) -> Event:
        """Enqueue an H2D on the copy stream; returns its completion event."""
        return self.copy_stream.memcpy_h2d_async(address, nbytes)

    def memcpy_d2h_async(self, address: int, nbytes: int) -> Event:
        """Enqueue a D2H on the copy stream; returns its completion event."""
        return self.copy_stream.memcpy_d2h_async(address, nbytes)

    def synchronize(self) -> Generator:
        """Drain the copy stream (re-raising any asynchronous error)."""
        if self.copy_stream is not None:
            yield from self.copy_stream.synchronize()

    def launch(self, launch: KernelLaunch) -> Generator:
        return self.driver.launch(self.cuda_context, launch)

    def __repr__(self) -> str:
        who = self.bound_context.owner if self.bound_context else "idle"
        return f"<VirtualGPU {self.name} [{who}]>"
