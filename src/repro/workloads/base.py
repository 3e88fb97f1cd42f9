"""Application model and API adapters.

A :class:`WorkloadSpec` describes one Table 2 benchmark as the runtime
sees it: buffers, kernel-call count, aggregate GPU seconds on the
reference card (Tesla C2050), data-transfer pattern and CPU-phase
structure.  :class:`Application` turns a spec into the actual simulated
call stream.

The :class:`DeviceAPI` adapters make the same application runnable on:

- the bare CUDA runtime (:class:`BareCudaAdapter`, the paper's baseline),
- the paper's runtime (:class:`FrontendAdapter`, via the intercept
  library).

This mirrors reality: the intercept library is API-compatible with the
CUDA runtime, so binaries do not change between configurations.
"""

from __future__ import annotations

import dataclasses
from typing import Generator, List, Sequence, Tuple

from repro.simcuda.device import TESLA_C2050
from repro.simcuda.fatbin import FatBinary
from repro.simcuda.kernels import KernelDescriptor

__all__ = [
    "WorkloadSpec",
    "Application",
    "DeviceAPI",
    "BareCudaAdapter",
    "FrontendAdapter",
]


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one benchmark program.

    Attributes
    ----------
    name / tag / description:
        Identity (tag is the paper's abbreviation, e.g. ``"MM-L"``).
    kernel_calls:
        Number of kernel launches (third column of Table 2).
    gpu_seconds_c2050:
        Aggregate kernel execution time on a Tesla C2050; per-launch work
        is derived from this (short-running: 3–5 s; long: 30–90 s).
    buffer_bytes:
        Device allocations the program makes.
    cpu_fraction:
        CPU-phase time as a fraction of GPU time, interleaved uniformly
        between kernel calls (the paper's "fraction of CPU code").
    d2h_every:
        Emit an intermediate device→host transfer of buffer 0 every N
        kernel calls (0 = only the final transfer) — the paper's app₂
        pattern, where some transfers are already part of the program.
    read_only_buffers:
        Indices of buffers the kernels only read.
    long_running:
        Category per Table 2.
    """

    name: str
    tag: str
    description: str
    kernel_calls: int
    gpu_seconds_c2050: float
    buffer_bytes: Tuple[int, ...]
    cpu_fraction: float = 0.0
    d2h_every: int = 0
    read_only_buffers: Tuple[int, ...] = ()
    long_running: bool = False

    def __post_init__(self) -> None:
        if self.kernel_calls < 1:
            raise ValueError("kernel_calls must be >= 1")
        if self.gpu_seconds_c2050 <= 0:
            raise ValueError("gpu_seconds_c2050 must be positive")
        if not self.buffer_bytes:
            raise ValueError("a workload needs at least one buffer")

    @property
    def total_bytes(self) -> int:
        return sum(self.buffer_bytes)

    @property
    def flops_per_kernel(self) -> float:
        """Work per launch, calibrated against the reference C2050."""
        total = self.gpu_seconds_c2050 * TESLA_C2050.effective_gflops * 1e9
        return total / self.kernel_calls

    @property
    def cpu_seconds_total(self) -> float:
        return self.cpu_fraction * self.gpu_seconds_c2050

    def with_cpu_fraction(self, fraction: float) -> "WorkloadSpec":
        """The paper injects CPU phases of various sizes into MM-S/MM-L."""
        return dataclasses.replace(self, cpu_fraction=fraction)


class DeviceAPI:
    """What an application needs from the GPU software stack."""

    def register(self, fatbin: FatBinary, kernels: Sequence[KernelDescriptor]) -> Generator:
        raise NotImplementedError

    def malloc(self, size: int) -> Generator:
        raise NotImplementedError

    def free(self, ptr: int) -> Generator:
        raise NotImplementedError

    def memcpy_h2d(self, ptr: int, nbytes: int) -> Generator:
        raise NotImplementedError

    def memcpy_d2h(self, ptr: int, nbytes: int) -> Generator:
        raise NotImplementedError

    def launch(
        self, kernel: KernelDescriptor, args: Sequence[int], read_only: Sequence[int]
    ) -> Generator:
        raise NotImplementedError

    def close(self) -> Generator:
        raise NotImplementedError


class BareCudaAdapter(DeviceAPI):
    """Run directly on the (simulated) CUDA runtime — the baseline."""

    def __init__(self, runtime_api):
        self.api = runtime_api

    def register(self, fatbin, kernels):
        yield from self.api.register_fat_binary(fatbin)
        for k in kernels:
            yield from self.api.register_function(fatbin, k)

    def malloc(self, size):
        ptr = yield from self.api.cuda_malloc(size)
        return ptr

    def free(self, ptr):
        yield from self.api.cuda_free(ptr)

    def memcpy_h2d(self, ptr, nbytes):
        yield from self.api.cuda_memcpy_h2d(ptr, nbytes)

    def memcpy_d2h(self, ptr, nbytes):
        yield from self.api.cuda_memcpy_d2h(ptr, nbytes)

    def launch(self, kernel, args, read_only):
        from repro.simcuda.kernels import KernelLaunch

        self.api.cuda_configure_call()
        yield from self.api.cuda_launch(
            KernelLaunch.simple(kernel, args, read_only=read_only)
        )

    def close(self):
        yield from self.api.cuda_thread_exit()


class FrontendAdapter(DeviceAPI):
    """Run through the paper's runtime via the intercept library."""

    def __init__(self, frontend):
        self.frontend = frontend

    def register(self, fatbin, kernels):
        if not self.frontend.connected:
            yield from self.frontend.open()
        handle = yield from self.frontend.register_fat_binary(fatbin)
        for k in kernels:
            yield from self.frontend.register_function(handle, k)

    def malloc(self, size):
        ptr = yield from self.frontend.cuda_malloc(size)
        return ptr

    def free(self, ptr):
        yield from self.frontend.cuda_free(ptr)

    def memcpy_h2d(self, ptr, nbytes):
        yield from self.frontend.cuda_memcpy_h2d(ptr, nbytes)

    def memcpy_d2h(self, ptr, nbytes):
        yield from self.frontend.cuda_memcpy_d2h(ptr, nbytes)

    def launch(self, kernel, args, read_only):
        # The frontend's generator itself: no wrapper frame per launch.
        return self.frontend.launch_kernel(kernel, args, read_only)

    def close(self):
        yield from self.frontend.cuda_thread_exit()


class Application:
    """Executable form of a workload: the simulated call stream.

    The program structure follows the paper's Figure 1: device memory
    allocations (``m``), host→device transfers (``c_HD``), a sequence of
    kernel executions (``k_ij``) interleaved with CPU phases (black
    blocks), optional intermediate ``c_DH`` transfers, a final
    device→host transfer and de-allocations (``f``).
    """

    def __init__(self, spec: WorkloadSpec, instance: str = ""):
        self.spec = spec
        self.instance = instance or spec.tag
        self.kernel = KernelDescriptor(
            name=f"{spec.tag}-kernel", flops=spec.flops_per_kernel
        )
        self.fatbin = FatBinary()
        self.fatbin.register_function(self.kernel)

    def run(self, api: DeviceAPI, cpu_phase=None) -> Generator:
        """Drive the whole program through ``api``.

        ``cpu_phase(seconds)`` is a generator-returning callable used for
        CPU phases (typically ``node.cpu_phase``); ``None`` skips them.
        """
        spec = self.spec
        yield from api.register(self.fatbin, [self.kernel])

        buffers: List[int] = []
        for size in spec.buffer_bytes:
            ptr = yield from api.malloc(size)
            buffers.append(ptr)
        for ptr, size in zip(buffers, spec.buffer_bytes):
            yield from api.memcpy_h2d(ptr, size)

        read_only = tuple(buffers[i] for i in spec.read_only_buffers)
        gap = (
            spec.cpu_seconds_total / spec.kernel_calls
            if spec.kernel_calls and spec.cpu_seconds_total > 0
            else 0.0
        )
        for call_index in range(spec.kernel_calls):
            yield from api.launch(self.kernel, buffers, read_only)
            if gap > 0 and cpu_phase is not None:
                yield from cpu_phase(gap)
            if (
                spec.d2h_every
                and (call_index + 1) % spec.d2h_every == 0
                and call_index + 1 < spec.kernel_calls
            ):
                yield from api.memcpy_d2h(buffers[0], spec.buffer_bytes[0])

        yield from api.memcpy_d2h(buffers[0], spec.buffer_bytes[0])
        for ptr in buffers:
            yield from api.free(ptr)
        yield from api.close()
