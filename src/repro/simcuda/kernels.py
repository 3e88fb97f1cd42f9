"""Kernel descriptors and launch records.

A :class:`KernelDescriptor` is what function registration
(``__cudaRegisterFunction``) makes known to the runtime: the paper notes
that pointer nesting and dynamic device-side allocation "can be detected by
intercepting and parsing the pseudo-assembly (PTX) representation of CUDA
kernels" (§1) — we model the result of that parse as two boolean flags.

A :class:`KernelLaunch` pairs a descriptor with its execution
configuration and the (virtual or device) pointers it dereferences — the
information the memory manager needs to decide which page-table entries a
launch touches.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

__all__ = ["KernelDescriptor", "KernelLaunch"]


@dataclasses.dataclass(frozen=True)
class KernelDescriptor:
    """Static description of a ``__global__`` function.

    Attributes
    ----------
    name:
        Symbol name.
    flops:
        Floating-point work per launch (drives the timing model).
    uses_dynamic_alloc:
        True if the PTX shows device-side ``malloc`` — such applications
        are excluded from sharing/dynamic scheduling (§1).
    has_pointer_nesting:
        True if the kernel dereferences nested pointers; nested structures
        must be registered through the runtime API (§1, §4.5).
    sm_demand:
        How many streaming multiprocessors the launch can actually fill
        (from its grid size / occupancy).  ``None`` means "the whole
        device" (the conservative default).  When the runtime enables
        kernel consolidation (the Ravi et al. integration the paper's §6
        describes as enabled by its delayed binding), kernels with
        partial demand may space-share a device.
    """

    name: str
    flops: float
    uses_dynamic_alloc: bool = False
    has_pointer_nesting: bool = False
    sm_demand: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class KernelLaunch:
    """One kernel invocation as seen by ``cudaConfigureCall``+``cudaLaunch``.

    Attributes
    ----------
    kernel:
        The registered descriptor.
    grid, block:
        Execution configuration (informational; the timing model keys off
        ``kernel.flops``).
    arg_pointers:
        The pointer arguments the kernel will dereference.  Under the
        paper's runtime these are *virtual* addresses; on the bare CUDA
        runtime they are device addresses.
    read_only:
        Optional subset of ``arg_pointers`` known to be read-only.  When
        present, the memory manager can skip the write-back flag for them
        (Figure 4 "assumes ... all data referenced in a kernel launch can
        be modified"; finer handling "is possible if the information about
        read-only and read-write parameters is available").
    control_plane:
        Whether this launch pays the driver's per-launch control-plane
        charge (``CudaDriver.launch_control_plane_s``).  Graph replay
        issues an instantiated sequence for a *single* charge, so every
        launch after the first is submitted with ``control_plane=False``.
    """

    kernel: KernelDescriptor
    grid: Tuple[int, int, int] = (1, 1, 1)
    block: Tuple[int, int, int] = (256, 1, 1)
    arg_pointers: Tuple[int, ...] = ()
    read_only: Optional[Tuple[int, ...]] = None
    control_plane: bool = True

    @staticmethod
    def simple(
        kernel: KernelDescriptor, pointers: Sequence[int], read_only: Sequence[int] = ()
    ) -> "KernelLaunch":
        """Convenience constructor used by the workload models."""
        return KernelLaunch(
            kernel=kernel,
            arg_pointers=tuple(pointers),
            read_only=tuple(read_only) if read_only else None,
        )
