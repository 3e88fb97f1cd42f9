"""CUDA contexts.

CUDA 3.2 associates a context to each application thread; every context
has its own device address space and an initial memory reservation, and a
device can only sustain a limited number of live contexts (the paper
measured 8 on a Tesla C2050).  The paper's runtime deliberately bounds the
number of contexts it creates (one per vGPU) to stay below that limit.
"""

from __future__ import annotations

import itertools
from typing import Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simcuda.device import GPUDevice

__all__ = ["CudaContext"]

_context_ids = itertools.count(1)


class CudaContext:
    """A live CUDA context on one device.

    Records the bases of the allocations made through it, so the driver
    can validate pointer ownership (isolation between contexts) and
    release everything at destruction.  Sizes live in the device's
    allocator, the one record of what is allocated where.
    """

    def __init__(self, device: "GPUDevice", owner: Optional[str] = None):
        self.context_id = next(_context_ids)
        self.device = device
        self.owner = owner
        #: base addresses of live allocations made via this context
        self.bases: Set[int] = set()
        #: address of the per-context reservation block (None once destroyed)
        self.reservation_address: Optional[int] = None
        self.destroyed = False

    def __repr__(self) -> str:
        state = "destroyed" if self.destroyed else "live"
        return (
            f"<CudaContext #{self.context_id} on {self.device.name} {state} "
            f"allocs={len(self.bases)} owner={self.owner!r}>"
        )
