"""Host-side swap area (paper §4.5).

"Data resides in the host memory, and is moved to the device only on
demand" — the swap area is that host residence: it holds data not yet
allocated on (or swapped out of) the GPU.  Capacity is the node's host
memory (48 GB on the paper's testbed); exhausting it is the Table 1
"Swap memory cannot be allocated" error.
"""

from __future__ import annotations

from typing import Dict

from repro.core.errors import RuntimeApiError, RuntimeErrorCode

__all__ = ["SwapArea"]

_SWAP_BASE = 0x5000_0000_0000
_SWAP_ALIGN = 0x1_0000


class SwapArea:
    """Accounting for the host swap region."""

    #: Host memcpy bandwidth of staging data into or out of the area.
    host_memcpy_bps = 8e9

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("swap capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._used = 0
        self._allocs: Dict[int, int] = {}
        self._next_ptr = _SWAP_BASE
        self.peak_used = 0

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def allocate(self, size: int) -> int:
        """Reserve ``size`` bytes; returns the swap pointer."""
        if size <= 0:
            raise RuntimeApiError(
                RuntimeErrorCode.SWAP_ALLOCATION_FAILED, f"invalid size {size}"
            )
        if size > self.free_bytes:
            raise RuntimeApiError(
                RuntimeErrorCode.SWAP_ALLOCATION_FAILED,
                f"need {size}, free {self.free_bytes}",
            )
        # Bump-pointer from the previous block's end: a fixed stride would
        # let blocks larger than it alias the next block's address range.
        ptr = self._next_ptr
        self._next_ptr = -(-(ptr + size) // _SWAP_ALIGN) * _SWAP_ALIGN
        self._allocs[ptr] = size
        self._used += size
        self.peak_used = max(self.peak_used, self._used)
        return ptr

    def release(self, ptr: int) -> None:
        size = self._allocs.pop(ptr, None)
        if size is None:
            raise RuntimeApiError(
                RuntimeErrorCode.SWAP_DEALLOCATION_FAILED, f"0x{ptr:x} not a swap block"
            )
        self._used -= size

    def write_seconds(self, nbytes: int) -> float:
        """Host memcpy cost of staging ``nbytes`` into the swap area."""
        return nbytes / self.host_memcpy_bps

    def read_seconds(self, nbytes: int) -> float:
        return nbytes / self.host_memcpy_bps
