"""Device-memory allocator with fragmentation (first-fit placement).

The paper notes that "because of possible memory fragmentation on GPU, the
runtime may need to use the return code of the GPU memory allocation
function to ensure that the request can be honored" (§4.5) — i.e. coarse
free-byte accounting is not enough.  This allocator models placement
explicitly so that fragmentation is observable: total free bytes may be
sufficient while no single free block is.

Addresses are plain integers within ``[base, base + capacity)``.  A small
non-zero ``base`` keeps ``0`` available as a NULL-pointer sentinel.

``free_bytes`` and ``largest_free_block`` are O(1): they sit on the
per-launch admission and partial-eviction hot paths, which poll them
after every victim write-back.  A running free-byte total and a sorted
multiset of free-block sizes are maintained alongside the block list.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

__all__ = ["DeviceAllocator", "OutOfMemory"]


class OutOfMemory(Exception):
    """Requested block cannot be placed (capacity or fragmentation)."""


class DeviceAllocator:
    """First-fit placement allocator over a contiguous device address
    space: a request takes the lowest-address free block that fits."""

    #: Allocation granularity (CUDA rounds allocations up; 256 B matches
    #: the alignment cudaMalloc guarantees).
    ALIGNMENT = 256
    BASE_ADDRESS = 0x0200_0000

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        #: Sorted list of (address, size) free blocks.
        self._free: List[Tuple[int, int]] = [(self.BASE_ADDRESS, self.capacity)]
        #: address -> size for live allocations: the device's one record
        #: of what is allocated where.
        self._live: Dict[int, int] = {}
        #: Running total of free bytes (kept in sync with ``_free``).
        self._free_total = self.capacity
        #: Sorted multiset of free-block sizes (kept in sync with ``_free``).
        self._sizes: List[int] = [self.capacity]

    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        """Total free bytes (may be fragmented).  O(1)."""
        return self._free_total

    @property
    def used_bytes(self) -> int:
        return self.capacity - self._free_total

    @property
    def largest_free_block(self) -> int:
        """Size of the largest single free block.  O(1)."""
        return self._sizes[-1] if self._sizes else 0

    @property
    def allocation_count(self) -> int:
        return len(self._live)

    def fragmentation(self) -> float:
        """1 - largest_free_block/free_bytes; 0 when free space is one block."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_block / free

    # ------------------------------------------------------------------
    @classmethod
    def _round_up(cls, size: int) -> int:
        return (size + cls.ALIGNMENT - 1) // cls.ALIGNMENT * cls.ALIGNMENT

    def can_allocate(self, size: int) -> bool:
        """True if a block of ``size`` bytes can be placed right now."""
        if size <= 0:
            return False
        return self._round_up(size) <= self.largest_free_block

    def allocate(self, size: int) -> int:
        """Place a block; returns its device address.

        Raises
        ------
        OutOfMemory
            If no single free block can hold the (aligned) request.
        ValueError
            If ``size`` is not positive.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        need = self._round_up(size)
        # First fit finds a block exactly when the largest one is big
        # enough, so a request that cannot be placed costs no scan.
        largest = self._sizes[-1] if self._sizes else 0
        if need > largest:
            raise OutOfMemory(f"cannot place {need} bytes: largest free block {largest}")
        for idx, (addr, blk) in enumerate(self._free):
            if blk >= need:
                break
        self._remove_size(blk)
        if blk == need:
            self._free.pop(idx)
        else:
            self._free[idx] = (addr + need, blk - need)
            self._add_size(blk - need)
        self._free_total -= need
        self._live[addr] = need
        return addr

    def free(self, address: int) -> int:
        """Release a live allocation; returns the freed byte count.

        Raises
        ------
        KeyError
            If ``address`` is not a live allocation (double free / bad ptr).
        """
        size = self._live.pop(address)  # KeyError on bad address
        self._insert_free(address, size)
        return size

    def block_containing(self, address: int) -> Optional[Tuple[int, int]]:
        """``(base, size)`` of the live allocation holding ``address``,
        or None.  A base is one dict read; an interior address (a chunked
        entry's run past offset 0) scans the live allocations."""
        size = self._live.get(address)
        if size is not None:
            return address, size
        for base, size in self._live.items():
            if base <= address < base + size:
                return base, size
        return None

    # ------------------------------------------------------------------
    def _add_size(self, size: int) -> None:
        bisect.insort(self._sizes, size)

    def _remove_size(self, size: int) -> None:
        idx = bisect.bisect_left(self._sizes, size)
        self._sizes.pop(idx)

    def _insert_free(self, addr: int, size: int) -> None:
        """Insert a free block, coalescing with neighbours."""
        self._free_total += size
        idx = bisect.bisect_left(self._free, (addr, 0))
        # Coalesce with predecessor.
        if idx > 0:
            prev_addr, prev_size = self._free[idx - 1]
            if prev_addr + prev_size == addr:
                addr = prev_addr
                size += prev_size
                self._free.pop(idx - 1)
                self._remove_size(prev_size)
                idx -= 1
        # Coalesce with successor.
        if idx < len(self._free):
            next_addr, next_size = self._free[idx]
            if addr + size == next_addr:
                size += next_size
                self._free.pop(idx)
                self._remove_size(next_size)
        self._free.insert(idx, (addr, size))
        self._add_size(size)

    def __repr__(self) -> str:
        return (
            f"<DeviceAllocator used={self.used_bytes} "
            f"free={self.free_bytes} blocks={len(self._free)} live={len(self._live)}>"
        )
