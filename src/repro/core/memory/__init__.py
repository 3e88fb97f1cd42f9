"""Virtual memory for GPUs (paper §4.5).

Applications see *virtual* addresses generated by the runtime; data lives
in the host-side swap area and moves to the device only on demand, making
host memory a lower level of the memory hierarchy.  The page table stores
the translation and the state flags driving allocations, de-allocations
and transfers (paper Figure 4 / Table 1).  Large allocations may be
chunked (``RuntimeConfig.swap_chunk_bytes``) so transfers move only the
data that exists, and device-wide partial eviction
(``RuntimeConfig.eviction_mode="partial"``) frees only the bytes a launch
needs, ordered by a pluggable eviction policy.
"""

from repro.core.memory.page_table import Chunk, EntryType, PageTable, PageTableEntry
from repro.core.memory.swap import SwapArea
from repro.core.memory.eviction import (
    CostAwareEviction,
    EVICTION_POLICY_NAMES,
    EvictionPolicy,
    LruEviction,
    make_eviction_policy,
)
from repro.core.memory.manager import MemoryManager, NeedRetry
from repro.core.memory.nested import NestedStructure

__all__ = [
    "Chunk",
    "CostAwareEviction",
    "EVICTION_POLICY_NAMES",
    "EntryType",
    "EvictionPolicy",
    "LruEviction",
    "MemoryManager",
    "NeedRetry",
    "NestedStructure",
    "PageTable",
    "PageTableEntry",
    "SwapArea",
    "make_eviction_policy",
]
