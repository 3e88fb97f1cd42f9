"""Errors the runtime returns to applications.

Table 1 of the paper enumerates, per intercepted call, the errors the
*runtime itself* can generate (on top of forwarding CUDA result codes):
"A virtual address cannot be assigned", "Swap memory cannot be
allocated", "No valid PTE", "Swap-data size mismatch", "Cannot
de-allocate swap".
"""

from __future__ import annotations

import enum

__all__ = ["RuntimeErrorCode", "RuntimeApiError"]


class RuntimeErrorCode(enum.Enum):
    """Error classes introduced by the runtime (paper Table 1)."""

    VIRTUAL_ADDRESS_EXHAUSTED = "A virtual address cannot be assigned"
    SWAP_ALLOCATION_FAILED = "Swap memory cannot be allocated"
    NO_VALID_PTE = "No valid PTE"
    SWAP_SIZE_MISMATCH = "Swap-data size mismatch"
    SWAP_DEALLOCATION_FAILED = "Cannot de-allocate swap"
    KERNEL_FOOTPRINT_TOO_LARGE = "Kernel working set exceeds every device's capacity"
    CONTEXT_FAILED = "Context failed and could not be recovered"
    NESTED_NOT_REGISTERED = "Nested structure used without registration"
    # Multi-tenant QoS (repro.qos): surfaced through the allocation path
    # instead of letting one tenant degrade the node.
    TENANT_QUOTA_EXCEEDED = "Tenant resource quota exceeded"
    # Control-plane batching / graph replay.
    BATCH_ABORTED = "Call aborted: an earlier call in its batch failed"
    GRAPH_INVALID = "Graph handle unknown or capture sequence invalid"


class RuntimeApiError(Exception):
    """Raised (and marshalled back to the application) by the runtime."""

    def __init__(self, code: RuntimeErrorCode, message: str = ""):
        self.code = code
        super().__init__(f"{code.name}: {message}" if message else code.value)
