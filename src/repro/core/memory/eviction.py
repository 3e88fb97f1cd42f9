"""Pluggable eviction policies for partial (device-wide) swapping.

The paper's inter-application swap always evicts a whole victim context —
simple, but it moves every resident byte of the victim when the requester
may need a fraction of that.  ``RuntimeConfig.eviction_mode="partial"``
replaces it with a device-wide eviction loop that frees *only*
``required_bytes`` worth of entries, picked by one of the policies here
(registered by name, exactly like the scheduler policies in
:mod:`repro.core.policies`).  Whole-context swap-out remains the
correctness path for unbind, migration and checkpointing.

A policy orders *candidates* — ``(context, PageTableEntry)`` pairs of
resident entries belonging to eviction-eligible victim contexts — and the
eviction loop walks that order until enough bytes are free.

``lru``
    Least recently used entry first (the launch-time ``last_use`` stamp).
``cost_aware``
    Cheapest eviction first: minimize dirty-bytes-to-write-back per byte
    freed (a clean entry frees memory without moving any data), with LRU
    as the tie-break.
``quota_aware``
    Multi-tenant QoS layer over LRU (repro.qos): entries of tenants
    running *over* their device-memory quota are evicted first (most
    overcommitted tenant first), so memory pressure lands on whoever
    exceeded their contract before touching compliant tenants.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.core.memory.page_table import PageTableEntry

__all__ = [
    "EvictionPolicy",
    "LruEviction",
    "CostAwareEviction",
    "QuotaAwareEviction",
    "EVICTION_POLICY_NAMES",
    "make_eviction_policy",
]

#: One candidate: (victim context, resident page-table entry).
Candidate = Tuple[Any, PageTableEntry]


class EvictionPolicy:
    """Orders eviction candidates; the loop evicts front-to-back."""

    name = "abstract"

    def order(self, candidates: List[Candidate]) -> List[Candidate]:
        raise NotImplementedError


class LruEviction(EvictionPolicy):
    """Least-recently-used entry first (allocation order as tie-break)."""

    name = "lru"

    def order(self, candidates: List[Candidate]) -> List[Candidate]:
        return sorted(candidates, key=lambda c: (c[1].last_use, c[1].seq))


class CostAwareEviction(EvictionPolicy):
    """Minimize dirty bytes written back per byte freed.

    A clean entry costs nothing to evict (release only); a fully dirty
    chunked entry costs its dirty chunks; an unchunked dirty entry costs
    its whole size.  Ties break LRU-first.

    Given ``cost_fn(ctx, pte) -> seconds`` (the memory manager passes
    the transfer-cost model's under ``locality_binding``), the ordering uses
    the *modeled* eviction cost instead — write-back seconds now plus
    the recency-discounted re-fault seconds later — so eviction, binding
    and migration all price a byte of data movement consistently.
    """

    name = "cost_aware"

    def __init__(
        self, cost_fn: Optional[Callable[[Any, PageTableEntry], float]] = None
    ) -> None:
        self.cost_fn = cost_fn

    def order(self, candidates: List[Candidate]) -> List[Candidate]:
        if self.cost_fn is not None:
            cost = self.cost_fn
            return sorted(candidates, key=lambda c: (cost(c[0], c[1]), c[1].seq))
        return sorted(
            candidates,
            key=lambda c: (
                c[1].dirty_bytes() / c[1].size,
                c[1].last_use,
                c[1].seq,
            ),
        )


class QuotaAwareEviction(EvictionPolicy):
    """Over-quota tenants' entries first, LRU within a tier.

    ``overage_fn(ctx) -> bytes`` reports how far a candidate context's
    tenant currently sits above its device-memory quota (0 for compliant
    tenants, tenant-less contexts, or when QoS is off); the memory
    manager passes it at construction.  Candidates sort by descending
    overage, then LRU — with everyone compliant the ordering degrades to
    exactly :class:`LruEviction`.
    """

    name = "quota_aware"

    def __init__(self, overage_fn: Optional[Callable[[Any], int]] = None) -> None:
        self.overage_fn = overage_fn

    def order(self, candidates: List[Candidate]) -> List[Candidate]:
        overage = self.overage_fn or (lambda ctx: 0)
        return sorted(
            candidates,
            key=lambda c: (-overage(c[0]), c[1].last_use, c[1].seq),
        )


#: name -> factory(cost_fn, overage_fn)
_POLICIES = {
    "lru": lambda cost_fn, overage_fn: LruEviction(),
    "cost_aware": lambda cost_fn, overage_fn: CostAwareEviction(cost_fn),
    "quota_aware": lambda cost_fn, overage_fn: QuotaAwareEviction(overage_fn),
}

EVICTION_POLICY_NAMES: Tuple[str, ...] = tuple(sorted(_POLICIES))


def make_eviction_policy(
    name: str,
    cost_fn: Optional[Callable[[Any, PageTableEntry], float]] = None,
    overage_fn: Optional[Callable[[Any], int]] = None,
) -> EvictionPolicy:
    """Instantiate an eviction policy by its registered name, handing
    ``cost_aware`` its ``cost_fn`` and ``quota_aware`` its
    ``overage_fn``."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None
    return factory(cost_fn, overage_fn)
