"""Pluggable eviction policies (repro.core.memory.eviction)."""

import pytest

from repro.core.memory import (
    EVICTION_POLICY_NAMES,
    LruEviction,
    CostAwareEviction,
    PageTableEntry,
    make_eviction_policy,
)

MIB = 1024**2


def _pte(size=MIB, last_use=0.0, chunk=0):
    pte = PageTableEntry(0x7000_0000_0000, size)
    pte.configure_chunks(chunk)
    pte.last_use = last_use
    return pte


def test_registry_names_and_factory():
    assert EVICTION_POLICY_NAMES == ("cost_aware", "lru", "quota_aware")
    for name in EVICTION_POLICY_NAMES:
        assert make_eviction_policy(name).name == name
    with pytest.raises(ValueError):
        make_eviction_policy("random")


def test_lru_orders_by_last_use():
    old, mid, new = _pte(last_use=1.0), _pte(last_use=2.0), _pte(last_use=3.0)
    ordered = LruEviction().order([("c", new), ("c", old), ("c", mid)])
    assert [p for _ctx, p in ordered] == [old, mid, new]


def test_cost_aware_prefers_clean_entries():
    clean = _pte(size=4 * MIB, last_use=9.0)
    dirty = _pte(size=4 * MIB, last_use=1.0)
    dirty.allocate_device(0x1000)
    dirty.kernel_write(1.0)
    ordered = CostAwareEviction().order([("c", dirty), ("c", clean)])
    assert [p for _ctx, p in ordered] == [clean, dirty]


def test_cost_aware_uses_per_chunk_dirtiness():
    """A chunked entry dirty in one of three chunks is cheaper per byte
    freed than an unchunked dirty entry of the same size."""
    partially_dirty = _pte(size=12 * MIB, chunk=4 * MIB)
    partially_dirty.host_write(4 * MIB)
    partially_dirty.allocate_device(0x1000)
    partially_dirty.complete_fault((0, 4 * MIB))
    partially_dirty.kernel_write(1.0)
    fully_dirty = _pte(size=12 * MIB)
    fully_dirty.allocate_device(0x2000)
    fully_dirty.kernel_write(1.0)
    ordered = CostAwareEviction().order(
        [("c", fully_dirty), ("c", partially_dirty)]
    )
    assert [p for _ctx, p in ordered] == [partially_dirty, fully_dirty]
