"""Pluggable eviction policies (repro.core.memory.eviction)."""

import pytest

from repro.core.memory import (
    EVICTION_POLICY_NAMES,
    LfuEviction,
    LruEviction,
    SecondChanceEviction,
    CostAwareEviction,
    PageTableEntry,
    make_eviction_policy,
)

MIB = 1024**2


def _pte(size=MIB, last_use=0.0, use_count=0, referenced=False, chunk=0):
    pte = PageTableEntry(0x7000_0000_0000, size)
    pte.configure_chunks(chunk)
    pte.last_use = last_use
    pte.use_count = use_count
    pte.referenced = referenced
    return pte


def test_registry_names_and_factory():
    assert EVICTION_POLICY_NAMES == (
        "cost_aware", "lfu", "lru", "quota_aware", "second_chance"
    )
    for name in EVICTION_POLICY_NAMES:
        assert make_eviction_policy(name).name == name
    with pytest.raises(ValueError):
        make_eviction_policy("random")


def test_lru_orders_by_last_use():
    old, mid, new = _pte(last_use=1.0), _pte(last_use=2.0), _pte(last_use=3.0)
    ordered = LruEviction().order([("c", new), ("c", old), ("c", mid)])
    assert [p for _ctx, p in ordered] == [old, mid, new]


def test_lfu_orders_by_use_count_then_recency():
    rare = _pte(use_count=1, last_use=9.0)
    frequent = _pte(use_count=5, last_use=1.0)
    tied_older = _pte(use_count=2, last_use=1.0)
    tied_newer = _pte(use_count=2, last_use=2.0)
    ordered = LfuEviction().order(
        [("c", frequent), ("c", tied_newer), ("c", rare), ("c", tied_older)]
    )
    assert [p for _ctx, p in ordered] == [rare, tied_older, tied_newer, frequent]


def test_second_chance_defers_referenced_and_clears_bit():
    a = _pte(referenced=True)
    b = _pte(referenced=False)
    c = _pte(referenced=True)
    ordered = SecondChanceEviction().order([("x", a), ("x", b), ("x", c)])
    # Unreferenced b evicts first; a and c got their second chance.
    assert [p for _ctx, p in ordered] == [b, a, c]
    assert not a.referenced and not c.referenced


def test_second_chance_hand_rotates():
    policy = SecondChanceEviction()
    a, b = _pte(), _pte()
    first = policy.order([("x", a), ("x", b)])
    assert first[0][1] is a  # seq order on the first sweep
    # Hand now at a; the next sweep starts past it.
    second = policy.order([("x", a), ("x", b)])
    assert second[0][1] is b


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
