"""Unit + property tests for the fragmentation-aware device allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcuda.allocator import DeviceAllocator, OutOfMemory

KIB = 1024
MIB = 1024**2


def test_allocate_returns_distinct_addresses():
    a = DeviceAllocator(1 * MIB)
    p1 = a.allocate(1000)
    p2 = a.allocate(1000)
    assert p1 != p2
    assert a.allocation_count == 2


def test_alignment():
    a = DeviceAllocator(1 * MIB)
    p = a.allocate(1)
    assert p % DeviceAllocator.ALIGNMENT == 0
    assert a.block_containing(p) == (p, DeviceAllocator.ALIGNMENT)


def test_free_returns_bytes_and_coalesces():
    a = DeviceAllocator(1 * MIB)
    p1 = a.allocate(100 * KIB)
    p2 = a.allocate(100 * KIB)
    p3 = a.allocate(100 * KIB)
    a.free(p1)
    a.free(p3)
    a.free(p2)  # middle free must coalesce everything back
    assert a.free_bytes == 1 * MIB
    assert a.largest_free_block == 1 * MIB


def test_oom_on_capacity():
    a = DeviceAllocator(100 * KIB)
    a.allocate(90 * KIB)
    with pytest.raises(OutOfMemory):
        a.allocate(20 * KIB)


def test_fragmentation_blocks_large_alloc_despite_free_bytes():
    """Free bytes may be sufficient while no single block is — the reason
    the paper's runtime must also consult cudaMalloc's return code."""
    a = DeviceAllocator(1 * MIB)
    blocks = [a.allocate(128 * KIB) for _ in range(8)]
    assert a.free_bytes == 0
    # Free alternating blocks -> 512 KiB free but fragmented in 128 KiB holes
    for p in blocks[::2]:
        a.free(p)
    assert a.free_bytes == 512 * KIB
    assert a.largest_free_block == 128 * KIB
    assert not a.can_allocate(256 * KIB)
    with pytest.raises(OutOfMemory):
        a.allocate(256 * KIB)
    assert a.fragmentation() > 0.5


def test_double_free_raises():
    a = DeviceAllocator(1 * MIB)
    p = a.allocate(1000)
    a.free(p)
    with pytest.raises(KeyError):
        a.free(p)


def test_free_unknown_address_raises():
    a = DeviceAllocator(1 * MIB)
    with pytest.raises(KeyError):
        a.free(0xDEAD)


def test_zero_and_negative_sizes_rejected():
    a = DeviceAllocator(1 * MIB)
    with pytest.raises(ValueError):
        a.allocate(0)
    with pytest.raises(ValueError):
        a.allocate(-5)
    assert not a.can_allocate(0)


def test_block_containing_resolves_base_and_interior_addresses():
    a = DeviceAllocator(1 * MIB)
    p = a.allocate(100 * KIB)
    q = a.allocate(50 * KIB)
    assert a.block_containing(p) == (p, 100 * KIB)
    assert a.block_containing(p + 1) == (p, 100 * KIB)
    assert a.block_containing(p + 100 * KIB - 1) == (p, 100 * KIB)
    # One past the end is the next allocation's base.
    assert a.block_containing(p + 100 * KIB) == (q, 50 * KIB)
    # Below the address space, and inside the free tail.
    assert a.block_containing(DeviceAllocator.BASE_ADDRESS - 1) is None
    assert a.block_containing(q + 50 * KIB) is None
    a.free(p)
    assert a.block_containing(p) is None
    assert a.block_containing(p + 1) is None


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        DeviceAllocator(0)


def test_base_address_nonzero():
    a = DeviceAllocator(1 * MIB)
    assert a.allocate(100) >= DeviceAllocator.BASE_ADDRESS


# ---------------------------------------------------------------------------
# property-based: the allocator never loses or invents memory, never
# overlaps live allocations, and always coalesces adjacent free blocks.
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 64 * KIB)),
        min_size=1,
        max_size=60,
    )
)
def test_allocator_invariants(ops):
    a = DeviceAllocator(512 * KIB)
    live = []
    for kind, size in ops:
        if kind == "alloc":
            # First fit over the block list: the lowest-address block
            # that holds the aligned request, if any.
            need = a._round_up(size)
            first = next((addr for addr, blk in a._free if blk >= need), None)
            try:
                p = a.allocate(size)
            except OutOfMemory:
                # OOM must only happen when no block fits.
                assert first is None
                continue
            assert p == first
            live.append(p)
        elif live:
            idx = size % len(live)
            a.free(live.pop(idx))

        # Invariant 1: conservation of bytes.
        assert a.used_bytes + a.free_bytes == a.capacity
        # Invariant 2: live allocations do not overlap.
        spans = sorted(
            (addr, addr + a.block_containing(addr)[1]) for addr in live
        )
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        # Invariant 2b: an allocation's last byte resolves to it.
        for start, end in spans:
            assert a.block_containing(end - 1) == (start, end - start)
        # Invariant 3: free list is sorted, non-overlapping, coalesced.
        free = a._free
        for (a1, n1), (a2, _n2) in zip(free, free[1:]):
            assert a1 + n1 < a2  # strictly apart (equal would mean uncoalesced)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 32 * KIB), min_size=1, max_size=40))
def test_alloc_all_then_free_all_restores_capacity(sizes):
    a = DeviceAllocator(4 * MIB)
    ptrs = []
    for s in sizes:
        ptrs.append(a.allocate(s))
    for p in reversed(ptrs):
        a.free(p)
    assert a.free_bytes == a.capacity
    assert a.largest_free_block == a.capacity


# ---------------------------------------------------------------------------
# O(1) bookkeeping (running free-byte total + size multiset).
# ---------------------------------------------------------------------------

def _bookkeeping_consistent(a: DeviceAllocator) -> None:
    """The O(1) accounting must equal a recount over the block list."""
    assert a.free_bytes == sum(size for _addr, size in a._free)
    assert sorted(size for _addr, size in a._free) == a._sizes
    assert a.largest_free_block == (
        max((size for _addr, size in a._free), default=0)
    )


def test_both_neighbour_coalescing_merges_into_one_block():
    """Freeing the middle of three adjacent blocks must absorb both
    neighbours in a single merge (one block, one multiset entry)."""
    a = DeviceAllocator(1 * MIB)
    p1 = a.allocate(64 * KIB)
    p2 = a.allocate(64 * KIB)
    p3 = a.allocate(64 * KIB)
    guard = a.allocate(64 * KIB)  # keeps the tail block separate
    a.free(p1)
    a.free(p3)
    assert len(a._free) == 3  # hole, hole, tail
    a.free(p2)  # both-neighbour merge
    assert len(a._free) == 2  # merged hole + tail
    assert (p1, 192 * KIB) in a._free
    _bookkeeping_consistent(a)
    a.free(guard)
    assert a._free == [(DeviceAllocator.BASE_ADDRESS, a.capacity)]
    _bookkeeping_consistent(a)


def test_exact_fit_removes_block_entirely():
    """An allocation that consumes a free block exactly must remove it
    from both the block list and the size multiset (no zero-size stub)."""
    a = DeviceAllocator(1 * MIB)
    p1 = a.allocate(100 * KIB)
    a.allocate(100 * KIB)  # guard so the hole stays isolated
    a.free(p1)
    assert 100 * KIB in a._sizes
    p = a.allocate(100 * KIB)  # exact fit into the hole
    assert p == p1
    assert 100 * KIB not in a._sizes
    assert all(size > 0 for _addr, size in a._free)
    _bookkeeping_consistent(a)


def test_alignment_rounding_accounts_rounded_size():
    """free_bytes must drop by the ALIGNMENT-rounded size, not the
    requested size, and oddly-sized frees must restore it exactly."""
    a = DeviceAllocator(1 * MIB)
    p = a.allocate(DeviceAllocator.ALIGNMENT + 1)
    assert a.block_containing(p) == (p, 2 * DeviceAllocator.ALIGNMENT)
    assert a.free_bytes == a.capacity - 2 * DeviceAllocator.ALIGNMENT
    assert a.free(p) == 2 * DeviceAllocator.ALIGNMENT
    assert a.free_bytes == a.capacity
    _bookkeeping_consistent(a)


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(1, 64 * KIB)),
        min_size=1,
        max_size=60,
    ),
)
def test_o1_bookkeeping_matches_block_list(ops):
    """The running total and size multiset never drift from the block
    list across arbitrary alloc/free churn."""
    a = DeviceAllocator(512 * KIB)
    live = []
    for kind, size in ops:
        if kind == "alloc":
            try:
                live.append(a.allocate(size))
            except OutOfMemory:
                assert a.largest_free_block < a._round_up(size)
        elif live:
            a.free(live.pop(size % len(live)))
        _bookkeeping_consistent(a)
        assert a.used_bytes + a.free_bytes == a.capacity
