"""Tests for the host swap area."""

import pytest

from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.memory.swap import SwapArea

MIB = 1024**2


def test_allocate_release_accounting():
    swap = SwapArea(100 * MIB)
    p = swap.allocate(30 * MIB)
    assert swap.used_bytes == 30 * MIB
    assert swap.free_bytes == 70 * MIB
    swap.release(p)
    assert swap.used_bytes == 0


def test_exhaustion_is_table1_error():
    swap = SwapArea(10 * MIB)
    swap.allocate(8 * MIB)
    with pytest.raises(RuntimeApiError) as e:
        swap.allocate(4 * MIB)
    assert e.value.code == RuntimeErrorCode.SWAP_ALLOCATION_FAILED


def test_release_unknown_is_table1_error():
    swap = SwapArea(10 * MIB)
    with pytest.raises(RuntimeApiError) as e:
        swap.release(0x123)
    assert e.value.code == RuntimeErrorCode.SWAP_DEALLOCATION_FAILED


def test_invalid_size_rejected():
    swap = SwapArea(10 * MIB)
    with pytest.raises(RuntimeApiError):
        swap.allocate(0)
    with pytest.raises(RuntimeApiError):
        swap.allocate(-1)


def test_peak_tracking():
    swap = SwapArea(100 * MIB)
    a = swap.allocate(40 * MIB)
    b = swap.allocate(40 * MIB)
    swap.release(a)
    swap.release(b)
    assert swap.peak_used == 80 * MIB
    assert swap.used_bytes == 0


def test_distinct_pointers():
    swap = SwapArea(100 * MIB)
    assert swap.allocate(MIB) != swap.allocate(MIB)


def test_blocks_never_overlap():
    """Regression: a fixed per-block stride let blocks larger than the
    stride alias the next block's address range."""
    swap = SwapArea(16 * 1024**3)
    sizes = [6 * 1024**3, 5 * 1024**3, MIB, 3 * MIB]
    blocks = sorted((swap.allocate(s), s) for s in sizes)
    for (ptr, size), (next_ptr, _next_size) in zip(blocks, blocks[1:]):
        assert ptr + size <= next_ptr, (
            f"block [0x{ptr:x}, +{size}) overlaps block at 0x{next_ptr:x}"
        )


def test_huge_block_then_neighbor_distinct_ranges():
    swap = SwapArea(10 * 1024**3)
    big = swap.allocate(5 * 1024**3)  # > the old 4 GiB stride
    small = swap.allocate(MIB)
    assert small >= big + 5 * 1024**3


def test_transfer_timing_helpers():
    swap = SwapArea(100 * MIB)
    assert swap.write_seconds(8_000_000_000) == pytest.approx(1.0)
    assert swap.read_seconds(4_000_000_000) == pytest.approx(0.5)


def test_capacity_validation():
    with pytest.raises(ValueError):
        SwapArea(0)
