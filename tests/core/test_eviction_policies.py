"""Partial eviction's victim orderings (``MemoryManager._eviction_order``)."""

from types import SimpleNamespace

import pytest

from repro.core import RuntimeConfig
from repro.core.config import EVICTION_POLICY_NAMES
from repro.core.memory import MemoryManager, PageTableEntry
from repro.core.memory.costmodel import TransferCostModel
from repro.sim import Environment

MIB = 1024**2


def _pte(size=MIB, last_use=0.0, chunk=0):
    pte = PageTableEntry(0x7000_0000_0000, size)
    pte.configure_chunks(chunk)
    pte.last_use = last_use
    return pte


def _manager(policy):
    config = RuntimeConfig(
        eviction_mode="partial",
        eviction_policy=policy,
        locality_binding=policy == "cost_aware",
    )
    mm = MemoryManager(Environment(), config)
    mm.cost_model = TransferCostModel(mm.page_table, mm.swap, scheduler=None)
    return mm


#: A victim context bound to a vGPU of a 5 GB/s-PCIe device.
_CTX = SimpleNamespace(
    vgpu=SimpleNamespace(device=SimpleNamespace(spec=SimpleNamespace(pcie_gbps=5.0))),
    cache_vgpu=None,
)


def test_config_accepts_exactly_the_two_keys():
    assert EVICTION_POLICY_NAMES == ("cost_aware", "lru")
    for name in EVICTION_POLICY_NAMES:
        assert _manager(name).config.eviction_policy == name
    with pytest.raises(ValueError, match="unknown eviction policy"):
        RuntimeConfig(eviction_mode="partial", eviction_policy="quota_aware")


def test_lru_orders_by_last_use():
    old, mid, new = _pte(last_use=1.0), _pte(last_use=2.0), _pte(last_use=3.0)
    ordered = _manager("lru")._eviction_order([("c", new), ("c", old), ("c", mid)])
    assert [p for _ctx, p in ordered] == [old, mid, new]


def test_cost_aware_prefers_clean_entries():
    clean = _pte(size=4 * MIB, last_use=9.0)
    dirty = _pte(size=4 * MIB, last_use=1.0)
    dirty.allocate_device(0x1000)
    dirty.kernel_write(1.0)
    ordered = _manager("cost_aware")._eviction_order([(_CTX, dirty), (_CTX, clean)])
    assert [p for _ctx, p in ordered] == [clean, dirty]


def test_cost_aware_uses_per_chunk_dirtiness():
    """A chunked entry dirty in one of three chunks costs less to evict
    than an unchunked dirty entry of the same size."""
    partially_dirty = _pte(size=12 * MIB, chunk=4 * MIB)
    partially_dirty.host_write(4 * MIB)
    partially_dirty.allocate_device(0x1000)
    partially_dirty.complete_fault((0, 4 * MIB))
    partially_dirty.kernel_write(1.0)
    fully_dirty = _pte(size=12 * MIB)
    fully_dirty.allocate_device(0x2000)
    fully_dirty.kernel_write(1.0)
    ordered = _manager("cost_aware")._eviction_order(
        [(_CTX, fully_dirty), (_CTX, partially_dirty)]
    )
    assert [p for _ctx, p in ordered] == [partially_dirty, fully_dirty]
