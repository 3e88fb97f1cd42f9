"""The page table's residency epoch and the cost model's memoization.

Every PTE state transition (and entry create/remove) bumps
``PageTable.epoch``; :class:`TransferCostModel` caches its O(all-PTEs)
aggregates for exactly one epoch, so pricing every device on every
binding decision stops rescanning an unchanged table — while any real
residency change invalidates the caches immediately.
"""

import types

from repro.core.memory.costmodel import TransferCostModel
from repro.core.memory.page_table import PageTable


class Ctx:
    last_launch_vptrs = ()
    cache_vgpu = None
    vgpu = None
    estimated_gpu_seconds = None
    gpu_seconds_used = 0.0


# ---------------------------------------------------------------------------
# epoch bumps
# ---------------------------------------------------------------------------

def test_epoch_bumps_on_entry_lifecycle():
    pt = PageTable()
    ctx = Ctx()
    e0 = pt.epoch
    pte = pt.create_entry(ctx, 100)
    assert pt.epoch > e0
    e1 = pt.epoch
    pt.remove_entry(ctx, pte)
    assert pt.epoch > e1


def test_epoch_bumps_on_state_transitions():
    pt = PageTable()
    ctx = Ctx()
    pte = pt.create_entry(ctx, 100)
    for mutate in (
        lambda: pte.host_write(),
        lambda: pte.allocate_device(0x1000),
        lambda: pte.complete_fault((0, pte.size)),
        lambda: pte.kernel_write(now=1.0),
        lambda: pte.complete_writeback((0, pte.size)),
        lambda: pte.release_device(),
    ):
        before = pt.epoch
        mutate()
        assert pt.epoch > before, mutate


def test_epoch_bumps_on_drop_context():
    pt = PageTable()
    ctx = Ctx()
    pt.create_entry(ctx, 100)
    before = pt.epoch
    pt.drop_context(ctx)
    assert pt.epoch > before


def test_relocate_device_bumps_and_moves():
    pt = PageTable()
    ctx = Ctx()
    pte = pt.create_entry(ctx, 100)
    pte.host_write()
    pte.allocate_device(0x1000, device_id=0)
    before = pt.epoch
    pte.relocate_device(0x9000, 3)
    assert pt.epoch > before
    assert pte.device_ptr == 0x9000
    assert pte.device_id == 3


# ---------------------------------------------------------------------------
# memoized cost-model aggregates
# ---------------------------------------------------------------------------

def _model(pt):
    config = types.SimpleNamespace(migration_penalty_s=0.0)
    swap = types.SimpleNamespace(host_memcpy_bps=1e9)
    scheduler = types.SimpleNamespace(active_per_device=lambda: {})
    return TransferCostModel(config, pt, swap, scheduler)


def test_working_set_cached_within_one_epoch():
    pt = PageTable()
    ctx = Ctx()
    pt.create_entry(ctx, 100)
    model = _model(pt)
    ws1 = model.working_set(ctx)
    ws2 = model.working_set(ctx)
    assert ws1 is ws2  # identical list object: served from the cache


def test_residency_change_invalidates_cache():
    pt = PageTable()
    ctx = Ctx()
    pte = pt.create_entry(ctx, 100)
    model = _model(pt)
    ws1 = model.working_set(ctx)
    pte.host_write()  # bumps the epoch
    ws2 = model.working_set(ctx)
    assert ws1 is not ws2


def test_dirty_fraction_tracks_epoch():
    pt = PageTable()
    ctx = Ctx()
    pte = pt.create_entry(ctx, 100)
    pte.host_write()
    pte.allocate_device(0x1000, device_id=0)
    pte.complete_fault((0, pte.size))
    model = _model(pt)
    device = types.SimpleNamespace(device_id=0)
    assert model._device_dirty_fraction(device) == 0.0
    pte.kernel_write(now=1.0)  # now dirty; epoch bumped
    assert model._device_dirty_fraction(device) == 1.0


def test_tables_without_epoch_get_no_stale_reuse():
    """Test doubles (plain namespaces) have no epoch: the model must
    recompute every time rather than serve a stale cache."""
    ctx = Ctx()
    entries = [types.SimpleNamespace(virtual_ptr=1, size=10)]
    fake = types.SimpleNamespace(entries_for=lambda c: list(entries))
    model = _model(fake)
    ws1 = model.working_set(ctx)
    ws2 = model.working_set(ctx)
    assert ws1 is not ws2  # no epoch -> no memoization
