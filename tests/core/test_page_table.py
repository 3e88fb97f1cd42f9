"""Unit + property tests for the page table and the Figure 4 state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.memory.page_table import (
    EntryType,
    PageTable,
    PageTableEntry,
    VIRTUAL_BASE,
)


class Ctx:
    """Stand-in context object (the page table only uses identity)."""

    def __repr__(self):
        return "<ctx>"


def test_create_entry_assigns_distinct_virtual_addresses():
    pt = PageTable()
    ctx = Ctx()
    a = pt.create_entry(ctx, 1000)
    b = pt.create_entry(ctx, 1000)
    assert a.virtual_ptr != b.virtual_ptr
    assert a.virtual_ptr >= VIRTUAL_BASE


def test_lookup_translates_and_isolates():
    pt = PageTable()
    ctx1, ctx2 = Ctx(), Ctx()
    pte = pt.create_entry(ctx1, 100)
    assert pt.lookup(ctx1, pte.virtual_ptr) is pte
    # Isolation: another context cannot resolve the pointer.
    with pytest.raises(RuntimeApiError) as e:
        pt.lookup(ctx2, pte.virtual_ptr)
    assert e.value.code == RuntimeErrorCode.NO_VALID_PTE


def test_lookup_unknown_pointer_fails():
    pt = PageTable()
    with pytest.raises(RuntimeApiError):
        pt.lookup(Ctx(), 0xDEADBEEF)


def test_allocated_bytes_counts_resident_only():
    pt = PageTable()
    ctx = Ctx()
    a = pt.create_entry(ctx, 100)
    b = pt.create_entry(ctx, 200)
    assert pt.allocated_bytes(ctx) == 0
    a.allocate_device(0x1000)
    assert pt.allocated_bytes(ctx) == 100
    b.allocate_device(0x2000)
    assert pt.allocated_bytes(ctx) == 300
    assert pt.total_bytes(ctx) == 300


def test_drop_context_removes_everything():
    pt = PageTable()
    ctx = Ctx()
    ptes = [pt.create_entry(ctx, 10) for _ in range(3)]
    dropped = pt.drop_context(ctx)
    assert len(dropped) == 3
    for pte in ptes:
        with pytest.raises(RuntimeApiError):
            pt.lookup(ctx, pte.virtual_ptr)


def test_virtual_address_exhaustion_error():
    """Table 1: 'A virtual address cannot be assigned'."""
    pt = PageTable()
    pt.virtual_space_limit = VIRTUAL_BASE + 1024
    ctx = Ctx()
    pt.create_entry(ctx, 1024)
    with pytest.raises(RuntimeApiError) as e:
        pt.create_entry(ctx, 1)
    assert e.value.code == RuntimeErrorCode.VIRTUAL_ADDRESS_EXHAUSTED


# ---------------------------------------------------------------------------
# Figure 4 state machine
# ---------------------------------------------------------------------------

def fresh_pte():
    return PageTableEntry(VIRTUAL_BASE, 1024, EntryType.LINEAR)


def test_initial_state_fff():
    pte = fresh_pte()
    assert pte.flags == (False, False, False)
    pte.check_invariants()


def test_host_write_moves_to_ftf():
    pte = fresh_pte()
    pte.host_write()
    assert pte.flags == (False, True, False)


def test_launch_sequence_reaches_tft():
    """malloc → copyHD → (allocate, transfer, kernel write) = T/F/T."""
    pte = fresh_pte()
    pte.host_write()
    pte.allocate_device(0x1000)
    assert pte.flags == (True, True, False)
    pte.complete_fault((0, pte.size))
    assert pte.flags == (True, False, False)
    pte.kernel_write(now=1.0)
    assert pte.flags == (True, False, True)
    assert pte.last_use == 1.0


def test_copy_dh_cleans_dirty_state():
    pte = fresh_pte()
    pte.host_write()
    pte.allocate_device(0x1000)
    pte.complete_fault((0, pte.size))
    pte.kernel_write(now=0)
    pte.complete_writeback((0, pte.size))
    assert pte.flags == (True, False, False)


def test_swap_out_returns_to_host_only_state():
    pte = fresh_pte()
    pte.host_write()
    pte.allocate_device(0x1000)
    pte.complete_fault((0, pte.size))
    pte.kernel_write(now=0)
    pte.complete_writeback((0, pte.size))
    pte.release_device()
    assert pte.flags == (False, True, False)
    assert pte.device_ptr is None


def test_release_while_dirty_asserts():
    """Swap must write back before dropping the device copy."""
    pte = fresh_pte()
    pte.host_write()
    pte.allocate_device(0x1000)
    pte.complete_fault((0, pte.size))
    pte.kernel_write(now=0)
    with pytest.raises(AssertionError):
        pte.release_device()


def test_kernel_read_does_not_dirty():
    pte = fresh_pte()
    pte.host_write()
    pte.allocate_device(0x1000)
    pte.complete_fault((0, pte.size))
    pte.kernel_read(now=2.0)
    assert pte.flags == (True, False, False)
    assert pte.last_use == 2.0


class PteStateMachine(RuleBasedStateMachine):
    """Random walks over the Figure 4 transitions can only ever visit the
    five legal states."""

    def __init__(self):
        super().__init__()
        self.pte = fresh_pte()
        self.clock = 0.0

    @rule()
    def host_write(self):
        self.pte.host_write()

    @precondition(lambda self: not self.pte.is_allocated)
    @rule()
    def allocate(self):
        self.pte.allocate_device(0x1000)

    @precondition(lambda self: self.pte.is_allocated and self.pte.to_copy_2dev)
    @rule()
    def transfer_h2d(self):
        self.pte.complete_fault((0, self.pte.size))

    @precondition(
        lambda self: self.pte.is_allocated and not self.pte.to_copy_2dev
    )
    @rule(write=st.booleans())
    def kernel(self, write):
        self.clock += 1
        if write:
            self.pte.kernel_write(self.clock)
        else:
            self.pte.kernel_read(self.clock)

    @precondition(lambda self: self.pte.to_copy_2swap)
    @rule()
    def write_back(self):
        self.pte.complete_writeback((0, self.pte.size))

    @precondition(
        lambda self: self.pte.is_allocated and not self.pte.to_copy_2swap
    )
    @rule()
    def release(self):
        self.pte.release_device()

    @invariant()
    def always_legal(self):
        self.pte.check_invariants()


TestPteStateMachine = PteStateMachine.TestCase
TestPteStateMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


@given(sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_virtual_addresses_never_overlap(sizes):
    pt = PageTable()
    ctx = Ctx()
    spans = []
    for s in sizes:
        pte = pt.create_entry(ctx, s)
        spans.append((pte.virtual_ptr, pte.virtual_ptr + s))
    spans.sort()
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2
