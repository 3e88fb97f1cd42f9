"""Bitmap chunk state ≡ the historical per-``Chunk``-object semantics.

The interned bit-vector representation on :class:`PageTableEntry` must be
*bit-identical* to the per-chunk Figure-4 state machine it replaced: the
property test below drives a reference implementation (a faithful copy of
the old per-``Chunk`` object model) and the bitmap entry through the same
random mutation sequences and asserts identical coalesced runs, flags,
byte counts — and identical page-table epoch bumps, so memoization keyed
on the epoch can never observe a divergence either.

A whole (unchunked) entry is the same bitmap machine with one chunk.
The second reference below is the paper's three-flag Figure-4 machine
(the five legal states and the whole-entry transitions) that one-chunk
entries must reproduce exactly.

Plus the payoff assertion: the packed state of a multi-GiB chunked entry
is a few hundred bytes of integers, not tens of thousands of Python
objects.
"""

import itertools
import sys
from types import SimpleNamespace

import pytest

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    HAVE_HYPOTHESIS = False

from repro.core.memory.page_table import PageTableEntry

MIB = 1024**2


# ---------------------------------------------------------------------------
# reference implementation: the old per-Chunk object model, verbatim logic
# ---------------------------------------------------------------------------
class _RefChunk:
    __slots__ = ("offset", "size", "valid", "to_copy_2dev", "to_copy_2swap")

    def __init__(self, offset, size):
        self.offset = offset
        self.size = size
        self.valid = False
        self.to_copy_2dev = False
        self.to_copy_2swap = False


class _RefEntry:
    """The pre-bitmap chunked state machine (per-chunk Python objects)."""

    def __init__(self, size, chunk_bytes):
        self.size = size
        self.is_allocated = False
        self.to_copy_2dev = False
        self.to_copy_2swap = False
        self.epoch = 0
        assert 0 < chunk_bytes < size
        self.chunks = [
            _RefChunk(offset, min(chunk_bytes, size - offset))
            for offset in range(0, size, chunk_bytes)
        ]

    def _bump(self):
        self.epoch += 1

    def _sync_flags(self):
        self.to_copy_2dev = any(c.to_copy_2dev for c in self.chunks)
        self.to_copy_2swap = any(c.to_copy_2swap for c in self.chunks)

    @staticmethod
    def _coalesce(chunks):
        runs = []
        for c in chunks:
            if runs and runs[-1][0] + runs[-1][1] == c.offset:
                runs[-1] = (runs[-1][0], runs[-1][1] + c.size)
            else:
                runs.append((c.offset, c.size))
        return runs

    def _chunks_in(self, run):
        offset, nbytes = run
        return [c for c in self.chunks if offset <= c.offset < offset + nbytes]

    def host_write(self, nbytes=None):
        self._bump()
        covered = self.size if nbytes is None else min(nbytes, self.size)
        for c in self.chunks:
            if c.offset < covered:
                c.valid = True
                c.to_copy_2dev = True
                c.to_copy_2swap = False
        self._sync_flags()

    def allocate_device(self):
        self._bump()
        self.is_allocated = True

    def kernel_write(self):
        self._bump()
        assert self.is_allocated and not self.to_copy_2dev
        if not any(c.valid for c in self.chunks):
            for c in self.chunks:
                c.valid = True
                c.to_copy_2swap = True
        else:
            for c in self.chunks:
                if c.valid:
                    c.to_copy_2swap = True
        self._sync_flags()

    def fault_runs(self):
        return self._coalesce(c for c in self.chunks if c.to_copy_2dev)

    def complete_fault(self, run):
        assert self.is_allocated
        self._bump()
        for c in self._chunks_in(run):
            c.to_copy_2dev = False
        self._sync_flags()

    def writeback_runs(self):
        return self._coalesce(c for c in self.chunks if c.to_copy_2swap)

    def complete_writeback(self, run):
        self._bump()
        for c in self._chunks_in(run):
            c.to_copy_2swap = False
        self._sync_flags()

    def device_current_runs(self):
        return self._coalesce(
            c for c in self.chunks if c.valid and not c.to_copy_2dev
        )

    def release_device(self):
        assert not self.to_copy_2swap
        self._bump()
        self.is_allocated = False
        for c in self.chunks:
            if c.valid:
                c.to_copy_2dev = True
        self._sync_flags()

    def drop_device_state(self):
        self._bump()
        self.is_allocated = False
        for c in self.chunks:
            c.to_copy_2swap = False
            if c.valid:
                c.to_copy_2dev = True
        self._sync_flags()

    def discard_device_dirty(self):
        self._bump()
        for c in self.chunks:
            c.to_copy_2swap = False
        self._sync_flags()

    def fault_bytes(self):
        return sum(n for _o, n in self.fault_runs())

    def dirty_bytes(self):
        return sum(n for _o, n in self.writeback_runs())

    def valid_bytes(self):
        return sum(c.size for c in self.chunks if c.valid)


# ---------------------------------------------------------------------------
# reference implementation: the whole-entry Figure-4 flag machine
# ---------------------------------------------------------------------------
#: The five legal (isAllocated, toCopy2Dev, toCopy2Swap) states of Figure 4.
_LEGAL_STATES = {
    (False, False, False),  # created, nothing anywhere yet
    (False, True, False),   # data in swap only
    (True, False, False),   # resident, device and swap in sync
    (True, True, False),    # resident, swap copy is newer (host overwrote)
    (True, False, True),    # resident, device copy is newer (kernel wrote)
}


class _RefWholeEntry:
    """Three flags, no chunks: every transition covers the allocation."""

    def __init__(self, size):
        self.size = size
        self.is_allocated = False
        self.to_copy_2dev = False
        self.to_copy_2swap = False
        self.epoch = 0

    @property
    def flags(self):
        return (self.is_allocated, self.to_copy_2dev, self.to_copy_2swap)

    @property
    def chunks(self):
        # The one chunk always holds data: in swap, on device, or both.
        return [SimpleNamespace(valid=True, to_copy_2dev=self.to_copy_2dev,
                                to_copy_2swap=self.to_copy_2swap)]

    def _whole_if(self, flag):
        return [(0, self.size)] if flag else []

    def host_write(self, nbytes=None):  # the extent is ignored
        self.epoch += 1
        self.to_copy_2dev = True
        self.to_copy_2swap = False

    def allocate_device(self):
        self.epoch += 1
        self.is_allocated = True

    def complete_fault(self, run):
        assert self.is_allocated
        self.epoch += 1
        self.to_copy_2dev = False

    def kernel_write(self):
        assert self.is_allocated and not self.to_copy_2dev
        self.epoch += 1
        self.to_copy_2swap = True

    def complete_writeback(self, run):
        self.epoch += 1
        self.to_copy_2swap = False

    def release_device(self):
        assert not self.to_copy_2swap
        self.epoch += 1
        self.is_allocated = False
        self.to_copy_2dev = True

    def drop_device_state(self):
        self.epoch += 1
        self.is_allocated = False
        self.to_copy_2swap = False
        self.to_copy_2dev = True

    def discard_device_dirty(self):
        self.epoch += 1
        self.to_copy_2swap = False

    def fault_runs(self):
        return self._whole_if(self.to_copy_2dev)

    def writeback_runs(self):
        return self._whole_if(self.to_copy_2swap)

    def device_current_runs(self):
        return self._whole_if(not self.to_copy_2dev)

    def fault_bytes(self):
        return self.size if self.to_copy_2dev else 0

    def dirty_bytes(self):
        return self.size if self.to_copy_2swap else 0

    def valid_bytes(self):
        return self.size


# ---------------------------------------------------------------------------
# driving both implementations through the same mutation sequence
# ---------------------------------------------------------------------------
def _bitmap_entry(size, chunk_bytes):
    pte = PageTableEntry(0x7000_0000_0000, size)
    pte.configure_chunks(chunk_bytes)
    assert pte.chunked
    # A stand-in table so epoch bumps are observable on unit entries.
    pte._table = SimpleNamespace(epoch=0)
    return pte


def _assert_equivalent(pte, ref):
    assert pte.fault_runs() == ref.fault_runs()
    assert pte.writeback_runs() == ref.writeback_runs()
    assert pte.device_current_runs() == ref.device_current_runs()
    assert pte.fault_bytes() == ref.fault_bytes()
    assert pte.dirty_bytes() == ref.dirty_bytes()
    assert pte.valid_bytes() == ref.valid_bytes()
    assert pte.to_copy_2dev == ref.to_copy_2dev
    assert pte.to_copy_2swap == ref.to_copy_2swap
    assert pte.is_allocated == ref.is_allocated
    assert pte._table.epoch == ref.epoch, "epoch bump counts diverged"
    assert [
        (c.valid, c.to_copy_2dev, c.to_copy_2swap) for c in pte.chunks
    ] == [(c.valid, c.to_copy_2dev, c.to_copy_2swap) for c in ref.chunks]


#: Mutation opcodes; each applies to both implementations iff its guard
#: holds (guards keep the sequence inside the legal Figure-4 states).
_OPS = (
    "host_write",
    "host_write_empty",
    "alloc",
    "fault_one",
    "fault_all",
    "kernel_write",
    "writeback_one",
    "writeback_all",
    "release",
    "drop",
    "discard",
)


def _apply(op, arg, pte, ref):
    """Apply one guarded mutation to both implementations; the guard is
    evaluated on the reference (both agree by induction)."""
    if op == "host_write":
        n = 1 + arg % ref.size
        pte.host_write(n)
        ref.host_write(n)
    elif op == "host_write_empty":
        pte.host_write(0)
        ref.host_write(0)
    elif op == "alloc" and not ref.is_allocated:
        pte.allocate_device(0x1000)
        ref.allocate_device()
    elif op == "fault_one" and ref.is_allocated and ref.fault_runs():
        runs = ref.fault_runs()
        run = runs[arg % len(runs)]
        pte.complete_fault(run)
        ref.complete_fault(run)
    elif op == "fault_all" and ref.is_allocated:
        for run in ref.fault_runs():
            pte.complete_fault(run)
            ref.complete_fault(run)
    elif op == "kernel_write" and ref.is_allocated and not ref.to_copy_2dev:
        pte.kernel_write(1.0)
        ref.kernel_write()
    elif op == "writeback_one" and ref.writeback_runs():
        runs = ref.writeback_runs()
        run = runs[arg % len(runs)]
        pte.complete_writeback(run)
        ref.complete_writeback(run)
    elif op == "writeback_all":
        for run in ref.writeback_runs():
            pte.complete_writeback(run)
            ref.complete_writeback(run)
    elif op == "release" and ref.is_allocated and not ref.to_copy_2swap:
        pte.release_device()
        ref.release_device()
    elif op == "drop" and ref.is_allocated:
        pte.drop_device_state()
        ref.drop_device_state()
    elif op == "discard" and ref.is_allocated:
        pte.discard_device_dirty()
        ref.discard_device_dirty()


if HAVE_HYPOTHESIS:

    @settings(max_examples=200, deadline=None)
    @given(
        nchunks=st.integers(min_value=2, max_value=67),
        tail=st.integers(min_value=1, max_value=64),
        ops=st.lists(
            st.tuples(st.sampled_from(_OPS), st.integers(min_value=0, max_value=1 << 30)),
            min_size=1,
            max_size=40,
        ),
    )
    def test_bitmap_state_matches_reference(nchunks, tail, ops):
        chunk_bytes = 64
        size = (nchunks - 1) * chunk_bytes + tail  # last chunk may be short
        pte = _bitmap_entry(size, chunk_bytes)
        ref = _RefEntry(size, chunk_bytes)
        _assert_equivalent(pte, ref)
        for op, arg in ops:
            _apply(op, arg, pte, ref)
            pte.check_invariants()
            _assert_equivalent(pte, ref)


def test_bitmap_state_matches_reference_smoke():
    """Deterministic slice of the property (runs even without hypothesis):
    a canonical partial-write → fault → kernel-write → writeback →
    release → re-fault cycle stays bit-identical to the reference."""
    size, chunk = 13 * 64 + 17, 64
    pte = _bitmap_entry(size, chunk)
    ref = _RefEntry(size, chunk)
    script = [
        ("host_write", 5 * 64), ("alloc", 0), ("fault_all", 0),
        ("kernel_write", 0), ("writeback_one", 0), ("writeback_all", 0),
        ("release", 0), ("host_write", size - 1), ("alloc", 0),
        ("fault_one", 0), ("fault_all", 0), ("kernel_write", 0),
        ("drop", 0), ("alloc", 0), ("fault_all", 0), ("kernel_write", 0),
        ("discard", 0), ("release", 0),
    ]
    for op, arg in script:
        _apply(op, arg, pte, ref)
        pte.check_invariants()
        _assert_equivalent(pte, ref)


# ---------------------------------------------------------------------------
# one chunk: a whole entry is the Figure-4 flag machine
# ---------------------------------------------------------------------------
def _one_chunk_entry(size, chunk_bytes):
    pte = PageTableEntry(0x7000_0000_0000, size)
    pte.configure_chunks(chunk_bytes)
    assert not pte.chunked and pte._nchunks == 1
    pte._table = SimpleNamespace(epoch=0)
    return pte


def _drive_one_chunk(size, chunk_bytes, ops):
    pte = _one_chunk_entry(size, chunk_bytes)
    ref = _RefWholeEntry(size)
    _assert_equivalent(pte, ref)
    for op, arg in ops:
        _apply(op, arg, pte, ref)
        pte.check_invariants()
        assert ref.flags in _LEGAL_STATES
        assert pte.flags == ref.flags
        _assert_equivalent(pte, ref)


if HAVE_HYPOTHESIS:

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=1 << 20),
        # Whole entries come from chunking off (0) or a chunk size at or
        # above the allocation; both must be the one-chunk machine.
        chunk_extra=st.one_of(st.none(), st.integers(min_value=0, max_value=64)),
        ops=st.lists(
            st.tuples(st.sampled_from(_OPS), st.integers(min_value=0, max_value=1 << 30)),
            min_size=1,
            max_size=40,
        ),
    )
    def test_one_chunk_state_matches_whole_entry_reference(size, chunk_extra, ops):
        chunk_bytes = 0 if chunk_extra is None else size + chunk_extra
        _drive_one_chunk(size, chunk_bytes, ops)


@pytest.mark.parametrize("chunk_bytes", [0, 100, 4096])
def test_one_chunk_state_matches_whole_entry_reference_smoke(chunk_bytes):
    """The Figure-4 cycle, partial and empty host writes included, on a
    100-byte entry that stays one chunk."""
    script = [
        ("host_write_empty", 0), ("alloc", 0), ("fault_one", 0),
        ("kernel_write", 0), ("host_write", 9), ("fault_all", 0),
        ("kernel_write", 0), ("writeback_one", 0), ("release", 0),
        ("alloc", 0), ("fault_all", 0), ("kernel_write", 0), ("drop", 0),
        ("alloc", 0), ("fault_all", 0), ("kernel_write", 0),
        ("discard", 0), ("release", 0),
    ]
    _drive_one_chunk(100, chunk_bytes, script)


def test_one_chunk_invariants_accept_exactly_the_legal_states():
    """The chunk check admits exactly Figure 4's five flag states when
    the entry has one chunk."""
    for state in itertools.product((False, True), repeat=3):
        allocated, dev, swap = state
        pte = _one_chunk_entry(100, 0)
        pte.is_allocated = allocated
        pte.device_ptr = 0x1000 if allocated else None
        pte._dev_bm, pte._swap_bm = int(dev), int(swap)
        pte.to_copy_2dev, pte.to_copy_2swap = dev, swap
        if state in _LEGAL_STATES:
            pte.check_invariants()
        else:
            with pytest.raises(AssertionError):
                pte.check_invariants()


# ---------------------------------------------------------------------------
# the payoff: interned state for multi-GiB entries
# ---------------------------------------------------------------------------
def test_multi_gib_entry_state_is_interned():
    """A 16 GiB entry at 1 MiB chunks is 16384 chunks.  As objects that
    was ~16k allocations of ~88 bytes (>1.4 MiB); as bit-vectors it is
    three integers of ~2 KiB each."""
    size = 16 * 1024 * MIB
    pte = PageTableEntry(0x7000_0000_0000, size)
    pte.configure_chunks(1 * MIB)
    assert pte._nchunks == 16384
    pte.host_write(size // 2)
    pte.allocate_device(0x1000)
    for run in pte.fault_runs():
        pte.complete_fault(run)
    pte.kernel_write(1.0)
    footprint = (
        sys.getsizeof(pte._valid_bm)
        + sys.getsizeof(pte._dev_bm)
        + sys.getsizeof(pte._swap_bm)
    )
    # 16384 bits ≈ 2 KiB per vector; allow generous interpreter slack.
    assert footprint < 16 * 1024, footprint
    # And the vectorized scans stay exact at this scale.
    assert pte.fault_bytes() == 0
    assert pte.dirty_bytes() == size // 2
    assert pte.writeback_runs() == [(0, size // 2)]
    assert pte.device_current_runs() == [(0, size // 2)]


def test_full_cover_runs_roundtrip_multi_gib():
    pte = PageTableEntry(0x7000_0000_0000, 4 * 1024 * MIB + 123)
    pte.configure_chunks(2 * MIB)
    pte.host_write()  # everything
    pte.allocate_device(0x1000)
    runs = pte.fault_runs()
    assert runs == [(0, pte.size)]
    for run in runs:
        pte.complete_fault(run)
    assert pte.fault_runs() == []
    assert not pte.to_copy_2dev
