"""Demand-paged chunked swapping (RuntimeConfig.swap_chunk_bytes).

Unit tests of the per-chunk Figure-4 state machine on PageTableEntry,
plus end-to-end checks that chunking moves only the bytes that exist —
and that ``swap_chunk_bytes=0`` reproduces whole-entry behavior
bit-for-bit in the runtime stats.
"""

import pytest

from repro.core import RuntimeConfig
from repro.core.memory import PageTableEntry
from repro.simcuda import GPUSpec, KernelDescriptor

from tests.core.conftest import Harness, MIB

SMALL_GPU = GPUSpec(
    name="SmallGPU",
    sm_count=14,
    cores_per_sm=32,
    clock_ghz=1.15,
    memory_bytes=512 * MIB,
)


# ---------------------------------------------------------------------------
# PageTableEntry chunk state machine
# ---------------------------------------------------------------------------

def _pte(size, chunk=0):
    pte = PageTableEntry(0x7000_0000_0000, size)
    pte.configure_chunks(chunk)
    return pte


def test_configure_chunks_splits_with_short_tail():
    pte = _pte(10 * MIB, chunk=4 * MIB)
    assert pte.chunked
    assert [(c.offset, c.size) for c in pte.chunks] == [
        (0, 4 * MIB),
        (4 * MIB, 4 * MIB),
        (8 * MIB, 2 * MIB),
    ]


def test_small_entries_stay_whole():
    assert not _pte(4 * MIB, chunk=4 * MIB).chunked
    assert not _pte(4 * MIB, chunk=0).chunked


def test_partial_host_write_marks_only_covered_chunks():
    pte = _pte(12 * MIB, chunk=4 * MIB)
    pte.host_write(5 * MIB)  # covers chunk 0 fully, chunk 1 partially
    assert [c.valid for c in pte.chunks] == [True, True, False]
    assert [c.to_copy_2dev for c in pte.chunks] == [True, True, False]
    assert pte.to_copy_2dev  # aggregate is the OR over the chunks


def test_fault_runs_coalesce_adjacent_chunks():
    pte = _pte(12 * MIB, chunk=4 * MIB)
    pte.host_write(8 * MIB)
    pte.allocate_device(0x1000)
    assert pte.fault_runs() == [(0, 8 * MIB)]  # two chunks, one transfer
    assert pte.fault_bytes() == 8 * MIB
    pte.complete_fault((0, 8 * MIB))
    assert pte.fault_runs() == []
    assert not pte.to_copy_2dev


def test_kernel_write_on_output_buffer_dirties_everything():
    """A never-written buffer the kernel writes is all output: every
    chunk becomes valid and device-dirty."""
    pte = _pte(8 * MIB, chunk=4 * MIB)
    pte.allocate_device(0x1000)
    pte.kernel_write(1.0)
    assert all(c.valid and c.to_copy_2swap for c in pte.chunks)
    assert pte.dirty_bytes() == 8 * MIB


def test_kernel_write_dirties_only_valid_chunks():
    pte = _pte(12 * MIB, chunk=4 * MIB)
    pte.host_write(4 * MIB)
    pte.allocate_device(0x1000)
    pte.complete_fault((0, 4 * MIB))
    pte.kernel_write(1.0)
    assert [c.to_copy_2swap for c in pte.chunks] == [True, False, False]
    assert pte.dirty_bytes() == 4 * MIB


def test_writeback_then_release_keeps_valid_set():
    pte = _pte(12 * MIB, chunk=4 * MIB)
    pte.host_write(4 * MIB)
    pte.allocate_device(0x1000)
    pte.complete_fault((0, 4 * MIB))
    pte.kernel_write(1.0)
    for run in pte.writeback_runs():
        pte.complete_writeback(run)
    pte.release_device()
    # Only the valid chunk needs re-faulting; invalid ones hold no data.
    assert pte.fault_bytes() == 4 * MIB
    assert pte.valid_bytes() == 4 * MIB


def test_chunk_invariants_rejected():
    # Corrupt the packed bit-vectors directly (chunk 0 = bit 0): the
    # invariant checker must reject per-chunk Figure-4 violations.
    pte = _pte(8 * MIB, chunk=4 * MIB)
    pte._valid_bm = 0b01
    pte._dev_bm = 0b01
    pte._swap_bm = 0b01  # both transfer flags at once
    pte._sync_flags()
    with pytest.raises(AssertionError):
        pte.check_invariants()
    pte._valid_bm = 0b00
    pte._dev_bm = 0b01  # invalid chunk with a data flag
    pte._swap_bm = 0b00
    pte._sync_flags()
    with pytest.raises(AssertionError):
        pte.check_invariants()


def test_aggregate_flags_must_match_chunks():
    pte = _pte(8 * MIB, chunk=4 * MIB)
    pte._valid_bm = 0b01
    pte._dev_bm = 0b01  # without _sync_flags: aggregate stays stale
    with pytest.raises(AssertionError):
        pte.check_invariants()


def test_chunk_snapshots_do_not_write_through():
    """``pte.chunks`` is a materialized view of the interned bit-vector
    state — mutating a snapshot must not alter the entry."""
    pte = _pte(8 * MIB, chunk=4 * MIB)
    pte.host_write(4 * MIB)
    snap = pte.chunks
    snap[1].valid = True
    snap[1].to_copy_2dev = True
    assert [c.valid for c in pte.chunks] == [True, False]
    assert pte.fault_runs() == [(0, 4 * MIB)]


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def _partial_write_app(h, written_mib, alloc_mib=300):
    """malloc a big buffer, host-write only a prefix, launch on it."""

    def app():
        fe = h.frontend("chunked")
        yield from fe.open()
        k = KernelDescriptor(name="k", flops=SMALL_GPU.effective_gflops * 1e9 * 0.01)
        a = yield from fe.cuda_malloc(alloc_mib * MIB)
        yield from fe.cuda_memcpy_h2d(a, written_mib * MIB)
        yield from fe.launch_kernel(k, [a], read_only=[a])
        yield from fe.cuda_thread_exit()

    return app()


def test_chunked_launch_faults_in_only_written_chunks():
    h = Harness(
        specs=[SMALL_GPU],
        config=RuntimeConfig(vgpus_per_device=1, swap_chunk_bytes=32 * MIB),
    )
    p = h.spawn(_partial_write_app(h, written_mib=64))
    h.run(until=p)
    # 64 MiB written → exactly two 32 MiB chunks transferred, not 300 MiB.
    assert h.stats.swap_bytes_in == 64 * MIB


def test_unchunked_launch_faults_in_whole_entry():
    h = Harness(specs=[SMALL_GPU], config=RuntimeConfig(vgpus_per_device=1))
    p = h.spawn(_partial_write_app(h, written_mib=64))
    h.run(until=p)
    assert h.stats.swap_bytes_in == 300 * MIB


def _two_tenant_stats(chunk):
    h = Harness(
        specs=[SMALL_GPU],
        config=RuntimeConfig(vgpus_per_device=2, swap_chunk_bytes=chunk),
    )
    for name in ("t1", "t2"):
        h.spawn(
            h.simple_app(name=name, alloc_mib=280, kernel_count=3,
                         cpu_phase_s=0.2)
        )
    h.run()
    return h.env.now, h.stats.as_dict()


def test_chunk_size_zero_is_bitwise_identical():
    """swap_chunk_bytes=0 (the default) reproduces whole-entry behavior
    exactly: same stats, same simulated end time, run after run."""
    assert _two_tenant_stats(0) == _two_tenant_stats(0)


def test_fully_written_chunked_workload_moves_same_bytes():
    """When every byte of every buffer holds data, chunk accounting must
    sum to exactly the whole-entry byte counts (runs coalesce back into
    one transfer per entry), so the two granularities agree end to end."""
    t_legacy, s_legacy = _two_tenant_stats(0)
    t_chunked, s_chunked = _two_tenant_stats(64 * MIB)
    assert s_chunked["swap_bytes_in"] == s_legacy["swap_bytes_in"]
    assert s_chunked["swap_bytes_out"] == s_legacy["swap_bytes_out"]
    assert t_chunked == pytest.approx(t_legacy)


def test_chunked_overlap_engine_pipelines_runs():
    """Chunked transfers ride the overlap engine's copy streams."""
    h = Harness(
        specs=[SMALL_GPU],
        config=RuntimeConfig(
            vgpus_per_device=1, swap_chunk_bytes=32 * MIB
        ).overlapped(),
    )
    p = h.spawn(_partial_write_app(h, written_mib=96))
    h.run(until=p)
    assert h.stats.swap_bytes_in == 96 * MIB
