"""Overlap engine + swap-accounting/recovery bugfix cluster.

Covers the stream-pipelined transfer paths (async bulk H2D, asynchronous
checkpoint write-backs, CPU-phase prefetch), the unified swap accounting
(stats counter == histogram == trace events, clean entries observe
nothing), the single replay implementation, and scheduler behavior when
devices retire under waiting contexts.
"""

import pytest

from repro.core import RuntimeConfig
from repro.obs import SwapOut
from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050
from repro.simcuda.errors import CudaError, CudaRuntimeError

from tests.core.conftest import Harness, MIB


def assert_swap_accounting_consistent(h):
    """The acceptance invariant: histogram totals equal the counters."""
    assert h.memory._swap_out_bytes.sum == h.stats.swap_bytes_out
    assert h.memory._swap_in_bytes.sum == h.stats.swap_bytes_in


def update_heavy_app(h, name, rounds=4, alloc_mib=512, kernel_seconds=0.3,
                     cpu_phase_s=0.4, results=None):
    """h2d → CPU gap → kernel → CPU gap, each round: the overlap-friendly
    pattern where transfers can hide under the application's CPU phases."""

    def _app():
        fe = h.frontend(name)
        yield from fe.open()
        fatbin = FatBinary()
        k = KernelDescriptor(
            name=f"{name}-k",
            flops=kernel_seconds * TESLA_C2050.effective_gflops * 1e9,
        )
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        size = alloc_mib * MIB
        ptr = yield from fe.cuda_malloc(size)
        start = h.env.now
        for _ in range(rounds):
            yield from fe.cuda_memcpy_h2d(ptr, size)
            yield h.env.timeout(cpu_phase_s)
            yield from fe.launch_kernel(k, [ptr])
            yield h.env.timeout(cpu_phase_s)
        yield from fe.cuda_memcpy_d2h(ptr, size)
        yield from fe.cuda_free(ptr)
        yield from fe.cuda_thread_exit()
        if results is not None:
            results.append(h.env.now - start)

    return _app()


# ----------------------------------------------------------------------
# copy_h2d eager branch (defer_transfers=False)
# ----------------------------------------------------------------------
def test_eager_copy_h2d_transfers_immediately_when_bound():
    """With deferral off, a host write to a resident entry pushes the
    data right away — and only the launch-time bulk path counts swap-in
    bytes, so the byte counters tell eager and deferred apart.  A partial
    write (``nbytes < size``) to a whole entry pushes exactly ``nbytes``
    eagerly, while the deferred path faults in the whole allocation."""
    size = 64 * MIB

    def run(defer, second=size):
        h = Harness(config=RuntimeConfig(defer_transfers=defer))

        def app():
            fe = h.frontend("eager")
            yield from fe.open()
            fatbin = FatBinary()
            k = KernelDescriptor(name="k", flops=1e9)
            handle = yield from fe.register_fat_binary(fatbin)
            yield from fe.register_function(handle, k)
            ptr = yield from fe.cuda_malloc(size)
            yield from fe.cuda_memcpy_h2d(ptr, size)   # unbound: deferred
            yield from fe.launch_kernel(k, [ptr])       # binds + bulk H2D
            yield from fe.cuda_memcpy_h2d(ptr, second)  # bound + resident
            yield from fe.launch_kernel(k, [ptr])
            yield from fe.cuda_thread_exit()

        h.spawn(app())
        h.run()
        return h

    eager = run(defer=False)
    deferred = run(defer=True)
    # Two device transfers either way…
    assert eager.stats.h2d_device_transfers == 2
    assert deferred.stats.h2d_device_transfers == 2
    # …but the eager second copy bypasses the launch-time bulk path.
    assert eager.stats.swap_bytes_in == size
    assert deferred.stats.swap_bytes_in == 2 * size
    assert_swap_accounting_consistent(eager)
    assert_swap_accounting_consistent(deferred)

    # Partial eager copy: the device receives the bulk fault-in plus the
    # quarter just written, and the run is shorter by the bytes not moved.
    partial = run(defer=False, second=size // 4)
    partial_deferred = run(defer=True, second=size // 4)
    assert partial.stats.h2d_device_transfers == 2
    assert partial.stats.swap_bytes_in == size
    assert partial.driver.devices[0].bytes_copied == size + size // 4
    assert partial_deferred.driver.devices[0].bytes_copied == 2 * size
    assert eager.driver.devices[0].bytes_copied == 2 * size
    assert partial.env.now == 0.3745039116160359
    assert partial_deferred.env.now == 0.38457024121603595
    assert eager.env.now == deferred.env.now == 0.403444609216036
    assert_swap_accounting_consistent(partial)


# ----------------------------------------------------------------------
# bugfix: clean-entry swap-out must observe nothing
# ----------------------------------------------------------------------
def test_clean_entry_swap_out_observes_no_bytes_and_no_event():
    """An inter-application swap of entries the victim's kernels only
    *read* moves no data device→host: the histogram, the counter and the
    trace must all agree on zero."""
    h = Harness(config=RuntimeConfig(vgpus_per_device=2, tracing=True))

    def tenant(name, read_only, cpu_tail_s):
        def _app():
            fe = h.frontend(name)
            yield from fe.open()
            fatbin = FatBinary()
            k = KernelDescriptor(name=f"{name}-k", flops=1e9)
            handle = yield from fe.register_fat_binary(fatbin)
            yield from fe.register_function(handle, k)
            size = 1800 * MIB
            ptr = yield from fe.cuda_malloc(size)
            yield from fe.cuda_memcpy_h2d(ptr, size)
            yield from fe.launch_kernel(
                k, [ptr], read_only=[ptr] if read_only else []
            )
            yield h.env.timeout(cpu_tail_s)
            yield from fe.cuda_thread_exit()

        return _app()

    # The victim launches first and then idles in a CPU phase with a
    # clean (read-only) working set; the second tenant's launch must
    # evict it to fit.
    h.spawn(tenant("victim", read_only=True, cpu_tail_s=30.0))

    def late_tenant():
        yield h.env.timeout(3.0)
        yield from tenant("intruder", read_only=False, cpu_tail_s=0.0)

    h.spawn(late_tenant())
    h.run()
    assert h.stats.swaps_inter >= 1
    assert h.stats.swap_bytes_out == 0
    assert h.memory._swap_out_bytes.count == 0
    assert h.runtime.obs.events_of(SwapOut) == []
    assert_swap_accounting_consistent(h)


# ----------------------------------------------------------------------
# bugfix: copy_d2h write-back is accounted like any other swap-out
# ----------------------------------------------------------------------
def test_copy_d2h_write_back_accounts_bytes_histogram_and_event():
    h = Harness(config=RuntimeConfig(tracing=True))
    size_mib = 96
    h.spawn(h.simple_app("writer", alloc_mib=size_mib))
    h.run()
    # The kernel dirtied the buffer; the final d2h wrote it back.
    assert h.stats.swap_bytes_out == size_mib * MIB
    assert h.memory._swap_out_bytes.count == 1
    assert h.memory._swap_out_bytes.sum == size_mib * MIB
    events = h.runtime.obs.events_of(SwapOut)
    assert len(events) == 1 and events[0].nbytes == size_mib * MIB
    assert_swap_accounting_consistent(h)


# ----------------------------------------------------------------------
# bugfix: one replay implementation
# ----------------------------------------------------------------------
def test_memory_replay_delegates_to_dispatcher_loop():
    h = Harness()
    assert h.memory.replay_fn == h.runtime.dispatcher.replay_journal


# ----------------------------------------------------------------------
# bugfix: device retirement must not strand waiting contexts
# ----------------------------------------------------------------------
def test_retiring_last_device_fails_waiters_instead_of_hanging():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1))
    outcome = {}

    def holder():
        fe = h.frontend("holder")
        yield from fe.open()
        fatbin = FatBinary()
        k = KernelDescriptor(
            name="long-k", flops=20.0 * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        ptr = yield from fe.cuda_malloc(64 * MIB)
        try:
            yield from fe.launch_kernel(k, [ptr])
        except CudaRuntimeError:
            pass  # its device dies mid-kernel

    def waiter():
        fe = h.frontend("waiter")
        yield from fe.open()
        fatbin = FatBinary()
        k = KernelDescriptor(name="w-k", flops=1e9)
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        ptr = yield from fe.cuda_malloc(64 * MIB)
        yield h.env.timeout(8.0)  # the holder is mid-kernel: queue behind it
        try:
            yield from fe.launch_kernel(k, [ptr])
            outcome["result"] = "completed"
        except CudaRuntimeError as exc:
            outcome["result"] = exc.code

    def killer():
        yield h.env.timeout(12.0)
        h.runtime.fail_device(h.driver.devices[0])

    h.spawn(holder())
    h.spawn(waiter())
    h.spawn(killer())
    h.run()
    # Before the fix the waiter slept forever on its binding grant; now
    # it observes devices-unavailable once the rebind attempts run out.
    assert outcome["result"] == CudaError.cudaErrorDevicesUnavailable
    waiting_ctx = next(
        c for c in h.runtime.dispatcher.contexts if c.owner == "waiter"
    )
    assert h.scheduler.waiting_count == 0
    assert waiting_ctx not in h.scheduler._waiting_events


def test_request_binding_fails_fast_with_no_healthy_device():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1))
    h.run(until=1.0)  # let the runtime boot
    h.runtime.fail_device(h.driver.devices[0])
    from repro.core.context import Context

    ctx = Context(h.env, owner="late")

    def try_bind():
        try:
            yield from h.scheduler.request_binding(ctx)
        except CudaRuntimeError as exc:
            return exc.code
        return None

    p = h.spawn(try_bind())
    h.run(until=2.0)
    assert p.value == CudaError.cudaErrorDevicesUnavailable


# ----------------------------------------------------------------------
# the tentpole: pipelined transfers beat the deferred baseline
# ----------------------------------------------------------------------
def test_overlap_mode_reduces_makespan_and_overlaps_engines():
    base = RuntimeConfig(vgpus_per_device=2, checkpoint_kernel_seconds=0.0)

    def run(config):
        h = Harness(config=config)
        times = []
        for i in range(2):
            h.spawn(update_heavy_app(h, f"tenant{i}", results=times))
        h.run()
        return h, max(times)

    h_def, makespan_def = run(base)
    h_ovl, makespan_ovl = run(base.overlapped())

    # Same work, strictly less wall-clock: write-backs and prefetched
    # bulk transfers hid under the CPU phases.
    assert makespan_ovl < makespan_def
    # The copy and exec engines genuinely ran concurrently.
    assert h_ovl.driver.devices[0].copy_exec_overlap_seconds > 0
    # The prefetch hook did real work and the launches consumed it.
    assert h_ovl.stats.prefetch_issued > 0
    assert h_ovl.stats.prefetch_hits > 0
    assert h_ovl.stats.prefetch_bytes > 0
    assert h_def.stats.prefetch_issued == 0
    # Checkpoints still happened (asynchronously) in overlap mode.
    assert h_ovl.stats.checkpoints > 0
    # Accounting stays consistent on both paths.
    assert_swap_accounting_consistent(h_def)
    assert_swap_accounting_consistent(h_ovl)
    assert h_ovl.stats.swap_bytes_out == h_def.stats.swap_bytes_out


def test_overlap_mode_preserves_kernel_and_transfer_counts():
    """Pipelining must not change *what* work happens — only when."""
    base = RuntimeConfig(vgpus_per_device=2, checkpoint_kernel_seconds=0.0)

    def run(config):
        h = Harness(config=config)
        for i in range(2):
            h.spawn(update_heavy_app(h, f"tenant{i}", rounds=3))
        h.run()
        return h

    h_def = run(base)
    h_ovl = run(base.overlapped())
    assert h_ovl.stats.kernels_launched == h_def.stats.kernels_launched
    assert h_ovl.stats.checkpoints == h_def.stats.checkpoints
    # Every entry each launch needed still got exactly one bulk transfer
    # (prefetched or launch-time), so total swap-in traffic is identical.
    assert h_ovl.stats.swap_bytes_in == h_def.stats.swap_bytes_in
