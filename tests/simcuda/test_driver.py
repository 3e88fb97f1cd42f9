"""Tests for the simulated CUDA driver: contexts, memory, kernels, FCFS."""

import pytest

from repro.sim import Environment
from repro.simcuda import (
    CudaDriver,
    CudaError,
    CudaRuntimeError,
    KernelDescriptor,
    KernelLaunch,
    QUADRO_2000,
    TESLA_C1060,
    TESLA_C2050,
)
from repro.simcuda import timing

MIB = 1024**2


def make_driver(specs=None):
    env = Environment()
    driver = CudaDriver(env, specs or [TESLA_C2050])
    return env, driver


def run(env, gen):
    """Run a driver sub-process to completion, returning its value."""
    p = env.process(gen)
    env.run(until=p)
    return p.value


# ---------------------------------------------------------------------------
# device specs
# ---------------------------------------------------------------------------

def test_spec_relative_speeds_match_paper_roles():
    # C2050 is the fast card, C1060 medium, Quadro 2000 slow.
    assert TESLA_C2050.effective_gflops > TESLA_C1060.effective_gflops
    assert TESLA_C1060.effective_gflops > QUADRO_2000.effective_gflops


def test_spec_memory_capacities():
    assert TESLA_C2050.memory_bytes == 3 * 1024**3
    assert TESLA_C1060.memory_bytes == 4 * 1024**3
    assert QUADRO_2000.memory_bytes == 1 * 1024**3


def test_spec_core_counts():
    assert TESLA_C2050.core_count == 448
    assert TESLA_C1060.core_count == 240
    assert QUADRO_2000.core_count == 192


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------

def test_context_create_consumes_time_and_reserves_memory():
    env, driver = make_driver()
    device = driver.devices[0]
    free_before = device.free_memory
    ctx = run(env, driver.create_context(device))
    assert env.now == pytest.approx(timing.CONTEXT_CREATE_SECONDS)
    assert device.free_memory == free_before - TESLA_C2050.context_reservation_bytes
    assert ctx in driver.contexts_on(device)


def test_context_limit_enforced():
    """The paper observed at most 8 concurrent contexts per device."""
    env, driver = make_driver()
    device = driver.devices[0]
    for _ in range(TESLA_C2050.max_contexts):
        run(env, driver.create_context(device))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.create_context(device))
    assert e.value.code == CudaError.cudaErrorTooManyContexts


def test_destroy_context_releases_everything():
    env, driver = make_driver()
    device = driver.devices[0]
    ctx = run(env, driver.create_context(device))
    run(env, driver.malloc(ctx, 100 * MIB))
    run(env, driver.destroy_context(ctx))
    assert device.free_memory == device.memory_capacity
    assert ctx.destroyed
    assert ctx not in driver.contexts_on(device)


def test_destroy_context_idempotent():
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    run(env, driver.destroy_context(ctx))
    run(env, driver.destroy_context(ctx))  # no error


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def test_malloc_free_roundtrip():
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    addr = run(env, driver.malloc(ctx, 10 * MIB))
    assert addr in ctx.bases
    assert driver.devices[0].allocator.block_containing(addr) == (addr, 10 * MIB)
    run(env, driver.free(ctx, addr))
    assert addr not in ctx.bases
    assert driver.devices[0].allocator.block_containing(addr) is None


def test_malloc_oom_returns_cuda_error():
    env, driver = make_driver([QUADRO_2000])
    ctx = run(env, driver.create_context(driver.devices[0]))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.malloc(ctx, 2 * 1024 * MIB))  # 2 GiB on a 1 GiB card
    assert e.value.code == CudaError.cudaErrorMemoryAllocation


def test_aggregate_oom_across_contexts():
    """Two apps that fit individually can exceed capacity together — the
    multi-tenancy failure mode motivating the paper."""
    env, driver = make_driver()
    dev = driver.devices[0]
    ctx1 = run(env, driver.create_context(dev))
    ctx2 = run(env, driver.create_context(dev))
    per_app = int(dev.memory_capacity * 0.6)
    run(env, driver.malloc(ctx1, per_app))  # fits alone
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.malloc(ctx2, per_app))  # aggregate exceeds capacity
    assert e.value.code == CudaError.cudaErrorMemoryAllocation


def test_free_foreign_pointer_rejected():
    env, driver = make_driver()
    dev = driver.devices[0]
    ctx1 = run(env, driver.create_context(dev))
    ctx2 = run(env, driver.create_context(dev))
    addr = run(env, driver.malloc(ctx1, MIB))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.free(ctx2, addr))
    assert e.value.code == CudaError.cudaErrorInvalidDevicePointer


def test_memcpy_h2d_takes_pcie_time():
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    addr = run(env, driver.malloc(ctx, 500 * MIB))
    t0 = env.now
    run(env, driver.memcpy_h2d(ctx, addr, 500 * MIB))
    elapsed = env.now - t0
    expected = timing.copy_seconds(TESLA_C2050, 500 * MIB)
    assert elapsed == pytest.approx(expected)
    assert elapsed > 0.05  # 500 MiB at ~5 GB/s is ~0.1 s


def test_memcpy_beyond_allocation_rejected():
    """Bad memory operations (transfers beyond an allocation's boundary)
    must fail — under the paper's runtime these are caught *before*
    reaching the driver."""
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    addr = run(env, driver.malloc(ctx, MIB))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.memcpy_h2d(ctx, addr, 2 * MIB))
    assert e.value.code == CudaError.cudaErrorInvalidValue


def test_memcpy_to_unowned_pointer_rejected():
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.memcpy_h2d(ctx, 0xBAD, MIB))
    assert e.value.code == CudaError.cudaErrorInvalidDevicePointer


# ---------------------------------------------------------------------------
# pointer rules: copies take interior pointers, free and launch take bases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["h2d", "d2h"])
def test_memcpy_at_interior_offset(kind):
    """A chunked page-table entry copies each run at ``base + offset``."""
    env, driver = make_driver()
    dev = driver.devices[0]
    ctx = run(env, driver.create_context(dev))
    base = run(env, driver.malloc(ctx, 8 * MIB))
    copy = driver.memcpy_h2d if kind == "h2d" else driver.memcpy_d2h
    t0 = env.now
    run(env, copy(ctx, base + 3 * MIB, 5 * MIB))  # ends exactly at the end
    assert env.now - t0 == pytest.approx(timing.copy_seconds(TESLA_C2050, 5 * MIB))
    assert dev.bytes_copied == 5 * MIB


@pytest.mark.parametrize("kind", ["h2d", "d2h"])
def test_memcpy_overrun_from_interior_offset_rejected(kind):
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    base = run(env, driver.malloc(ctx, 8 * MIB))
    copy = driver.memcpy_h2d if kind == "h2d" else driver.memcpy_d2h
    with pytest.raises(CudaRuntimeError) as e:
        run(env, copy(ctx, base + 3 * MIB, 5 * MIB + 1))
    assert e.value.code == CudaError.cudaErrorInvalidValue
    assert driver.devices[0].bytes_copied == 0


def test_memcpy_to_other_contexts_interior_pointer_rejected():
    env, driver = make_driver()
    dev = driver.devices[0]
    mine = run(env, driver.create_context(dev))
    theirs = run(env, driver.create_context(dev))
    run(env, driver.malloc(mine, MIB))
    foreign = run(env, driver.malloc(theirs, 8 * MIB))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.memcpy_d2h(mine, foreign + MIB, MIB))
    assert e.value.code == CudaError.cudaErrorInvalidDevicePointer


def test_memcpy_into_free_block_rejected():
    """An address inside a freed allocation, or past every allocation,
    resolves to no block."""
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    freed = run(env, driver.malloc(ctx, 8 * MIB))
    tail = run(env, driver.malloc(ctx, MIB))
    run(env, driver.free(ctx, freed))
    for address in (freed, freed + MIB, tail + 2 * MIB):
        with pytest.raises(CudaRuntimeError) as e:
            run(env, driver.memcpy_h2d(ctx, address, 1))
        assert e.value.code == CudaError.cudaErrorInvalidDevicePointer


def test_memcpy_into_context_reservation_rejected():
    """The per-context reservation is live in the allocator but is not
    an allocation of the context."""
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.memcpy_h2d(ctx, ctx.reservation_address + MIB, 1))
    assert e.value.code == CudaError.cudaErrorInvalidDevicePointer


def test_free_interior_pointer_rejected():
    env, driver = make_driver()
    dev = driver.devices[0]
    ctx = run(env, driver.create_context(dev))
    base = run(env, driver.malloc(ctx, 8 * MIB))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.free(ctx, base + MIB))
    assert e.value.code == CudaError.cudaErrorInvalidDevicePointer
    assert dev.allocator.block_containing(base) == (base, 8 * MIB)


def test_launch_with_interior_pointer_fails():
    env, driver = make_driver()
    dev = driver.devices[0]
    ctx = run(env, driver.create_context(dev))
    base = run(env, driver.malloc(ctx, 8 * MIB))
    k = KernelDescriptor(name="k", flops=1e9)
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.launch(ctx, KernelLaunch.simple(k, [base + MIB])))
    assert e.value.code == CudaError.cudaErrorLaunchFailure
    assert dev.kernels_executed == 0


def _peer_pair():
    env, driver = make_driver([TESLA_C2050, TESLA_C2050])
    src_dev, dst_dev = driver.devices
    src = run(env, driver.create_context(src_dev))
    dst = run(env, driver.create_context(dst_dev))
    return env, driver, src, dst


def test_memcpy_peer_at_interior_offsets():
    env, driver, src, dst = _peer_pair()
    a = run(env, driver.malloc(src, 8 * MIB))
    b = run(env, driver.malloc(dst, 8 * MIB))
    run(env, driver.memcpy_peer(src, a + 6 * MIB, dst, b + 6 * MIB, 2 * MIB))
    assert src.device.bytes_copied == dst.device.bytes_copied == 2 * MIB


def test_memcpy_peer_overrun_and_foreign_pointer_rejected():
    env, driver, src, dst = _peer_pair()
    a = run(env, driver.malloc(src, 8 * MIB))
    b = run(env, driver.malloc(dst, 4 * MIB))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.memcpy_peer(src, a + 2 * MIB, dst, b + 2 * MIB, 3 * MIB))
    assert e.value.code == CudaError.cudaErrorInvalidValue
    other = run(env, driver.create_context(src.device))
    foreign = run(env, driver.malloc(other, 8 * MIB))
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.memcpy_peer(src, foreign + MIB, dst, b + MIB, MIB))
    assert e.value.code == CudaError.cudaErrorInvalidDevicePointer


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_time_scales_with_device_speed():
    k = KernelDescriptor(name="k", flops=1e12)
    fast = timing.kernel_seconds(TESLA_C2050, k)
    slow = timing.kernel_seconds(QUADRO_2000, k)
    assert slow / fast == pytest.approx(
        TESLA_C2050.effective_gflops / QUADRO_2000.effective_gflops, rel=1e-3
    )


def test_launch_executes_and_accounts():
    env, driver = make_driver()
    dev = driver.devices[0]
    ctx = run(env, driver.create_context(dev))
    addr = run(env, driver.malloc(ctx, MIB))
    k = KernelDescriptor(name="k", flops=1e12)
    t0 = env.now
    run(env, driver.launch(ctx, KernelLaunch.simple(k, [addr])))
    assert env.now - t0 == pytest.approx(timing.kernel_seconds(TESLA_C2050, k))
    assert dev.kernels_executed == 1
    assert dev.busy_seconds > 0


def test_launch_with_invalid_pointer_fails():
    env, driver = make_driver()
    ctx = run(env, driver.create_context(driver.devices[0]))
    k = KernelDescriptor(name="k", flops=1e9)
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.launch(ctx, KernelLaunch.simple(k, [0x123])))
    assert e.value.code == CudaError.cudaErrorLaunchFailure


def test_kernels_from_different_contexts_serialize_fcfs():
    """One kernel at a time per device, FCFS across contexts (CUDA 3.x)."""
    env, driver = make_driver()
    dev = driver.devices[0]
    k = KernelDescriptor(name="k", flops=TESLA_C2050.effective_gflops * 1e9)  # 1 s each
    finish_times = {}

    def app(name):
        ctx = yield from driver.create_context(dev)
        addr = yield from driver.malloc(ctx, MIB)
        yield from driver.launch(ctx, KernelLaunch.simple(k, [addr]))
        finish_times[name] = env.now

    env.process(app("a"))
    env.process(app("b"))
    env.run()
    ts = sorted(finish_times.values())
    # Second kernel finishes ~1 s after the first: serialized, not parallel.
    assert ts[1] - ts[0] == pytest.approx(1.0, rel=0.05)


def test_copy_can_overlap_kernel():
    env, driver = make_driver()
    dev = driver.devices[0]
    k = KernelDescriptor(name="k", flops=TESLA_C2050.effective_gflops * 1e9)  # 1 s

    def app_compute():
        ctx = yield from driver.create_context(dev)
        a = yield from driver.malloc(ctx, MIB)
        yield from driver.launch(ctx, KernelLaunch.simple(k, [a]))
        return env.now

    def app_copy():
        ctx = yield from driver.create_context(dev)
        a = yield from driver.malloc(ctx, 500 * MIB)
        yield from driver.memcpy_h2d(ctx, a, 500 * MIB)
        return env.now

    p1 = env.process(app_compute())
    p2 = env.process(app_copy())
    env.run()
    # The copy (~0.1 s) completes while the 1 s kernel is still running.
    assert p2.value < p1.value


# ---------------------------------------------------------------------------
# failures / hotplug
# ---------------------------------------------------------------------------

def test_failed_device_rejects_operations():
    env, driver = make_driver()
    dev = driver.devices[0]
    ctx = run(env, driver.create_context(dev))
    dev.fail()
    with pytest.raises(CudaRuntimeError) as e:
        run(env, driver.malloc(ctx, MIB))
    assert e.value.code == CudaError.cudaErrorDevicesUnavailable


def test_failure_mid_kernel_detected_at_completion():
    env, driver = make_driver()
    dev = driver.devices[0]
    k = KernelDescriptor(name="k", flops=TESLA_C2050.effective_gflops * 1e9)  # 1 s

    def app():
        ctx = yield from driver.create_context(dev)
        a = yield from driver.malloc(ctx, MIB)
        yield from driver.launch(ctx, KernelLaunch.simple(k, [a]))

    def failer():
        yield env.timeout(0.5)
        dev.fail()

    p = env.process(app())
    env.process(failer())
    with pytest.raises(CudaRuntimeError):
        env.run(until=p)


def test_add_remove_device():
    env, driver = make_driver([TESLA_C2050])
    assert driver.device_count() == 1
    d2 = driver.add_device(TESLA_C1060)
    assert driver.device_count() == 2
    driver.remove_device(d2)
    assert driver.device_count() == 1
    assert d2.failed


def test_get_unknown_device_raises():
    env, driver = make_driver()
    with pytest.raises(CudaRuntimeError) as e:
        driver.get_device(999)
    assert e.value.code == CudaError.cudaErrorInvalidDevice
