"""Tests for CUDA streams (in-order async queues)."""

import pytest

from repro.sim import Environment
from repro.simcuda import CudaDriver, KernelDescriptor, KernelLaunch, TESLA_C2050
from repro.simcuda.streams import Stream
from repro.simcuda import timing

MIB = 1024**2


def setup():
    env = Environment()
    driver = CudaDriver(env, [TESLA_C2050])
    return env, driver


def test_stream_executes_in_order_and_synchronize_blocks():
    env, driver = setup()
    dev = driver.devices[0]
    k = KernelDescriptor(name="k", flops=TESLA_C2050.effective_gflops * 1e8)  # 0.1 s

    def app():
        ctx = yield from driver.create_context(dev)
        a = yield from driver.malloc(ctx, 100 * MIB)
        s = Stream(driver, ctx)
        s.memcpy_h2d_async(a, 100 * MIB)
        s.launch_async(KernelLaunch.simple(k, [a]))
        s.memcpy_d2h_async(a, 100 * MIB)
        t0 = env.now
        yield from s.synchronize()
        return env.now - t0

    p = env.process(app())
    env.run(until=p)
    expected = 2 * timing.copy_seconds(TESLA_C2050, 100 * MIB) + timing.kernel_seconds(
        TESLA_C2050, k
    )
    assert p.value == pytest.approx(expected, rel=0.01)
    assert dev.kernels_executed == 1


def test_two_streams_overlap_copy_and_compute():
    env, driver = setup()
    dev = driver.devices[0]
    k = KernelDescriptor(name="k", flops=TESLA_C2050.effective_gflops * 1e9)  # 1 s

    def app():
        ctx = yield from driver.create_context(dev)
        a = yield from driver.malloc(ctx, MIB)
        b = yield from driver.malloc(ctx, 500 * MIB)
        s1 = Stream(driver, ctx)
        s2 = Stream(driver, ctx)
        t0 = env.now
        s1.launch_async(KernelLaunch.simple(k, [a]))
        s2.memcpy_h2d_async(b, 500 * MIB)
        yield from s1.synchronize()
        yield from s2.synchronize()
        return env.now - t0

    p = env.process(app())
    env.run(until=p)
    # Total should be ~max(kernel, copy) = ~1 s, not the ~1.1 s sum.
    assert p.value == pytest.approx(timing.kernel_seconds(TESLA_C2050, k), rel=0.02)


def test_synchronize_on_empty_stream_returns_immediately():
    env, driver = setup()

    def app():
        ctx = yield from driver.create_context(driver.devices[0])
        s = Stream(driver, ctx)
        t0 = env.now
        yield from s.synchronize()
        return env.now - t0

    p = env.process(app())
    env.run(until=p)
    assert p.value == 0


def test_per_op_completion_events_fire_in_fifo_order():
    env, driver = setup()

    def app():
        ctx = yield from driver.create_context(driver.devices[0])
        a = yield from driver.malloc(ctx, 10 * MIB)
        s = Stream(driver, ctx)
        e1 = s.memcpy_h2d_async(a, 10 * MIB)
        e2 = s.memcpy_d2h_async(a, 10 * MIB)
        yield e2
        # In-order queue: by the time op 2 completes, op 1 has too.
        assert e1.triggered and e1.ok
        yield e1  # waiting on an already-processed event is legal
        return True

    p = env.process(app())
    env.run(until=p)
    assert p.value is True


def test_failed_op_fails_its_event_and_poisons_the_stream():
    from repro.simcuda.errors import CudaRuntimeError

    env, driver = setup()
    dev = driver.devices[0]

    def app():
        ctx = yield from driver.create_context(dev)
        a = yield from driver.malloc(ctx, 10 * MIB)
        s = Stream(driver, ctx)
        dev.fail()
        ev = s.memcpy_h2d_async(a, 10 * MIB)
        try:
            yield ev
        except CudaRuntimeError:
            pass
        else:
            raise AssertionError("waiting on a failed op must raise")
        # Poisoned: a later enqueue fails immediately, without the device.
        ev2 = s.memcpy_d2h_async(a, 10 * MIB)
        assert ev2.triggered and not ev2.ok
        try:
            yield from s.synchronize()
        except CudaRuntimeError:
            return True
        raise AssertionError("synchronize must re-raise the sticky error")

    p = env.process(app())
    env.run(until=p)
    assert p.value is True


def test_unobserved_failure_surfaces_at_synchronize_not_as_a_crash():
    from repro.simcuda.errors import CudaRuntimeError

    env, driver = setup()
    dev = driver.devices[0]

    def app():
        ctx = yield from driver.create_context(dev)
        a = yield from driver.malloc(ctx, 10 * MIB)
        s = Stream(driver, ctx)
        dev.fail()
        s.memcpy_h2d_async(a, 10 * MIB)  # fire-and-forget; never awaited
        yield env.timeout(1.0)  # failure lands unobserved: must not crash
        try:
            yield from s.synchronize()
        except CudaRuntimeError:
            return True
        raise AssertionError("sticky error must surface at synchronize")

    p = env.process(app())
    env.run(until=p)
    assert p.value is True


def test_copy_stream_accepts_interior_offsets_and_rejects_overruns():
    """The overlap path stages a chunked entry's runs at ``base + offset``
    on a stream; an overrun fails its op and poisons the stream."""
    from repro.simcuda.errors import CudaError, CudaRuntimeError

    env, driver = setup()
    dev = driver.devices[0]

    def app():
        ctx = yield from driver.create_context(dev)
        a = yield from driver.malloc(ctx, 8 * MIB)
        s = Stream(driver, ctx)
        h2d = s.memcpy_h2d_async(a + 2 * MIB, 6 * MIB)
        d2h = s.memcpy_d2h_async(a + 7 * MIB, MIB)
        yield h2d
        yield d2h
        assert dev.bytes_copied == 7 * MIB
        bad = s.memcpy_d2h_async(a + 7 * MIB, MIB + 1)
        try:
            yield bad
        except CudaRuntimeError as exc:
            return exc.code
        raise AssertionError("an overrun must fail its op")

    p = env.process(app())
    env.run(until=p)
    assert p.value == CudaError.cudaErrorInvalidValue
    assert dev.bytes_copied == 7 * MIB
