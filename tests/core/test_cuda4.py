"""CUDA 4.0 compatibility mode (paper §4.8).

Two behavioural changes: (i) threads of the same application share GPU
data, so the runtime binds them to the same device; (ii) dynamic binding
uses direct GPU-to-GPU transfers instead of staging through host memory.
"""

import pytest

from repro.core import RuntimeConfig
from repro.simcuda import (
    CudaDriver,
    CudaError,
    CudaRuntimeError,
    KernelDescriptor,
    QUADRO_2000,
    TESLA_C2050,
)
from repro.sim import Environment

from tests.core.conftest import Harness, MIB


def kernel(seconds, name="k"):
    return KernelDescriptor(
        name=name, flops=seconds * TESLA_C2050.effective_gflops * 1e9
    )


def thread_app(h, name, app_id, results, kernels=3, kernel_s=0.3, cpu_s=0.2):
    def app():
        fe = h.frontend(name)
        fe.application_id = app_id
        yield from fe.open()
        k = kernel(kernel_s, f"{name}-k")
        a = yield from fe.cuda_malloc(16 * MIB)
        for _ in range(kernels):
            yield from fe.launch_kernel(k, [a])
            yield h.env.timeout(cpu_s)
        yield from fe.cuda_thread_exit()
        ctx = next(c for c in h.runtime.dispatcher.contexts if c.owner == name)
        results[name] = ctx

    return app()


def test_same_application_threads_share_a_device():
    h = Harness(
        specs=[TESLA_C2050, TESLA_C2050],
        config=RuntimeConfig(vgpus_per_device=2, cuda4_semantics=True),
    )
    devices_used = {}

    def traced(name, app_id):
        def app():
            fe = h.frontend(name)
            fe.application_id = app_id
            yield from fe.open()
            k = kernel(0.5, f"{name}-k")
            a = yield from fe.cuda_malloc(8 * MIB)
            yield from fe.launch_kernel(k, [a])
            ctx = next(c for c in h.runtime.dispatcher.contexts if c.owner == name)
            devices_used[name] = ctx.vgpu.device.device_id
            yield from fe.cuda_thread_exit()

        return app()

    # Two threads of "appA" plus one of "appB".
    h.spawn(traced("A.t0", "appA"))
    h.spawn(traced("A.t1", "appA"))
    h.spawn(traced("B.t0", "appB"))
    h.run()
    assert devices_used["A.t0"] == devices_used["A.t1"]


def test_without_cuda4_threads_spread_over_devices():
    h = Harness(
        specs=[TESLA_C2050, TESLA_C2050],
        config=RuntimeConfig(vgpus_per_device=2, cuda4_semantics=False),
    )
    devices_used = {}

    def traced(name, app_id):
        def app():
            fe = h.frontend(name)
            fe.application_id = app_id
            yield from fe.open()
            k = kernel(1.0, f"{name}-k")
            a = yield from fe.cuda_malloc(8 * MIB)
            yield from fe.launch_kernel(k, [a])
            ctx = next(c for c in h.runtime.dispatcher.contexts if c.owner == name)
            devices_used[name] = ctx.vgpu.device.device_id
            yield from fe.cuda_thread_exit()

        return app()

    h.spawn(traced("A.t0", "appA"))
    h.spawn(traced("A.t1", "appA"))
    h.run()
    # Load balancing spreads them: different devices (the CUDA 3.2 mode
    # "does not differentiate threads belonging to the same application").
    assert devices_used["A.t0"] != devices_used["A.t1"]


def test_sibling_constraint_does_not_block_other_waiters():
    """A constrained thread whose device is full must not head-of-line
    block unconstrained contexts."""
    h = Harness(
        specs=[TESLA_C2050, TESLA_C2050],
        config=RuntimeConfig(vgpus_per_device=1, cuda4_semantics=True),
    )
    finished = []

    def named(name, app_id, kernel_s):
        def app():
            fe = h.frontend(name)
            fe.application_id = app_id
            yield from fe.open()
            k = kernel(kernel_s, f"{name}-k")
            a = yield from fe.cuda_malloc(4 * MIB)
            yield from fe.launch_kernel(k, [a])
            yield from fe.cuda_thread_exit()
            finished.append((name, h.env.now))

        return app()

    # t0 occupies device X for a long time; its sibling t1 must wait for
    # X specifically, while the unrelated job grabs device Y immediately.
    h.spawn(named("A.t0", "appA", kernel_s=3.0))

    def later():
        yield h.env.timeout(1.0)
        h.spawn(named("A.t1", "appA", kernel_s=0.5))
        h.spawn(named("other", None, kernel_s=0.5))

    h.spawn(later())
    h.run()
    order = [n for n, _ in finished]
    assert order.index("other") < order.index("A.t1")
    assert len(finished) == 3


def test_p2p_migration_moves_data_directly():
    h = Harness(
        specs=[QUADRO_2000, TESLA_C2050],
        config=RuntimeConfig(
            vgpus_per_device=1,
            migration_enabled=True,
            cuda4_semantics=True,
        ),
    )
    results = {}

    def blocker():
        # Occupies the fast C2050 briefly, forcing the long job onto the
        # Quadro; then exits, opening the migration window.
        fe = h.frontend("blocker")
        yield from fe.open()
        k = kernel(0.5, "blocker-k")
        a = yield from fe.cuda_malloc(4 * MIB)
        yield from fe.launch_kernel(k, [a])
        yield from fe.cuda_thread_exit()

    def long_job():
        fe = h.frontend("long")
        yield from fe.open()
        k = kernel(0.4, "long-k")
        a = yield from fe.cuda_malloc(64 * MIB)
        yield from fe.cuda_memcpy_h2d(a, 64 * MIB)
        for _ in range(6):
            yield from fe.launch_kernel(k, [a])
            yield h.env.timeout(0.4)
        yield from fe.cuda_memcpy_d2h(a, 64 * MIB)
        yield from fe.cuda_thread_exit()
        results["long"] = h.env.now

    # Make the fast GPU busy first so the long job starts on the Quadro.
    h.spawn(blocker())

    def delayed():
        yield h.env.timeout(0.3)
        h.spawn(long_job())

    h.spawn(delayed())
    h.run()
    assert "long" in results
    assert h.stats.migrations >= 1
    assert h.stats.migrations_p2p >= 1
    assert h.stats.p2p_bytes >= 64 * MIB


def test_p2p_migration_faster_than_swap_migration():
    def run(cuda4):
        h = Harness(
            specs=[QUADRO_2000, TESLA_C2050],
            config=RuntimeConfig(
                vgpus_per_device=1,
                migration_enabled=True,
                cuda4_semantics=cuda4,
            ),
        )
        results = {}

        def blocker():
            fe = h.frontend("blocker")
            yield from fe.open()
            k = kernel(0.5, "b-k")
            a = yield from fe.cuda_malloc(4 * MIB)
            yield from fe.launch_kernel(k, [a])
            yield from fe.cuda_thread_exit()

        def long_job():
            fe = h.frontend("long")
            yield from fe.open()
            k = kernel(0.4, "l-k")
            a = yield from fe.cuda_malloc(512 * MIB)
            yield from fe.cuda_memcpy_h2d(a, 512 * MIB)
            for _ in range(6):
                yield from fe.launch_kernel(k, [a])
                yield h.env.timeout(0.4)
            yield from fe.cuda_thread_exit()
            results["t"] = h.env.now

        h.spawn(blocker())

        def delayed():
            yield h.env.timeout(0.3)
            h.spawn(long_job())

        h.spawn(delayed())
        h.run()
        return results["t"], h.stats

    t_p2p, s_p2p = run(True)
    t_swap, s_swap = run(False)
    if s_p2p.migrations and s_swap.migrations:
        # One host round trip saved per migrated entry.
        assert t_p2p <= t_swap


def test_memcpy_peer_validates_arguments():
    env = Environment()
    driver = CudaDriver(env, [TESLA_C2050, QUADRO_2000])

    def probe():
        c1 = yield from driver.create_context(driver.devices[0])
        c2 = yield from driver.create_context(driver.devices[1])
        a = yield from driver.malloc(c1, MIB)
        b = yield from driver.malloc(c2, MIB)
        # same-device peer copy rejected
        c1b = yield from driver.create_context(driver.devices[0])
        a2 = yield from driver.malloc(c1b, MIB)
        with pytest.raises(CudaRuntimeError) as e:
            yield from driver.memcpy_peer(c1, a, c1b, a2, MIB)
        assert e.value.code == CudaError.cudaErrorInvalidValue
        # oversize rejected
        with pytest.raises(CudaRuntimeError):
            yield from driver.memcpy_peer(c1, a, c2, b, 10 * MIB)
        # valid copy works and accounts bytes on both devices
        yield from driver.memcpy_peer(c1, a, c2, b, MIB)
        assert driver.devices[0].bytes_copied >= MIB
        assert driver.devices[1].bytes_copied >= MIB

    p = env.process(probe())
    env.run(until=p)


def test_p2p_migration_of_chunked_entry_copies_runs_past_offset_zero():
    """A chunked entry whose first chunk was overwritten from the host
    has one device-current run starting at 16 MiB; the peer copy moves
    exactly that run, at ``device_ptr + 16 MiB`` on both devices."""
    h = Harness(
        specs=[QUADRO_2000, TESLA_C2050],
        config=RuntimeConfig(
            vgpus_per_device=1,
            migration_enabled=True,
            cuda4_semantics=True,
            swap_chunk_bytes=16 * MIB,
        ),
    )
    peer_copies = []
    memcpy_peer = h.driver.memcpy_peer

    def recording_peer(src_ctx, src_address, dst_ctx, dst_address, nbytes):
        src_base = src_ctx.device.allocator.block_containing(src_address)[0]
        dst_base = dst_ctx.device.allocator.block_containing(dst_address)[0]
        peer_copies.append((src_address - src_base, dst_address - dst_base, nbytes))
        yield from memcpy_peer(src_ctx, src_address, dst_ctx, dst_address, nbytes)

    h.driver.memcpy_peer = recording_peer
    finished = {}

    def blocker():
        # Holds the fast C2050 until the long job is in its CPU phase.
        fe = h.frontend("blocker")
        yield from fe.open()
        a = yield from fe.cuda_malloc(4 * MIB)
        yield from fe.launch_kernel(kernel(3.0, "blocker-k"), [a])
        yield from fe.cuda_thread_exit()

    def long_job():
        yield h.env.timeout(0.3)
        fe = h.frontend("long")
        yield from fe.open()
        k = kernel(0.2, "long-k")
        a = yield from fe.cuda_malloc(64 * MIB)
        yield from fe.cuda_memcpy_h2d(a, 64 * MIB)
        yield from fe.launch_kernel(k, [a])  # every chunk device-dirty
        yield from fe.cuda_memcpy_h2d(a, 16 * MIB)  # chunk 0 host-current
        yield h.env.timeout(5.0)  # the blocker exits: migrate now
        yield from fe.launch_kernel(k, [a])
        yield from fe.cuda_memcpy_d2h(a, 64 * MIB)
        yield from fe.cuda_thread_exit()
        finished["long"] = h.env.now

    h.spawn(blocker())
    h.spawn(long_job())
    h.run()
    assert "long" in finished
    assert h.stats.migrations_p2p == 1
    assert peer_copies == [(16 * MIB, 16 * MIB, 48 * MIB)]
    assert h.stats.p2p_bytes == 48 * MIB
