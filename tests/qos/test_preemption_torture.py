"""Torture: preemptive time-slicing crossed with every memory mechanism.

The satellite bugfix this guards: a context unbound by quantum expiry
while the overlap engine still has asynchronous write-backs in flight
must drain them before its device memory is released — otherwise a
stale write-back lands in freed (possibly reallocated) device memory.
Chunked demand paging, partial eviction and a mid-run device failure
are layered on top so the drain holds under the full interaction.
"""

from repro.core import NodeRuntime, RuntimeConfig
from repro.core.fault import FailureInjector, HotplugEvent
from repro.qos import Tenant
from repro.sim import Environment, RngStreams
from repro.simcuda import CudaDriver, TESLA_C1060, TESLA_C2050

MIB = 1024**2


def test_preemption_with_overlap_chunked_swap_and_failure():
    env = Environment()
    driver = CudaDriver(env, [TESLA_C2050, TESLA_C1060])
    runtime = NodeRuntime(
        env,
        driver,
        RuntimeConfig(
            vgpus_per_device=2,
            qos_enabled=True,
            policy="wfq",
            vgpu_quantum_s=0.25,
            overlap_transfers=True,
            prefetch_enabled=True,
            swap_chunk_bytes=16 * MIB,
            eviction_mode="partial",
        ),
    )
    for name in ("alpha", "beta", "gamma"):
        runtime.qos.register(
            Tenant(name, weight=1.0 + (name == "alpha") * 3.0,
                   device_quota_bytes=768 * MIB)
        )
    env.process(runtime.start())
    rngs = RngStreams(7)
    results = []
    for i in range(9):
        env.process(
            _tenant_app(env, runtime, f"t{i}", ("alpha", "beta", "gamma")[i % 3],
                        rngs.spawn(f"t{i}").stream("x"), results)
        )
    FailureInjector(
        runtime, [HotplugEvent(at_seconds=3.0, action="fail", device_index=1)]
    ).start()
    env.run()

    assert len(results) == 9  # nobody lost, despite preemption + failure
    assert runtime.stats.preemptions >= 1  # slicing actually engaged
    # System quiesced: all swap returned, nothing still queued or bound.
    assert runtime.memory.swap.used_bytes == 0
    assert runtime.scheduler.waiting_count == 0
    assert all(v.idle or v.retired for v in runtime.scheduler.vgpus)
    # No write-back leaked past a preemption: the overlap engine's
    # pending-barrier map fully drained.
    assert not any(runtime.memory._pending_writebacks.values())
    # Healthy device holds only its vGPU context reservations.
    healthy = driver.devices[0]
    assert (
        healthy.allocator.used_bytes
        == 2 * healthy.spec.context_reservation_bytes
    )


def _tenant_app(env, runtime, name, tenant, rng, results):
    """mixed_app with a tenant on the handshake."""
    from repro.core import Frontend
    from repro.simcuda import FatBinary, KernelDescriptor

    def app():
        fe = Frontend(env, runtime.listener, name=name, tenant=tenant)
        yield from fe.open()
        kernel = KernelDescriptor(
            name=f"{name}-k",
            flops=float(rng.uniform(0.2, 0.5)) * TESLA_C2050.effective_gflops * 1e9,
        )
        fb = FatBinary()
        handle = yield from fe.register_fat_binary(fb)
        yield from fe.register_function(handle, kernel)
        sizes = [int(rng.integers(64, 400)) * MIB for _ in range(int(rng.integers(1, 4)))]
        ptrs = []
        for size in sizes:
            p = yield from fe.cuda_malloc(size)
            yield from fe.cuda_memcpy_h2d(p, size)
            ptrs.append(p)
        for _ in range(int(rng.integers(3, 6))):
            yield from fe.launch_kernel(kernel, ptrs)
            yield env.timeout(float(rng.uniform(0.02, 0.3)))
        for p, size in zip(ptrs, sizes):
            yield from fe.cuda_memcpy_d2h(p, size)
            yield from fe.cuda_free(p)
        yield from fe.cuda_thread_exit()
        results.append(name)

    return app()
