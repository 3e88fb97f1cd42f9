"""Heterogeneous accelerators (§7 future work: Intel MIC support).

The runtime is device-agnostic: any accelerator with separate memory and
a library-call interface is "a GPU" to it.  These tests run the runtime
over a node mixing a Tesla C2050 with an Intel MIC.
"""

from repro.core import RuntimeConfig
from repro.simcuda import INTEL_MIC, KernelDescriptor, TESLA_C2050

from tests.core.conftest import Harness, MIB


def kernel(seconds, name="k"):
    return KernelDescriptor(
        name=name, flops=seconds * TESLA_C2050.effective_gflops * 1e9
    )


def test_mic_spec_properties():
    assert INTEL_MIC.core_count == 61 * 16
    assert INTEL_MIC.memory_bytes == 8 * 1024**3
    assert INTEL_MIC.max_contexts == 16
    # In the same performance league as a C2050 for these models.
    assert 0.5 < INTEL_MIC.relative_speed(TESLA_C2050) < 3.0


def test_jobs_spread_across_gpu_and_mic():
    h = Harness(
        specs=[TESLA_C2050, INTEL_MIC],
        config=RuntimeConfig(vgpus_per_device=2),
    )
    done = []

    def app(name):
        fe = h.frontend(name)
        yield from fe.open()
        k = kernel(1.0, f"{name}-k")
        a = yield from fe.cuda_malloc(64 * MIB)
        yield from fe.cuda_memcpy_h2d(a, 64 * MIB)
        yield from fe.launch_kernel(k, [a])
        yield from fe.cuda_thread_exit()
        done.append(name)

    for i in range(2):
        h.spawn(app(f"j{i}"))
    h.run()
    assert len(done) == 2
    # Both accelerators did work (placement balances across them).
    assert h.driver.devices[0].kernels_executed == 1
    assert h.driver.devices[1].kernels_executed == 1


def test_migration_between_gpu_and_mic():
    """Dynamic binding works across accelerator families too."""
    from repro.simcuda import QUADRO_2000

    h = Harness(
        specs=[INTEL_MIC, QUADRO_2000],
        config=RuntimeConfig(vgpus_per_device=1, migration_enabled=True),
    )
    results = {}

    def blocker():
        fe = h.frontend("blocker")
        yield from fe.open()
        k = kernel(0.4, "b-k")
        a = yield from fe.cuda_malloc(4 * MIB)
        yield from fe.launch_kernel(k, [a])
        yield from fe.cuda_thread_exit()

    def long_job():
        yield h.env.timeout(0.3)
        fe = h.frontend("long")
        yield from fe.open()
        k = kernel(0.4, "l-k")
        a = yield from fe.cuda_malloc(32 * MIB)
        for _ in range(6):
            yield from fe.launch_kernel(k, [a])
            yield h.env.timeout(0.4)
        yield from fe.cuda_thread_exit()
        results["long"] = h.env.now

    h.spawn(blocker())
    h.spawn(long_job())
    h.run()
    assert "long" in results
    # The long job started on the slow Quadro (MIC was blocked) and
    # migrated to the much faster MIC once it freed.
    assert h.stats.migrations >= 1
    assert h.driver.devices[0].kernels_executed > 1  # MIC ran migrated work
