"""Dynamic binding / job migration between GPUs (paper §5.3.4)."""

from repro.core import RuntimeConfig
from repro.simcuda import KernelDescriptor, QUADRO_2000, TESLA_C2050

from tests.core.conftest import Harness, MIB


def kernel(seconds, name="k", spec=TESLA_C2050):
    return KernelDescriptor(name=name, flops=seconds * spec.effective_gflops * 1e9)


def phased_job(h, name, results, kernels=6, kernel_s=0.5, cpu_s=0.5):
    def app():
        fe = h.frontend(name)
        yield from fe.open()
        k = kernel(kernel_s, f"{name}-k")
        a = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.cuda_memcpy_h2d(a, 32 * MIB)
        for _ in range(kernels):
            yield from fe.launch_kernel(k, [a])
            yield h.env.timeout(cpu_s)
        yield from fe.cuda_thread_exit()
        results[name] = h.env.now

    return app()


def unbalanced_harness(migration=True, vgpus=1):
    return Harness(
        specs=[TESLA_C2050, QUADRO_2000],
        config=RuntimeConfig(
            vgpus_per_device=vgpus,
            migration_enabled=migration,
        ),
    )


def test_job_migrates_from_slow_to_fast_gpu():
    """Two jobs on {fast, slow}; when the fast GPU frees, the slow job's
    remainder migrates there."""
    h = unbalanced_harness()
    results = {}
    # Job A is short: frees the fast GPU early.  Job B is long and starts
    # on the slow Quadro.
    h.spawn(phased_job(h, "short", results, kernels=2, kernel_s=0.3, cpu_s=0.1))
    h.spawn(phased_job(h, "long", results, kernels=8, kernel_s=0.5, cpu_s=0.5))
    h.run()
    assert set(results) == {"short", "long"}
    assert h.stats.migrations >= 1
    long_ctx = next(c for c in h.contexts if c.owner == "long")
    assert long_ctx.migrations >= 1
    # The fast device executed kernels for both jobs.
    fast = h.driver.devices[0]
    assert fast.kernels_executed > 2


def test_migration_disabled_keeps_job_on_slow_gpu():
    h = unbalanced_harness(migration=False)
    results = {}
    h.spawn(phased_job(h, "short", results, kernels=2, kernel_s=0.3, cpu_s=0.1))
    h.spawn(phased_job(h, "long", results, kernels=8, kernel_s=0.5, cpu_s=0.5))
    h.run()
    assert h.stats.migrations == 0
    slow = h.driver.devices[1]
    assert slow.kernels_executed == 8  # the long job never left


def test_migration_speeds_up_unbalanced_node():
    def total_time(migration):
        h = unbalanced_harness(migration=migration)
        results = {}
        h.spawn(phased_job(h, "short", results, kernels=2, kernel_s=0.3, cpu_s=0.1))
        h.spawn(phased_job(h, "long", results, kernels=8, kernel_s=0.5, cpu_s=0.5))
        h.run()
        return max(results.values())

    assert total_time(migration=True) < total_time(migration=False)


def test_no_migration_when_jobs_are_waiting():
    """With pending jobs, idle fast vGPUs serve the queue instead of
    pulling jobs off the slow GPU (the paper's large-batch observation)."""
    h = unbalanced_harness(vgpus=1)
    results = {}
    for i in range(6):  # 6 jobs on 2 vGPUs: queue always populated
        h.spawn(phased_job(h, f"j{i}", results, kernels=3, kernel_s=0.4, cpu_s=0.05))
    h.run()
    assert len(results) == 6
    # Migrations may be zero or few; they must never exceed batches where
    # the queue ran dry near the end.
    assert h.stats.migrations <= 2


def test_migration_preserves_data():
    """A migrated job's data follows it: write-backs happen on the source
    device and the data faults back in on the destination."""
    h = unbalanced_harness()
    results = {}
    h.spawn(phased_job(h, "short", results, kernels=2, kernel_s=0.3, cpu_s=0.1))
    h.spawn(phased_job(h, "long", results, kernels=8, kernel_s=0.5, cpu_s=0.5))
    h.run()
    if h.stats.migrations:
        assert h.stats.swap_bytes_out >= 32 * MIB  # write-back on source
        assert h.stats.swap_bytes_in >= 2 * 32 * MIB  # initial + re-fault


def test_excluded_context_never_migrates():
    """Applications with device-side dynamic allocation are excluded from
    dynamic scheduling (§1)."""
    from repro.simcuda import FatBinary

    h = unbalanced_harness()
    results = {}

    def dynamic_app():
        fe = h.frontend("dynamic")
        yield from fe.open()
        fb = FatBinary()
        k = KernelDescriptor(
            name="dyn-k",
            flops=0.5 * TESLA_C2050.effective_gflops * 1e9,
            uses_dynamic_alloc=True,
        )
        fb.register_function(k)
        yield from fe.register_fat_binary(fb)
        a = yield from fe.cuda_malloc(16 * MIB)
        for _ in range(6):
            yield from fe.launch_kernel(k, [a])
            yield h.env.timeout(0.5)
        yield from fe.cuda_thread_exit()
        results["dynamic"] = h.env.now

    # Short job occupies the fast GPU briefly; dynamic job lands on the
    # slow GPU and must stay there.
    h.spawn(phased_job(h, "short", results, kernels=1, kernel_s=0.2, cpu_s=0.0))
    h.spawn(dynamic_app())
    h.run()
    ctx = next(c for c in h.contexts if c.owner == "dynamic")
    assert ctx.excluded_from_sharing
    assert ctx.migrations == 0
