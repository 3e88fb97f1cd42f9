"""Per-tenant gauges track the page table: ``Tenant.device_bytes``,
``Tenant.swap_bytes`` and ``TenantRegistry.rollup`` are derived from the
table and the tenants' counters on every call (never incrementally
maintained), so each read reflects the latest change."""

from repro.core import Frontend, RuntimeConfig
from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050

from tests.qos.conftest import Harness, MIB


def _tenant_app(h, name, tenant, kernels=4):
    def body():
        fe = Frontend(h.env, h.runtime.listener, name=name, tenant=tenant)
        yield from fe.open()
        kernel = KernelDescriptor(
            name=f"{name}-k", flops=0.2 * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(FatBinary())
        yield from fe.register_function(handle, kernel)
        ptr = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 32 * MIB)
        for _ in range(kernels):
            yield from fe.launch_kernel(kernel, [ptr])
            yield h.env.timeout(0.05)
        yield from fe.cuda_memcpy_d2h(ptr, 32 * MIB)
        yield from fe.cuda_free(ptr)
        yield from fe.cuda_thread_exit()

    return body()


def test_swap_bytes_tracks_the_table():
    h = Harness(config=RuntimeConfig(qos_enabled=True))
    seen = {}

    def app():
        fe = Frontend(h.env, h.runtime.listener, name="swapper", tenant="acme")
        yield from fe.open()
        kernel = KernelDescriptor(
            name="s-k", flops=0.1 * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(FatBinary())
        yield from fe.register_function(handle, kernel)
        tenant = h.runtime.qos.get("acme")
        page_table = h.memory.page_table
        ptr = yield from fe.cuda_malloc(16 * MIB)
        seen["after_malloc"] = tenant.swap_bytes(page_table)
        yield from fe.cuda_free(ptr)
        seen["after_free"] = tenant.swap_bytes(page_table)
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert seen["after_malloc"] == 16 * MIB
    assert seen["after_free"] == 0


def test_rollup_tracks_tenant_counters():
    h = Harness(config=RuntimeConfig(qos_enabled=True))
    seen = {}

    def checker():
        yield h.env.timeout(1.0)
        registry = h.runtime.qos
        page_table = h.memory.page_table
        first = registry.rollup(page_table)
        registry.get("acme").preemptions += 1
        second = registry.rollup(page_table)
        seen["tracked"] = second["acme"]["preemptions"] == first["acme"]["preemptions"] + 1

    h.spawn(_tenant_app(h, "app0", "acme"))
    h.spawn(checker())
    h.run()
    assert seen["tracked"]


def test_device_bytes_tracks_the_table():
    h = Harness(config=RuntimeConfig(qos_enabled=True))
    seen = {}

    def app():
        fe = Frontend(h.env, h.runtime.listener, name="grower", tenant="acme")
        yield from fe.open()
        kernel = KernelDescriptor(
            name="g-k", flops=0.1 * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(FatBinary())
        yield from fe.register_function(handle, kernel)
        tenant = h.runtime.qos.get("acme")
        page_table = h.memory.page_table
        ptr = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 16 * MIB)
        yield from fe.launch_kernel(kernel, [ptr])
        seen["resident"] = tenant.device_bytes(page_table)
        yield from fe.cuda_free(ptr)
        seen["after_free"] = tenant.device_bytes(page_table)
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert seen["resident"] == 16 * MIB
    assert seen["after_free"] == 0
    # every context exited: the tenant holds no device memory
    tenant = h.runtime.qos.get("acme")
    assert tenant.contexts == []
    assert tenant.device_bytes(h.memory.page_table) == 0
