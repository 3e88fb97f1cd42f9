"""Tenant resource quotas (repro.qos + memory manager enforcement)."""

import pytest

from repro.core import Frontend, RuntimeConfig
from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.qos import Tenant
from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050

from tests.qos.conftest import Harness, MIB


def _kernel(name, seconds=0.05):
    return KernelDescriptor(
        name=name, flops=seconds * TESLA_C2050.effective_gflops * 1e9
    )


def test_swap_quota_bounds_total_allocations():
    h = Harness(config=RuntimeConfig(qos_enabled=True))
    h.runtime.qos.register(Tenant("t", swap_quota_bytes=100 * MIB))
    outcome = {}

    def app():
        fe = Frontend(h.env, h.runtime.listener, name="a", tenant="t")
        yield from fe.open()
        a = yield from fe.cuda_malloc(64 * MIB)
        try:
            yield from fe.cuda_malloc(64 * MIB)  # 128 > 100: over quota
        except RuntimeApiError as exc:
            outcome["error"] = exc
        # Freeing returns quota headroom.
        yield from fe.cuda_free(a)
        outcome["retry"] = yield from fe.cuda_malloc(64 * MIB)
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert outcome["error"].code is RuntimeErrorCode.TENANT_QUOTA_EXCEEDED
    assert outcome["retry"] is not None


def test_swap_quota_inert_when_qos_disabled():
    h = Harness()
    h.runtime.qos.register(Tenant("t", swap_quota_bytes=1 * MIB))
    done = {}

    def app():
        fe = Frontend(h.env, h.runtime.listener, name="a", tenant="t")
        yield from fe.open()
        yield from fe.cuda_malloc(64 * MIB)  # far over the (ignored) quota
        yield from fe.cuda_thread_exit()
        done["ok"] = True

    h.spawn(app())
    h.run()
    assert done.get("ok")


class _QuotaApp:
    """An application that allocates N buffers and launches on each."""

    def __init__(self, h, name, tenant, bufs, buf_mib=64, tail_sleep=0.0):
        self.h = h
        self.name = name
        self.tenant = tenant
        self.bufs = bufs
        self.buf_mib = buf_mib
        self.tail_sleep = tail_sleep
        self.done = False

    def run(self):
        h = self.h
        fe = Frontend(h.env, h.runtime.listener, name=self.name, tenant=self.tenant)
        yield from fe.open()
        fatbin = FatBinary()
        k = _kernel(f"{self.name}-k")
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        ptrs = []
        for _ in range(self.bufs):
            p = yield from fe.cuda_malloc(self.buf_mib * MIB)
            yield from fe.cuda_memcpy_h2d(p, self.buf_mib * MIB)
            ptrs.append(p)
            yield from fe.launch_kernel(k, [p])
        if self.tail_sleep:
            yield h.env.timeout(self.tail_sleep)
        yield from fe.cuda_thread_exit()
        self.done = True


def test_over_quota_launch_evicts_own_lru_entries():
    """A tenant's working set over its device quota evicts the tenant's
    own least-recently-used entries, not anyone else's (the acceptance
    criterion for quota enforcement)."""
    h = Harness(config=RuntimeConfig(
        qos_enabled=True, vgpus_per_device=2, tracing=True,
    ))
    h.runtime.qos.register(Tenant("capped", device_quota_bytes=128 * MIB))
    h.runtime.qos.register(Tenant("free"))
    # The bystander allocates once and then sits in a CPU phase, staying
    # bound and resident while the capped tenant churns.
    bystander = _QuotaApp(h, "bystander", "free", bufs=1, tail_sleep=20.0)
    capped = _QuotaApp(h, "capped-app", "capped", bufs=3)  # 3 x 64 > 128

    def staged():
        h.spawn(bystander.run(), name="bystander")
        yield h.env.timeout(1.0)  # bystander resident first
        yield from capped.run()

    h.spawn(staged(), name="capped-app")
    h.run()
    assert bystander.done and capped.done
    assert h.stats.quota_evictions >= 1
    assert h.stats.quota_eviction_bytes >= 64 * MIB
    # Only the offending tenant's entries were evicted: every swap-out
    # in the run belongs to the capped tenant's context.
    from repro.obs import SwapOut

    swapped_owners = {e.context for e in h.runtime.obs.events_of(SwapOut)}
    assert "capped-app" in swapped_owners
    assert "bystander" not in swapped_owners


def test_compliant_tenant_is_not_quota_evicted():
    h = Harness(config=RuntimeConfig(qos_enabled=True))
    h.runtime.qos.register(Tenant("roomy", device_quota_bytes=1024 * MIB))
    app = _QuotaApp(h, "a", "roomy", bufs=3)
    h.spawn(app.run())
    h.run()
    assert app.done
    assert h.stats.quota_evictions == 0


def test_quota_soft_when_working_set_alone_exceeds_it():
    """A single launch whose working set exceeds the quota still runs —
    the quota cannot starve the kernel's own arguments."""
    h = Harness(config=RuntimeConfig(qos_enabled=True))
    h.runtime.qos.register(Tenant("tiny", device_quota_bytes=32 * MIB))
    done = {}

    def app():
        fe = Frontend(h.env, h.runtime.listener, name="a", tenant="tiny")
        yield from fe.open()
        fatbin = FatBinary()
        k = _kernel("k")
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        p = yield from fe.cuda_malloc(64 * MIB)  # working set 64 > quota 32
        yield from fe.cuda_memcpy_h2d(p, 64 * MIB)
        yield from fe.launch_kernel(k, [p])
        yield from fe.cuda_thread_exit()
        done["ok"] = True

    h.spawn(app())
    h.run()
    assert done.get("ok")
